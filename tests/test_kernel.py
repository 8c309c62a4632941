"""The compiled bank-segment kernel against the scalar oracle.

The differential suite draws bank streams for SCA, PRA, PRCAT, DRCAT and
the counter cache and serves them both ways: per access through
``MemorySystem.access`` (the oracle) and one segment at a time through
the batched engine's ``_run_bank_segment`` (the kernel).  Small counter
pools make the trees split, harvest and cascade, and a lowered harvest
budget runs it dry; caches of 1-4 sets and ways evict lines that come
back, in banks that end inside a line; dense arrivals, large groups and
a lowered escalation cap push bank backlogs past
``BACKLOG_ESCALATION_ROWS``.
Each drawn cut may bring an epoch boundary and a JSON round trip of the
kernel side's state.  Refresh events (time, range, reason, rows),
registers, statistics and SRAM reads must match exactly.

The rest covers the build: the per-access fallback without a compiler,
import discipline, concurrent builds, and the cache salt.
"""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import counter_tree
from repro.core.cat import PRCATScheme
from repro.core.counter_cache import CounterCacheScheme
from repro.core.drcat import DRCATScheme
from repro.core.pra import PRAScheme
from repro.core.sca import SCAScheme
from repro.dram import bank as bank_module
from repro.dram.bank import BankState
from repro.dram.config import DRAMTimings, SystemConfig
from repro.dram.memory_system import MemorySystem
from repro.experiments import ExperimentSpec, SchemeSpec, run_spec
from repro.experiments.cache import source_files
from repro.sim import kernel
from repro.sim.engine import _run_bank_segment

SRC = Path(__file__).resolve().parents[1] / "src"

#: Inter-arrival gaps (ns, on the quarter-ns grid): bursts, gaps inside
#: and around one row cycle, and idle stretches that drain backlogs ...
GAPS = np.array([0.0, 12.25, 48.75, 500.0, 20000.0])
#: ... mixed by weight: bursty (backlogs build up and escalate), even,
#: mostly idle, and bursts between long idle stretches.
GAP_PROFILES = [(8, 2, 1, 1, 0), (1, 1, 1, 1, 1), (0, 1, 2, 2, 1), (1, 0, 0, 0, 1)]


@st.composite
def scheme_factories(draw, kind: str):
    """A scheme of ``kind`` with a small pool, and its bank size."""
    if kind == "ccache":
        # Small T so counts cross; 48 and 65519 rows end inside a line.
        n_rows = draw(st.sampled_from([48, 1024, 65519]))
        t = draw(st.sampled_from([2, 5, 32]))
        sets, ways = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        return n_rows, lambda _: CounterCacheScheme(n_rows, t, n_sets=sets, n_ways=ways)
    n_rows = draw(st.sampled_from([1024, 65536]))
    t = draw(st.sampled_from([32, 64, 128]))
    if kind == "sca":
        m = draw(st.sampled_from([1, 2, 16, 64]))
        return n_rows, lambda n: SCAScheme(n, t, m)
    if kind == "pra":
        p = draw(st.sampled_from([0.01, 0.2, 0.6]))
        return n_rows, lambda n: PRAScheme(n, t, p)
    m = draw(st.sampled_from([4, 8, 16]))
    levels = int(np.log2(m)) + draw(st.sampled_from([1, 2, 4]))
    presplit = draw(st.sampled_from([None, 1]))
    cls = PRCATScheme if kind == "prcat" else DRCATScheme
    return n_rows, lambda n: cls(
        n, t, n_counters=m, max_levels=levels, presplit_levels=presplit
    )


def _stream(seed: int, n: int, n_rows: int, gap_weights: tuple):
    """Rows from a few hot targets, a quarter of them at the bank's
    edges, that move halfway (a phase change) over a uniform
    background; arrivals from weighted gaps."""
    rng = np.random.default_rng(seed)
    hot = rng.random(n) < rng.choice([0.5, 0.9])
    phases = rng.integers(0, n_rows, size=(2, int(rng.integers(1, 7))))
    edges = rng.random(phases.shape) < 0.25
    phases[edges] = rng.choice([0, 1, n_rows - 2, n_rows - 1], size=int(edges.sum()))
    pick = rng.integers(0, phases.shape[1], size=n)
    rows = np.where(
        hot, phases[(np.arange(n) >= n // 2).astype(int), pick],
        rng.integers(0, n_rows, size=n),
    ).astype(np.int64)
    weights = np.array(gap_weights, dtype=float)
    times = np.cumsum(rng.choice(GAPS, size=n, p=weights / weights.sum()))
    return times, rows


def _memory(factory, n_rows: int, log: list) -> MemorySystem:
    """One protected bank of at least ``n_rows`` rows (a power of two)."""
    memory = MemorySystem(
        SystemConfig(rows_per_bank=1 << (n_rows - 1).bit_length()), factory,
        epoch_s=1e6, active_banks=1,
    )
    memory.on_refresh = lambda *event: log.append(event)
    return memory


def _serve_both(factory, n_rows, times, rows, marks, escalate_at, budget):
    """Serve a stream per access (the oracle) and per segment (the
    kernel), cut at ``marks`` (position -> (epoch boundary, JSON round
    trip of the kernel side)), comparing events and state at each cut."""
    bounds = sorted({0, len(rows), *marks})
    with mock.patch.object(bank_module, "BACKLOG_ESCALATION_ROWS", escalate_at), \
            mock.patch.object(counter_tree, "HARVEST_BUDGET_PER_REFRESH", budget):
        expected_log, log = [], []
        oracle = _memory(factory, n_rows, expected_log)
        served = _memory(factory, n_rows, log)
        for lo, hi in zip(bounds, bounds[1:]):
            epoch, trip = marks.get(lo, (False, False))
            if epoch:
                for memory in (oracle, served):
                    memory._advance_epochs(memory._next_epoch_ns)
            if trip:
                state = json.loads(json.dumps(served.to_state()))
                served = _memory(factory, n_rows, log)
                served.restore_state(state)
            for t, row in zip(times[lo:hi].tolist(), rows[lo:hi].tolist()):
                oracle.access(t, 0, row)
            _run_bank_segment(served, 0, times[lo:hi], rows[lo:hi])
            assert log == expected_log
            assert served.to_state() == oracle.to_state()


class TestKernelMatchesOracle:
    @pytest.mark.parametrize("kind", ["sca", "pra", "prcat", "drcat", "ccache"])
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        n=st.one_of(st.integers(1, 40), st.integers(800, 4000)),
        gap_weights=st.sampled_from(GAP_PROFILES),
        escalate_at=st.sampled_from([24, 4, bank_module.BACKLOG_ESCALATION_ROWS]),
        budget=st.sampled_from([1, counter_tree.HARVEST_BUDGET_PER_REFRESH]),
        cuts=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.booleans(), st.booleans()), max_size=4
        ),
    )
    def test_segments_equal_per_access_oracle(
        self, kind, data, seed, n, gap_weights, escalate_at, budget, cuts
    ):
        n_rows, factory = data.draw(scheme_factories(kind))
        times, rows = _stream(seed, n, n_rows, gap_weights)
        marks = {int(c * n): (epoch, trip) for c, epoch, trip in cuts}
        _serve_both(factory, n_rows, times, rows, marks, escalate_at, budget)

    def test_both_commands_of_an_escalating_access_share_its_completion(self):
        """PRA applies both neighbour refreshes at the access's
        completion time, also when the first one escalates and moves
        the bank's horizon past it."""
        rows = np.full(300, 5, dtype=np.int64)
        _serve_both(lambda n: PRAScheme(n, 32, 0.6), 1024, np.zeros(300), rows,
                    {150: (False, True)}, escalate_at=4,
                    budget=counter_tree.HARVEST_BUDGET_PER_REFRESH)

    def test_counter_cache_stays_inside_its_backing_store(self):
        """A bank that ends inside a line: the kernel fetches that line
        zero-padded and writes back only its rows in the bank, so the
        memory after the backing store is never read or written."""
        n_rows = 1000  # the last line holds 8 rows
        rows = np.array([999, 0, 998, 0, 999, 40, 999] * 20, dtype=np.int64)
        oracle = CounterCacheScheme(n_rows, 4, n_sets=1, n_ways=1)
        served = CounterCacheScheme(n_rows, 4, n_sets=1, n_ways=1)
        guarded = np.full(n_rows + 64, -7, dtype=np.int64)
        guarded[:n_rows] = 0
        served._memory_counters = guarded[:n_rows]
        for row in rows.tolist():
            oracle.access(row)
        if kernel.serve_segment(BankState(DRAMTimings()), served, np.zeros(len(rows)),
                                rows) is None:
            pytest.skip("no C compiler")
        assert served.to_state() == oracle.to_state()
        assert (guarded[n_rows:] == -7).all()

    @pytest.mark.parametrize("kind", ["sca", "pra", "drcat", "ccache"])
    def test_a_full_event_buffer_is_drained_and_the_call_resumed(self, kind):
        """With room for only a few events per call, a segment is served
        in several calls that resume where the last one stopped."""
        n_rows, factory = {
            "sca": (1024, lambda n: SCAScheme(n, 32, 16)),
            "pra": (1024, lambda n: PRAScheme(n, 32, 0.6)),
            "drcat": (1024, lambda n: DRCATScheme(n, 32, n_counters=8, max_levels=6)),
            "ccache": (1000, lambda _: CounterCacheScheme(1000, 3, n_sets=2, n_ways=2)),
        }[kind]
        times, rows = _stream(7, 3000, n_rows, GAP_PROFILES[0])
        with mock.patch.object(kernel, "_EVENT_CAP", 3):
            _serve_both(factory, n_rows, times, rows, {1000: (True, True)},
                        escalate_at=24, budget=counter_tree.HARVEST_BUDGET_PER_REFRESH)


def _spec(scheme: str, engine: str) -> ExperimentSpec:
    return ExperimentSpec(
        scheme=SchemeSpec(scheme), workload="mum", engine=engine,
        scale=128.0, n_banks=2, n_intervals=2,
    )


def test_without_a_compiler_batched_runs_per_access(tmp_path, monkeypatch, caplog):
    """No compiler: one notice, and batched results stay byte-identical."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(kernel, "find_compiler", lambda: None)
    monkeypatch.setattr(kernel, "_entry", None)
    with caplog.at_level(logging.WARNING, logger="repro.sim.kernel"):
        for scheme in ("sca", "pra", "prcat", "drcat", "ccache"):
            docs = [
                json.dumps(run_spec(_spec(scheme, engine)).to_dict(), sort_keys=True)
                for engine in ("scalar", "batched")
            ]
            assert docs[0] == docs[1], scheme
    notices = [r for r in caplog.records if r.name == "repro.sim.kernel"]
    assert len(notices) == 1
    assert "per access" in notices[0].getMessage()
    assert kernel._entry is False


@pytest.mark.parametrize("kind", ["sca", "pra", "prcat", "drcat", "ccache"])
def test_out_of_range_rows_raise_the_oracle_error(kind):
    from repro.core import make_scheme

    memory = MemorySystem(
        SystemConfig(rows_per_bank=1024), lambda n: make_scheme(kind, n, 128),
        active_banks=1,
    )
    with pytest.raises(ValueError) as oracle:
        memory.schemes[0].access(2048)
    before = memory.to_state()
    with pytest.raises(ValueError) as served:
        _run_bank_segment(memory, 0, np.array([1.0, 2.0]), np.array([5, 2048]))
    assert str(served.value) == str(oracle.value)
    assert memory.to_state() == before


def _python(code: str, cache: Path) -> subprocess.Popen:
    """Run ``code`` in a fresh interpreter whose kernel cache and temp dir
    live under ``cache``."""
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(cache / "xdg"),
               TMPDIR=str(cache / "tmp"))
    return subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_importing_the_cli_neither_builds_nor_loads(tmp_path):
    (tmp_path / "tmp").mkdir()
    proc = _python(
        "import repro.cli; from repro.sim import kernel; print(kernel._entry)", tmp_path
    )
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err.decode()
    assert out.decode().strip() == "None"
    assert not (tmp_path / "xdg").exists()
    assert not any((tmp_path / "tmp").iterdir())


def test_concurrent_builds_both_load_a_valid_library(tmp_path):
    (tmp_path / "tmp").mkdir()
    code = (
        "import numpy as np; from repro.core.sca import SCAScheme;"
        "from repro.dram.bank import BankState; from repro.dram.config import DRAMTimings;"
        "from repro.sim import kernel;"
        "events, done, reason = kernel.serve_segment(BankState(DRAMTimings()),"
        " SCAScheme(64, 32, 4), np.arange(64.0), np.zeros(64, dtype=np.int64));"
        "print(events[:, 0].tolist(), reason)"
    )
    procs = [_python(code, tmp_path) for _ in range(2)]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
        assert out.decode().split() == ["[31,", "-1,", "16,", "17]", "threshold"]
    built = list((tmp_path / "xdg" / "repro").iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"


def test_fingerprint_hashes_every_non_python_source():
    """Every file the package ships besides bytecode salts the caches,
    and every non-Python one is packaged."""
    root = SRC / "repro"
    shipped = {
        path for path in root.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    }
    assert shipped <= set(source_files(root))
    setup = (SRC.parent / "setup.py").read_text(encoding="utf-8")
    for path in shipped:
        if path.suffix != ".py":
            assert f'"{path.name}"' in setup, path
    assert kernel.SOURCE in shipped
