"""Batched-vs-scalar engine equivalence suite.

The batched engine's contract is *bit-identical* results: for every
scheme, workload, and attack mix, a batched run must produce exactly the
same :class:`~repro.sim.metrics.RunTotals` (refresh commands, rows
refreshed, stall and busy nanoseconds), the same bank registers, and
the same scheme registers (tree shape, splits, merges and SRAM reads
included) as the per-event scalar loop.  Anything short of exact
equality is an engine bug, not noise — see DESIGN.md, "Batched engine".
"""

import dataclasses
import zlib

import numpy as np
import pytest

from repro.analysis.prng import CountingPRNG, TrueRandomPRNG
from repro.api import Session
from repro.core.registry import scheme_names
from repro.dram.config import DUAL_CORE_2CH
from repro.experiments import ExperimentSpec, SchemeSpec, run_spec

SCHEMES = ("pra", "sca", "prcat", "drcat", "ccache")
#: Skew spectrum: extreme (black), moderate (mum), near-uniform (libq).
WORKLOADS = ("black", "mum", "libq")
#: Multi-interval, multi-bank, and a scale whose threshold still splits.
KNOBS = dict(scale=64.0, n_banks=2, n_intervals=3)

#: Per-scheme randomized spec draws (see :func:`_sample_spec`).
FUZZ_DRAWS = 2

#: Scheme-parameter samplers for the fuzzed axis.  Only knobs that
#: change the hot-loop shape are varied; anything else is the default.
_PARAM_SAMPLERS = {
    "sca": lambda rng: {"n_counters": int(rng.choice([32, 128, 512]))},
    "prcat": lambda rng: {"n_counters": int(rng.choice([32, 64, 128]))},
    "drcat": lambda rng: {"max_levels": int(rng.choice([8, 11]))},
    "pra": lambda rng: {"probability": float(rng.choice([0.002, 0.01]))},
    "ccache": lambda rng: {
        "n_sets": int(rng.choice([1, 8, 64])),
        "n_ways": int(rng.choice([1, 2, 8])),
    },
}


def _run_with_memory(spec: ExperimentSpec):
    """The run's result and its final memory system."""
    session = Session(spec)
    return session.result(), session.memory


def _run(engine: str, scheme: str, workload: str):
    return _run_with_memory(ExperimentSpec(
        scheme=SchemeSpec(scheme),
        workload=workload,
        system=DUAL_CORE_2CH,
        engine=engine,
        **KNOBS,
    ))


def _fingerprint(memory) -> dict:
    """Every engine-observable total, including every bank and scheme
    register."""
    out = {
        "epochs_completed": memory.epochs_completed,
        "total_refresh_commands": memory.total_refresh_commands,
    }
    for bank, (state, scheme) in enumerate(zip(memory.banks, memory.schemes)):
        # Every bank register (free-at, backlog, busy, stall, activations,
        # rows refreshed, escalations) and every scheme register: a
        # tree's partition, counts, weights, SRAM reads, harvest flags,
        # harvest budget and free-list order; the counter cache's ways,
        # backing store and hit/miss/write-back totals; SCA's counts;
        # PRA's PRNG.
        out[f"bank{bank}"] = state.to_state()
        out[f"bank{bank}_scheme"] = scheme.to_state()
    return out


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_bit_identical_workload_runs(scheme, workload):
    scalar, scalar_mem = _run("scalar", scheme, workload)
    batched, batched_mem = _run("batched", scheme, workload)
    assert scalar.totals == batched.totals
    assert _fingerprint(scalar_mem) == _fingerprint(batched_mem)
    assert scalar.cmrpo == batched.cmrpo
    assert scalar.eto == batched.eto


def _sample_spec(scheme: str, rng: np.random.Generator) -> ExperimentSpec:
    """One randomized experiment for ``scheme`` (engine left default).

    Scales stay in the cheap regime (higher scale = fewer accesses) so
    the fuzz matrix remains tier-1 friendly on the scalar engine.
    """
    params = _PARAM_SAMPLERS.get(scheme, lambda _: {})(rng)
    return ExperimentSpec(
        scheme=SchemeSpec.create(scheme, **params),
        workload=str(rng.choice(["mum", "libq", "black"])),
        refresh_threshold=int(rng.choice([32768, 16384, 8192])),
        scale=float(rng.choice([48.0, 96.0])),
        n_banks=int(rng.choice([1, 2])),
        n_intervals=int(rng.choice([1, 2])),
    )


@pytest.mark.parametrize("scheme", scheme_names())
def test_fuzzed_specs_bit_identical(scheme):
    """Seeded fuzz over every registered scheme: the engines agree."""
    rng = np.random.default_rng(zlib.crc32(scheme.encode()))
    for draw in range(FUZZ_DRAWS):
        base = _sample_spec(scheme, rng)
        docs = {}
        prints = {}
        for engine in ("scalar", "batched"):
            result, memory = _run_with_memory(
                dataclasses.replace(base, engine=engine)
            )
            docs[engine] = result.to_dict()
            prints[engine] = _fingerprint(memory)
        context = f"{scheme} draw {draw}: {base}"
        assert docs["batched"] == docs["scalar"], context
        assert prints["batched"] == prints["scalar"], context


@pytest.mark.parametrize("scheme", SCHEMES)
def test_bit_identical_attack_runs(scheme):
    results = {}
    for engine in ("scalar", "batched"):
        results[engine] = run_spec(ExperimentSpec(
            scheme=SchemeSpec(scheme),
            kind="attack",
            attack_kernel="kernel01",
            attack_mode="heavy",
            workload="libq",
            scale=64.0,
            n_banks=2,
            n_intervals=2,
            engine=engine,
        ))
    assert results["scalar"].totals == results["batched"].totals


def test_epoch_boundary_state_identical():
    """PRCAT's epoch reset happens at the same point in both engines."""
    prints = []
    for engine in ("scalar", "batched"):
        _, memory = _run(engine, "prcat", "mum")
        # 3 intervals -> 2 interior boundaries, each resetting every bank.
        assert memory.epochs_completed == KNOBS["n_intervals"] - 1
        assert len(memory.schemes) == KNOBS["n_banks"]
        prints.append(_fingerprint(memory))
    assert prints[0] == prints[1]


def test_trng_batch_draws_match_scalar_draws():
    """The PCG64 bulk draw is stream-equivalent to sequential draws."""
    a, b = TrueRandomPRNG(seed=99), TrueRandomPRNG(seed=99)
    batch = a.next_bits_batch(9, 257)
    scalars = [b.next_bits(9) for _ in range(257)]
    assert batch.tolist() == scalars


def test_default_prng_batch_fallback_matches():
    """The PRNG base-class batch fallback replays scalar draws."""
    a, b = CountingPRNG(3), CountingPRNG(3)
    batch = a.next_bits_batch(4, 40)
    scalars = [b.next_bits(4) for _ in range(40)]
    assert batch.tolist() == scalars


def test_engine_flag_validation():
    for engine in ("warp", "jit"):
        with pytest.raises(ValueError):
            ExperimentSpec(scheme=SchemeSpec("sca"), engine=engine)


def test_runner_plumbs_engine():
    r1, r2 = (
        run_spec(ExperimentSpec(
            scheme=SchemeSpec("drcat"), workload="mum", engine=engine,
            scale=128.0, n_banks=1, n_intervals=1,
        ))
        for engine in ("scalar", "batched")
    )
    assert r1.totals == r2.totals


def test_per_bank_driver_matches_merged_access_loop():
    """Both per-bank drivers equal the scalar `MemorySystem.access` loop
    over the time-merged stream (4 banks, 1 ms epochs, DRCAT), whether
    they serve it in one call or in seeded `max_accesses`/`until_ns`
    cuts."""
    from repro.core import make_scheme
    from repro.dram.config import SystemConfig
    from repro.dram.memory_system import MemorySystem
    from repro.sim.engine import (
        advance_batched_streams,
        advance_scalar_streams,
        quantize_times_ns,
    )

    config = SystemConfig(rows_per_bank=4096)
    rng = np.random.default_rng(11)
    n = 4000
    times = quantize_times_ns(np.sort(rng.uniform(0, 5e6, size=n)))
    banks = rng.integers(0, 4, size=n)
    rows = rng.integers(0, 4096, size=n)

    def build():
        return MemorySystem(
            config,
            lambda n_rows: make_scheme("drcat", n_rows, 256),
            4,
            epoch_s=1e-3,
        )

    merged = build()
    for t, b, r in zip(times.tolist(), banks.tolist(), rows.tolist()):
        merged.access(t, b, r)
    expected = _fingerprint(merged)
    streams = [(times[banks == b], rows[banks == b]) for b in range(4)]
    for driver in (advance_scalar_streams, advance_batched_streams):
        memory = build()
        assert driver(memory, streams, [0] * len(streams)) == n
        assert _fingerprint(memory) == expected, driver.__name__
        for seed in range(3):
            cuts = np.random.default_rng(seed)
            memory, cursors, served, until = build(), [0] * 4, 0, 0.0
            while served < n:
                until += float(cuts.uniform(0, 8e5))
                budget = int(cuts.integers(1, 700))
                step = driver(memory, streams, cursors,
                              until_ns=until, max_accesses=budget)
                assert step <= budget
                served += step
            context = (driver.__name__, seed)
            assert cursors == [len(t) for t, _ in streams], context
            assert _fingerprint(memory) == expected, context


def test_batched_access_batch_rejects_bad_rows():
    """The batched engine's paths reject out-of-range rows: the
    per-access default and the kernel."""
    from repro.core import make_scheme
    from repro.dram.bank import BankState
    from repro.dram.config import DRAMTimings
    from repro.sim.kernel import serve_segment

    rows = np.array([5, 2048], dtype=np.int64)
    for kind in ("sca", "pra", "prcat", "drcat", "ccache"):
        scheme = make_scheme(kind, 1024, 128)
        with pytest.raises(ValueError, match="row 2048 out of range"):
            scheme.access_batch(rows)
        with pytest.raises(ValueError, match="row 2048 out of range"):
            serve_segment(BankState(DRAMTimings()), scheme, np.zeros(2), rows)
