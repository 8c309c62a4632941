"""API-surface and edge-case tests.

Verifies the documented public API of every package `__init__` and a
set of boundary configurations (tiny trees, degenerate banks) that the
main suites do not reach.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import make_scheme
from repro.core.counter_tree import CounterTree
from repro.core.thresholds import SplitThresholds


class TestPublicAPI:
    def test_top_level_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_version_single_sourced(self):
        """repro.__version__ always agrees with the _version constant
        (which setup.py builds the distribution metadata from)."""
        from repro._version import __version__ as source

        assert repro.__version__ == source
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)

    def test_import_loads_no_process_pool_machinery(self):
        """The CLI, the experiments layer and the simulator import
        neither ``concurrent.futures`` nor ``multiprocessing``: the
        worker pool imports ``multiprocessing`` only when it forks."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys\n"
            "import repro.sim.simulator, repro.experiments, repro.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('concurrent', 'multiprocessing')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_subpackage_exports(self):
        import repro.analysis as analysis
        import repro.core as core
        import repro.dram as dram
        import repro.energy as energy
        import repro.sim as sim
        import repro.workloads as workloads

        for module in (analysis, core, dram, energy, sim, workloads):
            for name in module.__all__:
                assert hasattr(module, name), (
                    f"{module.__name__} missing export {name}"
                )

    def test_make_scheme_all_kinds(self):
        for kind in ("sca", "pra", "prcat", "drcat", "ccache"):
            scheme = make_scheme(kind, 65536, 32768)
            assert scheme.name == kind

    def test_make_scheme_unknown(self):
        with pytest.raises(ValueError):
            make_scheme("unknown", 1024, 100)


EXAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports(path):
    """Every example loads against the current API (``main()`` is
    guarded, so only module-level imports and constants execute)."""
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


class TestTinyTrees:
    def test_two_counter_tree(self):
        th = SplitThresholds.create(64, 2, 3)
        tree = CounterTree(16, th)
        assert tree.active_counters == 1
        for _ in range(200):
            tree.access(3)
        tree.check_invariants()
        assert tree.total_refresh_commands > 0

    def test_single_row_groups(self):
        """Max depth down to one row per group."""
        th = SplitThresholds.create(64, 8, 5)
        tree = CounterTree(16, th)
        for _ in range(500):
            tree.access(7)
        state = tree.counter_state(tree.lookup(7))
        assert state["high"] - state["low"] + 1 >= 1
        tree.check_invariants()

    def test_minimum_bank(self):
        th = SplitThresholds.create(16, 2, 2)
        tree = CounterTree(2, th)
        cmds = [tree.access(0) for _ in range(40)]
        assert any(c is not None for c in cmds)


class TestDegenerateSchemes:
    def test_sca_one_counter(self):
        scheme = make_scheme("sca", 1024, 16, n_counters=1)
        cmds = []
        for _ in range(16):
            cmds.extend(scheme.access(5))
        assert len(cmds) == 1
        assert cmds[0].row_count(1024) == 1024  # whole bank + clamp

    def test_sca_counter_per_row(self):
        scheme = make_scheme("sca", 64, 8, n_counters=64)
        cmds = []
        for _ in range(8):
            cmds.extend(scheme.access(30))
        (cmd,) = cmds
        assert (cmd.low, cmd.high) == (29, 31)

    def test_pra_probability_one_half(self):
        scheme = make_scheme("pra", 1024, 32768, probability=0.5)
        fired = sum(1 for _ in range(2000) if scheme.access(100))
        assert 700 < fired < 1300


class TestCrossSchemeConsistency:
    def test_equal_activation_accounting(self):
        """Every scheme counts the same activations on the same stream."""
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 1024, size=500)
        schemes = [
            make_scheme(kind, 1024, 256)
            for kind in ("sca", "pra", "prcat", "drcat", "ccache")
        ]
        for scheme in schemes:
            for row in rows:
                scheme.access(int(row))
        counts = {s.stats.activations for s in schemes}
        assert counts == {500}

    def test_deterministic_schemes_idempotent(self):
        rng = np.random.default_rng(1)
        rows = [int(r) for r in rng.integers(0, 1024, size=2000)]
        for kind in ("sca", "prcat", "drcat", "ccache"):
            a = make_scheme(kind, 1024, 128)
            b = make_scheme(kind, 1024, 128)
            rows_a = sum(
                cmd.row_count(1024) for r in rows for cmd in a.access(r)
            )
            rows_b = sum(
                cmd.row_count(1024) for r in rows for cmd in b.access(r)
            )
            assert rows_a == rows_b
