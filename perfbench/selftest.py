"""Self-test of the benchmark's own machinery.

Usage (from the repository root): ``python3 perfbench/selftest.py``.
Exits 0 when every check passes, 1 otherwise.  It checks that:

* seed 0 yields exactly the ci grids of ``benchmarks/`` (Figure 8/9 and
  Figure 13, compared by spec content hash);
* the same seed yields the same inputs, and another seed changes the
  arrival seed, the benign row-stream seeds and the kernel subset;
* the output check flags a result with one statistic perturbed, for a
  sweep cell and for a served result document;
* span self times subtract exactly the time covered by child spans;
* the latency quantile estimator matches reference Harrell-Davis values.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _ci_grids():
    """The bench modules' own plans at ci fidelity."""
    from repro.report.config import FIDELITIES

    os.environ.update(FIDELITIES["ci"])
    os.environ["REPRO_BENCH_ENGINE"] = "batched"
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import _common
    import bench_fig13_attacks

    fig8 = [s for t in (32768, 16384) for s in _common.fig8_plan(t).specs]
    return fig8, list(bench_fig13_attacks.build_plan().specs)


def _hashes(specs) -> list[str]:
    return [s.content_hash() for s in specs]


def check_ci_seed() -> None:
    import grids

    fig8, fig13 = _ci_grids()
    assert _hashes(grids.benign_sweep(0)) == _hashes(fig8), \
        "seed 0 benign_sweep differs from the ci Figure 8 grid"
    assert _hashes(grids.attack_tree(0)) == _hashes(fig13), \
        "seed 0 attack_tree differs from the ci Figure 13 grid"


def check_seed_plumbing() -> None:
    import itertools

    import grids

    for build in (grids.benign_sweep, grids.attack_tree):
        assert _hashes(build(7)) == _hashes(build(7)), "not deterministic"
        assert not set(_hashes(build(7))) & set(_hashes(build(0))), \
            f"{build.__name__}: seed 7 shares cells with seed 0"
    assert grids.arrival_seed(7) != grids.arrival_seed(0)
    assert grids.attack_kernels(7) != grids.attack_kernels(0)
    seeds = {w.seed for w in grids.benign_workloads(7)}
    assert len(seeds) == 18, "benign row-stream seeds were not re-drawn"
    first = [(s.content_hash(), r) for s, r in
             itertools.islice(grids.serve_jobs(7), 200)]
    again = [(s.content_hash(), r) for s, r in
             itertools.islice(grids.serve_jobs(7), 200)]
    assert first == again, "serve job sequence is not deterministic"
    repeats = [r for _, r in first if r is not None]
    assert 40 <= len(repeats) <= 60, f"{len(repeats)} repeats in 200 jobs"
    for position, (key, repeat_of) in enumerate(first):
        if repeat_of is not None:
            assert repeat_of <= position - 2
            assert first[repeat_of][0] == key


def check_perturbation() -> None:
    import check
    import grids
    from repro.experiments import run_plan
    from repro.sim.metrics import SimulationResult

    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        os.environ["REPRO_TRACE_STORE_DIR"] = tmp
        (result,) = run_plan([grids.benign_sweep(0)[0]])
    assert check.catches_perturbation(result), "sweep perturbation missed"
    served = json.loads(json.dumps(result.to_dict()))
    assert check.doc_bytes(served) == check.result_bytes(result)
    assert check.catches_perturbation(SimulationResult.from_dict(served)), \
        "served-result perturbation missed"


def check_self_times() -> None:
    import spans

    recorder = spans.Recorder()
    recorder.spans.extend([
        (0, "outer", 0.0, 10.0, -1, None),
        (1, "inner", 1.0, 4.0, 0, True),
        (2, "inner", 5.0, 6.0, 0, False),
        (3, "outer", 7.0, 8.0, 0, None),
    ])
    summary = spans.summarize(recorder.spans)
    assert summary["outer"]["calls"] == 1          # nested outer not counted
    assert summary["outer"]["total_s"] == 10.0
    assert summary["outer"]["self_s"] == (10.0 - 5.0) + 1.0
    assert summary["inner"]["total_s"] == 4.0
    assert summary["inner"]["info"] == 1


def check_quantile() -> None:
    import passes

    squares = [float(i * i) for i in range(1, 181)]
    # Reference values: scipy.stats.mstats.hdquantiles on the same data.
    for q, expected in ((0.5, 8234.838827838827), (0.9, 26422.355311355313)):
        got = passes.quantile(squares, q)
        assert abs(got - expected) < 1e-6 * expected, f"q={q}: {got}"
    assert abs(passes.quantile([3.0] * 7, 0.9) - 3.0) < 1e-12
    assert passes.quantile(squares[::-1], 0.9) == passes.quantile(squares, 0.9)


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("selftest: no simulator sources under src/", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    failures = 0
    for test in (check_ci_seed, check_seed_plumbing, check_perturbation,
                 check_self_times, check_quantile):
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
