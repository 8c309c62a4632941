"""Simulation-throughput benchmark: engines, caches, sweep throughput.

Writes ``benchmarks/results/BENCH_perf.json`` (and a copy at the repo
root, committed for cross-PR trajectory tracking) with, per scheme, the
accesses/second of the scalar and batched engines on the profile
workload (``mum``, the hot-path workload from the ISSUE-1 cProfile),
the wall-clock of a Figure 8 mini-sweep, the warm/cold behaviour of the
sweep-cell result cache (ISSUE-3), and the sweep-throughput section
(ISSUE-5): a scheme-axis figure grid timed with the activation-trace
store disabled (the PR-4 cold baseline), cold (populating), and warm
(every stream memmap-served) — plus the persistent-pool reuse gain.

The engine and result-cache sections pin ``REPRO_TRACE_STORE=0`` so
their numbers stay comparable with earlier runs; only the dedicated
sweep sections exercise the store.

Usage::

    python benchmarks/bench_perf.py             # full run, writes JSON
    python benchmarks/bench_perf.py --smoke     # drcat, prcat, ccache; trimmed grids
    python benchmarks/bench_perf.py --check     # exit 1 on regression:
                                                #  drcat batched < 5x scalar,
                                                #  prcat batched < 5x scalar,
                                                #  ccache batched < 3x scalar,
                                                #  result-cache warm < 2x,
                                                #  trace-store warm < 3x,
                                                #  pool reuse < 1.1x

The drcat ``--check`` floor is half the 10x the batched engine was
built to reach, i.e. it fails on a >2x throughput regression.  PRCAT
shares the tree event loop but never harvests; its floor, also 5x,
sits well below the 13-18x it measures on ``mum``, so a loop that
lost its bulk applies fails it.  The ccache floor sits between the
1.8x of the per-access ``access_batch`` fallback and the ~6x of the
counter cache's own batched path, so a silent fall-back to the
per-access loop fails it.  The trace-store
floor asks the warm scheme-axis grid for >= 3x the store-off cold
baseline.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import RESULTS_DIR  # noqa: E402

from repro.experiments import (  # noqa: E402
    ExperimentSpec,
    Plan,
    ResultCache,
    SchemeSpec,
    run_plan,
    run_spec,
)
from repro.experiments.spec import (  # noqa: E402
    DEFAULT_BANKS,
    DEFAULT_INTERVALS,
    DEFAULT_SCALE,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

PROFILE_WORKLOAD = "mum"
SCHEMES = ("drcat", "prcat", "sca", "pra", "ccache")
#: Minimum accepted batched/scalar speedup on drcat for ``--check``.
CHECK_MIN_SPEEDUP = 5.0
#: Minimum accepted batched/scalar speedup on prcat for ``--check``.
CHECK_MIN_PRCAT_SPEEDUP = 5.0
#: Minimum accepted batched/scalar speedup on ccache for ``--check``.
CHECK_MIN_CCACHE_SPEEDUP = 3.0
#: Mini-sweep used for the wall-clock trend (subset of Figure 8).
MINI_SWEEP_WORKLOADS = ("mum", "libq", "black", "comm1")
MINI_SWEEP_SCHEMES = ("pra", "sca", "prcat", "drcat")
#: Minimum accepted warm/cold speedup of the sweep-cell result cache
#: for ``--check`` (ISSUE-3 acceptance: >= 2x on a bench rerun).
CHECK_MIN_CACHE_SPEEDUP = 2.0
#: Minimum accepted trace-store warm speedup of the scheme-axis grid
#: over the store-off baseline for ``--check`` (ISSUE-5 acceptance).
CHECK_MIN_TRACE_SPEEDUP = 3.0
#: Minimum accepted reused-pool speedup over a cold fork for
#: ``--check``.  Deliberately modest: a fork is cheap, the floor guards
#: the persistence contract (a reused pool never re-pays per-worker
#: warmup), not a large constant factor.
CHECK_MIN_POOL_REUSE = 1.1
#: The gated sweep-throughput grid: a counter-budget scheme axis (PRA,
#: the SCA M-sweep of Figure 10, PRCAT) crossed with the two paper
#: thresholds — 14 scheme-side cells sharing one workload stream.  The
#: memory-intensive ``libq`` keeps the gate's per-cell simulation share
#: stable across machines; the full run also reports (ungated) ratios
#: for additional streams so the spread is visible in the artifact.
TRACE_SWEEP_WORKLOADS = ("libq",)
TRACE_SWEEP_EXTRA_WORKLOADS = ("str", "comm2")
TRACE_SWEEP_M = (32, 64, 128, 256, 512)
TRACE_SWEEP_THRESHOLDS = (32768, 16384)


@contextlib.contextmanager
def _scoped_env(values: dict):
    """Apply env overrides for one measurement (None = unset)."""
    saved = {k: os.environ.get(k) for k in values}
    for key, value in values.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    try:
        yield
    finally:
        for key, old in saved.items():
            if old is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = old


def _measure(engine: str, scheme: str, repeats: int) -> tuple[float, int]:
    """Best wall-clock and access count of one ``run_spec`` call."""
    spec = ExperimentSpec(
        scheme=SchemeSpec(scheme), workload=PROFILE_WORKLOAD, engine=engine
    )
    best = float("inf")
    accesses = 0
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_spec(spec)
        best = min(best, time.perf_counter() - start)
        accesses = result.totals.accesses
    return best, accesses


def _trace_sweep_plan(workloads=TRACE_SWEEP_WORKLOADS):
    """The scheme-axis grid of the sweep-throughput section."""
    schemes = [SchemeSpec.create("pra", "PRA")] + [
        SchemeSpec.create("sca", f"SCA_{m}", n_counters=m)
        for m in TRACE_SWEEP_M
    ] + [SchemeSpec.create("prcat", "PRCAT_64", n_counters=64)]
    # scale=8 (between the ci and full fidelities): bigger cells
    # amortize per-cell setup and scheduler noise, which both raises
    # the true warm ratio and stabilizes the gated measurement on
    # loaded CI runners.
    base = ExperimentSpec(
        scheme=SchemeSpec("drcat"), scale=8.0, n_banks=1, n_intervals=2,
    )
    return Plan.grid(
        base,
        workload=list(workloads),
        scheme=schemes,
        refresh_threshold=list(TRACE_SWEEP_THRESHOLDS),
    ), len(workloads)


def _measure_trace_sweep(smoke: bool) -> dict:
    """Store-off vs cold-store vs warm-store wall-clock of one grid.

    All passes run serially with the result cache off, so the numbers
    isolate exactly what the trace store changes: the store-off pass is
    the PR-4 cold baseline (every cell generates its streams), the cold
    pass generates once per unique stream while populating the store,
    and the warm pass serves every stream from the memmaps.  Pass order
    is cold, warm, then off, so the off baseline gets fully warmed
    Python/numpy caches — the conservative direction for the gate.
    """
    import shutil
    import tempfile

    from repro.sim import tracestore

    import gc

    plan, n_streams = _trace_sweep_plan()
    root = tempfile.mkdtemp(prefix="repro-trace-bench-")

    def timed(fn):
        # GC pauses land arbitrarily inside a ~100 ms pass and are the
        # dominant noise source for the gated ratio; collect up front
        # and pause the collector for the measurement (timeit-style).
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            results = fn()
            return time.perf_counter() - start, results
        finally:
            gc.enable()

    try:
        with _scoped_env({"REPRO_TRACE_STORE_DIR": root}):
            with _scoped_env({"REPRO_TRACE_STORE": "1"}):
                tracestore._STORES.clear()
                cold_s, cold_results = timed(lambda: run_plan(plan))
            # Best-of-3 for the gated passes, with warm and off rounds
            # *interleaved* so machine drift (a CI runner warming up,
            # background load) hits both sides of the ratio equally;
            # taking the minimum of both sides is conservative (it
            # lowers the numerator as much as the denominator).
            warm_times: list[float] = []
            off_times: list[float] = []
            warm_results = off_results = None
            for _ in range(3):
                with _scoped_env({"REPRO_TRACE_STORE": "1"}):
                    elapsed, results = timed(lambda: run_plan(plan))
                    warm_times.append(elapsed)
                    warm_results = warm_results or results
                with _scoped_env({"REPRO_TRACE_STORE": "0"}):
                    elapsed, results = timed(lambda: run_plan(plan))
                    off_times.append(elapsed)
                    off_results = off_results or results
            warm_s, off_s = min(warm_times), min(off_times)
        identical = all(
            a.to_dict() == b.to_dict() == c.to_dict()
            for a, b, c in zip(off_results, cold_results, warm_results)
        )
    finally:
        tracestore._STORES.clear()
        shutil.rmtree(root, ignore_errors=True)
    report = {
        "n_cells": len(plan),
        "unique_streams": n_streams,
        "workloads": list(TRACE_SWEEP_WORKLOADS),
        "store_off_s": round(off_s, 4),
        "store_cold_s": round(cold_s, 4),
        "store_warm_s": round(warm_s, 4),
        "cold_speedup_vs_off": round(off_s / cold_s, 2) if cold_s else 0.0,
        "warm_speedup_vs_off": round(off_s / warm_s, 2) if warm_s else 0.0,
        "results_identical": identical,
    }
    if not smoke:
        report["extra_workloads"] = {
            workload: _measure_trace_workload(workload)
            for workload in TRACE_SWEEP_EXTRA_WORKLOADS
        }
    return report


def _measure_trace_workload(workload: str) -> dict:
    """Ungated off/warm ratio of one extra workload's scheme-axis grid."""
    import shutil
    import tempfile

    from repro.sim import tracestore

    plan, _ = _trace_sweep_plan((workload,))
    root = tempfile.mkdtemp(prefix="repro-trace-bench-")
    try:
        with _scoped_env({"REPRO_TRACE_STORE_DIR": root,
                          "REPRO_TRACE_STORE": "1"}):
            tracestore._STORES.clear()
            run_plan(plan)
            start = time.perf_counter()
            run_plan(plan)
            warm_s = time.perf_counter() - start
        with _scoped_env({"REPRO_TRACE_STORE": "0"}):
            start = time.perf_counter()
            run_plan(plan)
            off_s = time.perf_counter() - start
    finally:
        tracestore._STORES.clear()
        shutil.rmtree(root, ignore_errors=True)
    return {
        "store_off_s": round(off_s, 4),
        "store_warm_s": round(warm_s, 4),
        "warm_speedup_vs_off": round(off_s / warm_s, 2) if warm_s else 0.0,
    }


def _pool_bench_plan():
    """A deliberately small pooled plan (the pool-reuse measurement).

    Pool lifecycle cost — forking the workers and each worker's first
    touch of its copy-on-write memory — is a fixed cost per cold start; against the ~seconds-long trace-sweep grid it
    vanishes below timer noise, which is exactly how the reuse ratio
    regressed to 1.0 unnoticed.  A small grid keeps the simulation
    share low enough that the lifecycle difference is measurable, which
    is the shape that matters: the persistent pool exists for the
    many-small-plans pattern (``repro verify`` runs 14 bench modules
    back to back).
    """
    base = ExperimentSpec(
        scheme=SchemeSpec("drcat"), scale=96.0, n_banks=1, n_intervals=1,
    )
    return Plan.grid(
        base,
        scheme=[SchemeSpec(kind) for kind in MINI_SWEEP_SCHEMES],
        refresh_threshold=list(TRACE_SWEEP_THRESHOLDS),
    )


def _measure_pool_reuse() -> dict:
    """Cold (fork) vs reused wall-clock of a pooled plan run.

    Measures what the persistent :class:`SweepPool` removes from every
    plan after the first: a cold pass closes the pool first and so pays
    the worker forks plus each fresh worker's first-cell costs
    (copy-on-write page faults, per-process caches); the reused pass
    sends chunks straight to live, warm workers.  Best-of-3
    with the passes interleaved, so machine drift hits both sides of the
    gated ratio equally.  The trace store is pinned off so only pool
    lifecycle differs.
    """
    from repro.experiments.run import SweepPool

    plan = _pool_bench_plan()
    cold_times: list[float] = []
    reused_times: list[float] = []
    with _scoped_env({"REPRO_TRACE_STORE": "0"}):
        for _ in range(3):
            SweepPool.shutdown()
            start = time.perf_counter()
            run_plan(plan, workers=2)
            cold_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            run_plan(plan, workers=2)
            reused_times.append(time.perf_counter() - start)
        SweepPool.shutdown()
    cold_s, reused_s = min(cold_times), min(reused_times)
    return {
        "n_cells": len(plan),
        "workers": 2,
        "cold_spawn_s": round(cold_s, 4),
        "reused_s": round(reused_s, 4),
        "reuse_speedup": round(cold_s / reused_s, 2) if reused_s else 0.0,
    }


def run_bench(smoke: bool = False, repeats: int = 3) -> dict:
    """Measure all engines; return the JSON-ready report."""
    from repro.report.schema import ARRIVAL_SEED, SCHEMA_VERSION

    schemes = ("drcat", "prcat", "ccache") if smoke else SCHEMES
    # Same schema envelope as the figure artifacts so tooling can
    # version-gate this report too; wall-clock numbers are machine-
    # dependent, which is why perf is not part of the golden store.
    report: dict = {
        "kind": "repro-perf-report",
        "schema_version": SCHEMA_VERSION,
        "seed": ARRIVAL_SEED,
        "workload": PROFILE_WORKLOAD,
        "sim_kwargs": {
            "scale": DEFAULT_SCALE,
            "n_banks": DEFAULT_BANKS,
            "n_intervals": DEFAULT_INTERVALS,
        },
        "schemes": {},
    }
    with _scoped_env({"REPRO_TRACE_STORE": "0"}):
        # Engine + result-cache sections run store-off so their numbers
        # stay comparable with the PR-1/PR-3 trajectory.
        for scheme in schemes:
            scalar_s, accesses = _measure("scalar", scheme, repeats)
            batched_s, _ = _measure("batched", scheme, repeats)
            report["schemes"][scheme] = {
                "accesses": accesses,
                "scalar_s": round(scalar_s, 4),
                "batched_s": round(batched_s, 4),
                "scalar_accesses_per_s": round(accesses / scalar_s),
                "batched_accesses_per_s": round(accesses / batched_s),
                "speedup_vs_scalar": round(scalar_s / batched_s, 2),
            }
        if not smoke:
            start = time.perf_counter()
            run_plan(_mini_sweep_plan())
            report["fig8_mini_sweep_s"] = round(
                time.perf_counter() - start, 3
            )
        report["sweep_cache"] = _measure_cache_speedup()
    report["trace_sweep"] = _measure_trace_sweep(smoke)
    report["sweep_pool"] = _measure_pool_reuse()
    return report


def _mini_sweep_plan() -> Plan:
    """The Figure 8 subset grid at the spec's default economy knobs."""
    return Plan.grid(
        workload=list(MINI_SWEEP_WORKLOADS),
        scheme=[SchemeSpec(kind) for kind in MINI_SWEEP_SCHEMES],
    )


def _measure_cache_speedup() -> dict:
    """Cold vs warm wall-clock of a plan rerun through the result cache.

    Measures exactly what ``repro verify`` gains on a rerun after an
    unrelated edit: the cold pass simulates and populates the cache,
    the warm pass replays every cell from disk.
    """
    import shutil
    import tempfile

    plan = _mini_sweep_plan()
    root = tempfile.mkdtemp(prefix="repro-cache-bench-")
    try:
        cache = ResultCache(root)
        start = time.perf_counter()
        cold_results = run_plan(plan, cache=cache)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm_results = run_plan(plan, cache=ResultCache(root))
        warm_s = time.perf_counter() - start
        identical = all(
            a.to_dict() == b.to_dict()
            for a, b in zip(cold_results, warm_results)
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "n_cells": len(plan),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 2) if warm_s else float("inf"),
        "warm_results_identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="drcat, prcat and ccache only (fast CI mode)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless batched >= "
                             f"{CHECK_MIN_SPEEDUP}x scalar on drcat, >= "
                             f"{CHECK_MIN_PRCAT_SPEEDUP}x on prcat and >= "
                             f"{CHECK_MIN_CCACHE_SPEEDUP}x on ccache, and "
                             "the cache, trace-store and pool floors hold")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    report = run_bench(smoke=args.smoke, repeats=args.repeats)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_perf.json"
    payload = json.dumps(report, indent=2) + "\n"
    out.write_text(payload, encoding="utf-8")
    # Repo-root copy, committed so the perf trajectory is reviewable
    # across PRs without digging through CI artifacts.
    (REPO_ROOT / "BENCH_perf.json").write_text(payload, encoding="utf-8")

    print(f"== engine throughput on {report['workload']} ==")
    for scheme, row in report["schemes"].items():
        print(
            f"{scheme:7s} scalar {row['scalar_accesses_per_s']:>10,}/s   "
            f"batched {row['batched_accesses_per_s']:>10,}/s   "
            f"speedup {row['speedup_vs_scalar']:5.1f}x"
        )
    if "fig8_mini_sweep_s" in report:
        print(f"fig8 mini-sweep: {report['fig8_mini_sweep_s']} s")
    cache_row = report["sweep_cache"]
    print(
        f"sweep cache: cold {cache_row['cold_s']} s -> warm "
        f"{cache_row['warm_s']} s ({cache_row['speedup']}x, "
        f"{cache_row['n_cells']} cells, identical="
        f"{cache_row['warm_results_identical']})"
    )
    trace = report["trace_sweep"]
    print(
        f"trace sweep ({trace['n_cells']} cells over "
        f"{trace['unique_streams']} stream(s)): store-off "
        f"{trace['store_off_s']} s, cold-store {trace['store_cold_s']} s "
        f"({trace['cold_speedup_vs_off']}x), warm-store "
        f"{trace['store_warm_s']} s ({trace['warm_speedup_vs_off']}x), "
        f"identical={trace['results_identical']}"
    )
    pool = report["sweep_pool"]
    print(
        f"sweep pool ({pool['n_cells']} cells, {pool['workers']} workers): "
        f"cold spawn {pool['cold_spawn_s']} s -> reused "
        f"{pool['reused_s']} s ({pool['reuse_speedup']}x)"
    )
    print(f"wrote {out} (+ repo-root copy)")

    if args.check:
        for scheme, floor in (("drcat", CHECK_MIN_SPEEDUP),
                              ("prcat", CHECK_MIN_PRCAT_SPEEDUP),
                              ("ccache", CHECK_MIN_CCACHE_SPEEDUP)):
            speedup = report["schemes"][scheme]["speedup_vs_scalar"]
            if speedup < floor:
                print(
                    f"FAIL: {scheme} batched speedup {speedup}x is below "
                    f"the {floor}x regression floor"
                )
                return 1
            print(f"check ok: {scheme} batched speedup {speedup}x")
        if not cache_row["warm_results_identical"]:
            print("FAIL: warm cache results differ from cold run")
            return 1
        if cache_row["speedup"] < CHECK_MIN_CACHE_SPEEDUP:
            print(
                f"FAIL: sweep-cache warm speedup {cache_row['speedup']}x "
                f"is below the {CHECK_MIN_CACHE_SPEEDUP}x floor"
            )
            return 1
        print(f"check ok: sweep-cache warm speedup {cache_row['speedup']}x")
        if not trace["results_identical"]:
            print("FAIL: trace-store results differ from store-off run")
            return 1
        if trace["warm_speedup_vs_off"] < CHECK_MIN_TRACE_SPEEDUP:
            print(
                f"FAIL: trace-store warm sweep speedup "
                f"{trace['warm_speedup_vs_off']}x is below the "
                f"{CHECK_MIN_TRACE_SPEEDUP}x floor"
            )
            return 1
        print(
            f"check ok: trace-store warm sweep speedup "
            f"{trace['warm_speedup_vs_off']}x"
        )
        if pool["reuse_speedup"] < CHECK_MIN_POOL_REUSE:
            print(
                f"FAIL: pool reuse speedup {pool['reuse_speedup']}x is "
                f"below the {CHECK_MIN_POOL_REUSE}x floor"
            )
            return 1
        print(f"check ok: pool reuse speedup {pool['reuse_speedup']}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
