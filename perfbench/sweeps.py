"""The figure-grid workloads: ``attack_tree`` and ``benign_sweep``.

One operation is one grid cell, run the way ``repro verify`` runs it:
``run_plan([spec], cache=...)``, a result-cache miss, a simulation on
the batched engine and a cache write.  A pass runs every cell of the
grid serially against a new result cache and an emptied trace store, so
the first cell of each stream generates it and the other cells of that
stream fetch it from the store.  A run makes whole passes until its
time is up.
"""

from __future__ import annotations

import os
import resource
import shutil
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import check
import passes
import spans
from repro.experiments import ResultCache, run_plan
from repro.locking import lock_stats
from repro.sim.tracestore import open_store


def _run_pass(specs, pass_dir: Path):
    """One serial pass: (wall seconds, per-cell seconds, results).

    The trace store is the run's one store (``REPRO_TRACE_STORE_DIR``),
    emptied before the pass; the result cache is new in ``pass_dir``.
    """
    open_store().clear()
    cache = ResultCache(pass_dir / "cache")
    ops, results = [], []
    start = time.perf_counter()
    for spec in specs:
        t0 = time.perf_counter()
        (result,) = run_plan([spec], cache=cache)
        ops.append(time.perf_counter() - t0)
        results.append(result)
    return time.perf_counter() - start, ops, results


def _warm_up(specs, work: Path) -> None:
    """Run one cell of each scheme kind once, untimed (imports, first
    calls), in a directory that is thrown away."""
    firsts = {}
    for spec in specs:
        firsts.setdefault(spec.scheme.kind, spec)
    pass_dir = Path(tempfile.mkdtemp(prefix="warm-", dir=work))
    try:
        _run_pass(list(firsts.values()), pass_dir)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def measure(specs, seconds: float, work: Path, traced: bool,
            between=None) -> dict:
    """Run grid passes for about ``seconds`` (see :func:`passes.repeat`),
    check every result against the scalar oracle, return the raw data."""
    os.environ["REPRO_TRACE_STORE_DIR"] = str(work / "traces")
    _warm_up(specs, work)

    def one_pass(this_traced: bool):
        pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=work))
        tracer = trace = None
        if this_traced:
            recorder = spans.Recorder()
            tracer = spans.install(recorder)
            contended = lock_stats()["contended"]
        try:
            wall, ops, results = _run_pass(specs, pass_dir)
        finally:
            if tracer is not None:
                tracer.uninstall()
            shutil.rmtree(pass_dir, ignore_errors=True)
        if this_traced:
            trace = (recorder, lock_stats()["contended"] - contended)
        return wall, (ops, results, trace)

    runs = passes.repeat(seconds, traced, one_pass, between)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The scalar engine is the repository's bit-identity oracle.
    reference = check.reference_results(
        [replace(s, engine="scalar") for s in specs], work)
    failed = sum(
        check.mismatches([check.result_bytes(r) for r in run[2][1]],
                         reference)
        for run in runs
    )
    cell_ms = [1000.0 * t for t in passes.fastest(runs, lambda p: p[0])]
    grid_s = sum(cell_ms) / 1000.0
    accesses = sum(r.totals.accesses for r in runs[0][2][1])
    plain = [run for run in runs if not run[0]]
    data = {
        "attempted": len(specs) * len(runs),
        "failed": failed,
        "self_check": check.catches_perturbation(runs[0][2][1][0]),
        "end_to_end": {
            "accesses_per_s": accesses / grid_s,
            "jobs_per_s": len(specs) / grid_s,
            "op_p50_ms": passes.quantile(cell_ms, 0.5),
            "op_p90_ms": passes.quantile(cell_ms, 0.9),
            "op_samples": f"{len(specs)} cells x {len(plain)} passes",
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if traced:
        traced_runs = [run for run in runs if run[0]]
        recorders = [run[2][2][0] for run in traced_runs]
        data["layers"] = spans.merge_summaries(
            *(spans.summarize(r.spans) for r in recorders))
        data["layer_ops"] = len(specs) * len(traced_runs)
        data["lock_contended"] = sum(run[2][2][1] for run in traced_runs)
        data["overhead_ratio"] = (sum(run[1] for run in traced_runs)
                                  / sum(run[1] for run in plain) - 1.0)
        data["recorders"] = recorders
    return data
