"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload benign_sweep --seed 0 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that times calls into each
layer and reports the per-layer metrics, with the end-to-end metric and
workload each one should move.  Every run checks its outputs (the sweep
cells against the ``scalar`` oracle, served results against in-process
``run_spec``) outside the timed region and counts each mismatch as a
failed operation.  The last line of standard output is the JSON result.

The simulator is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits with status 2 and prints no result.
See ``perfbench/README.md`` for the workloads, metrics and baselines.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("attack_tree", "benign_sweep", "serve_runs")

#: Fresh-interpreter set-ups per sweep run; their median is ``setup_s``.
#: They are spread between the passes, so that one burst of host noise
#: cannot slow all of them.
SETUP_PROBES = 7

#: Where runs keep their scratch directories and the last span dumps.
OUT_DIR = ROOT / ".perfbench"

#: (name, unit) of every end-to-end metric, printed with tracing off.
END_TO_END = (
    ("accesses_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
)

#: (name, unit, end-to-end metric it should move, workload it moves on,
#: workload where its layer does ~no work) of every per-layer metric.
#: Times and counts are per operation (a grid cell or a served job).
PER_LAYER = (
    ("core.drcat.batch_s", "s/op", "accesses_per_s,op_p90_ms",
     "attack_tree,benign_sweep", "serve_runs"),
    ("core.prcat.batch_s", "s/op", "accesses_per_s,op_p90_ms",
     "attack_tree,benign_sweep", "serve_runs"),
    ("core.drcat.replays", "count/op", "accesses_per_s,op_p90_ms",
     "attack_tree,benign_sweep", "serve_runs"),
    ("core.prcat.replays", "count/op", "accesses_per_s,op_p90_ms",
     "attack_tree,benign_sweep", "serve_runs"),
    ("core.drcat.replay_useful_ratio", "ratio", "accesses_per_s,op_p90_ms",
     "attack_tree,benign_sweep", "serve_runs"),
    ("core.prcat.replay_useful_ratio", "ratio", "accesses_per_s,op_p90_ms",
     "attack_tree,benign_sweep", "serve_runs"),
    ("core.tree.bulk_s", "s/op", "accesses_per_s", "attack_tree",
     "serve_runs"),
    ("core.tree.bulk_calls", "count/op", "accesses_per_s", "attack_tree",
     "serve_runs"),
    ("core.tree.map_s", "s/op", "accesses_per_s", "attack_tree",
     "serve_runs"),
    ("core.sca.batch_s", "s/op", "op_p50_ms", "serve_runs", "attack_tree"),
    ("core.pra.batch_s", "s/op", "op_p50_ms", "serve_runs", "attack_tree"),
    ("core.ccache.batch_s", "s/op", "op_p50_ms", "serve_runs",
     "attack_tree"),
    ("dram.drain_s", "s/op", "accesses_per_s", "benign_sweep",
     "attack_tree"),
    ("dram.drain_calls", "count/op", "accesses_per_s", "benign_sweep",
     "attack_tree"),
    ("dram.refresh_s", "s/op", "accesses_per_s", "benign_sweep",
     "attack_tree"),
    ("dram.refresh_cmds", "count/op", "accesses_per_s", "benign_sweep",
     "attack_tree"),
    ("engine.advance_s", "s/op", "accesses_per_s", "all", "none"),
    ("engine.self_s", "s/op", "accesses_per_s", "all", "none"),
    ("workloads.gen_s", "s/op", "accesses_per_s", "benign_sweep",
     "attack_tree"),
    ("workloads.gen_calls", "count/op", "accesses_per_s", "benign_sweep",
     "attack_tree"),
    ("tracestore.get_s", "s/op", "accesses_per_s", "benign_sweep",
     "attack_tree"),
    ("tracestore.put_s", "s/op", "accesses_per_s", "benign_sweep",
     "attack_tree"),
    ("tracestore.hit_ratio", "ratio", "accesses_per_s", "benign_sweep",
     "attack_tree"),
    ("experiments.cell_s", "s/op", "op_p50_ms", "serve_runs", "none"),
    ("experiments.cache_get_s", "s/op", "op_p50_ms", "serve_runs", "none"),
    ("experiments.cache_put_s", "s/op", "op_p50_ms", "serve_runs", "none"),
    ("experiments.cache_hit_ratio", "ratio", "op_p50_ms", "serve_runs",
     "none"),
    ("locking.wait_s", "s/op", "op_p50_ms", "serve_runs", "none"),
    ("locking.contended", "count/op", "op_p50_ms", "serve_runs", "none"),
    ("server.queue_ms", "ms", "op_p50_ms,op_p90_ms,jobs_per_s",
     "serve_runs", "attack_tree,benign_sweep"),
    ("server.exec_ms", "ms", "op_p50_ms,op_p90_ms,jobs_per_s",
     "serve_runs", "attack_tree,benign_sweep"),
    ("server.overhead_ms", "ms", "op_p50_ms,op_p90_ms,jobs_per_s",
     "serve_runs", "attack_tree,benign_sweep"),
    ("server.cached_ratio", "ratio", "op_p50_ms,op_p90_ms,jobs_per_s",
     "serve_runs", "attack_tree,benign_sweep"),
    ("server.journal_writes", "count/op", "op_p50_ms,op_p90_ms,jobs_per_s",
     "serve_runs", "attack_tree,benign_sweep"),
    ("server.journal_append_s", "s/op", "op_p50_ms,op_p90_ms,jobs_per_s",
     "serve_runs", "attack_tree,benign_sweep"),
    ("server.checkpoint_s", "s/op", "op_p50_ms,op_p90_ms,jobs_per_s",
     "serve_runs", "attack_tree,benign_sweep"),
    ("trace.overhead_ratio", "ratio", "-", "all", "none"),
)


def _isolate_environment() -> None:
    """Drop every ``REPRO_*`` setting the caller had, then pin the
    execution path: direct session mode, trace store on, no faults."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_SESSION_MODE"] = "direct"
    os.environ["REPRO_TRACE_STORE"] = "1"
    os.environ["PYTHONPATH"] = str(ROOT / "src")


def _build_plan(workload: str, seed: int):
    import grids

    return grids.WORKLOADS_BY_NAME[workload](seed)


def _setup_probe(workload: str, seed: int) -> int:
    """Body of one ``--setup-probe`` interpreter: import and plan."""
    import repro.sim.simulator  # noqa: F401 - the stack every cell runs

    _build_plan(workload, seed)
    return 0


def _setup_probe_s(workload: str, seed: int) -> float:
    """Wall time of one fresh interpreter importing and planning."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, check=True,
    )
    return time.perf_counter() - start


def _per_op(layers: dict, ops: int, name: str, field: str = "total_s"):
    return layers.get(name, {}).get(field, 0) / ops


def _ratio(layers: dict, name: str) -> float:
    entry = layers.get(name)
    if not entry or not entry["calls"]:
        return 0.0
    return entry["info"] / entry["calls"]


def layer_values(layers: dict, ops: int, contended: int, server: dict,
                 overhead: float) -> dict:
    """Per-layer metric values from span summaries over ``ops`` ops."""
    def total(name):
        return _per_op(layers, ops, name)

    def calls(name):
        return _per_op(layers, ops, name, "calls")

    return {
        "core.drcat.batch_s": total("core.drcat.batch"),
        "core.prcat.batch_s": total("core.prcat.batch"),
        "core.drcat.replays": calls("core.drcat.replay"),
        "core.prcat.replays": calls("core.prcat.replay"),
        "core.drcat.replay_useful_ratio": _ratio(layers, "core.drcat.replay"),
        "core.prcat.replay_useful_ratio": _ratio(layers, "core.prcat.replay"),
        "core.tree.bulk_s": total("core.tree.bulk"),
        "core.tree.bulk_calls": calls("core.tree.bulk"),
        "core.tree.map_s": total("core.tree.map"),
        "core.sca.batch_s": total("core.sca.batch"),
        "core.pra.batch_s": total("core.pra.batch"),
        "core.ccache.batch_s": total("core.ccache.batch"),
        "dram.drain_s": total("dram.drain"),
        "dram.drain_calls": calls("dram.drain"),
        "dram.refresh_s": total("dram.refresh"),
        "dram.refresh_cmds": calls("dram.refresh"),
        "engine.advance_s": total("engine.advance"),
        "engine.self_s": _per_op(layers, ops, "engine.advance", "self_s"),
        "workloads.gen_s": total("workloads.gen"),
        "workloads.gen_calls": calls("workloads.gen"),
        "tracestore.get_s": total("tracestore.get"),
        "tracestore.put_s": total("tracestore.put"),
        "tracestore.hit_ratio": _ratio(layers, "tracestore.get"),
        "experiments.cell_s": total("experiments.cell"),
        "experiments.cache_get_s": total("experiments.cache_get"),
        "experiments.cache_put_s": total("experiments.cache_put"),
        "experiments.cache_hit_ratio": _ratio(layers,
                                              "experiments.cache_get"),
        "locking.wait_s": total("locking.wait"),
        "locking.contended": contended / ops,
        "server.queue_ms": server.get("queue_ms", 0.0),
        "server.exec_ms": server.get("exec_ms", 0.0),
        "server.overhead_ms": server.get("overhead_ms", 0.0),
        "server.cached_ratio": server.get("cached_ratio", 0.0),
        "server.journal_writes": calls("server.journal_append"),
        "server.journal_append_s": total("server.journal_append"),
        "server.checkpoint_s": total("server.checkpoint"),
        "trace.overhead_ratio": overhead,
    }


def _dump_recorders(recorders, path: Path) -> None:
    merged = spans.Recorder()
    for recorder in recorders:
        merged.spans.extend(recorder.spans)
    merged.dump(path)


def run_sweep(workload: str, seed: int, seconds: float, traced: bool,
              work: Path) -> dict:
    """attack_tree / benign_sweep: set-up probes, timed passes, checks."""
    import sweeps

    setups: list[float] = []

    def probe() -> None:
        if len(setups) < SETUP_PROBES:
            setups.append(_setup_probe_s(workload, seed))

    specs = _build_plan(workload, seed)
    data = sweeps.measure(specs, seconds, work, traced,
                          between=None if traced else probe)
    if traced:
        _dump_recorders(data["recorders"],
                        OUT_DIR / "spans" / f"{workload}.jsonl")
        data["layer_values"] = layer_values(
            data["layers"], data["layer_ops"], data["lock_contended"], {},
            data["overhead_ratio"])
    else:
        while len(setups) < SETUP_PROBES:
            probe()
        data["end_to_end"]["setup_s"] = statistics.median(setups)
    return data


def run_serve(seed: int, seconds: float, traced: bool, work: Path) -> dict:
    """serve_runs: rounds on fresh servers, launch timings, checks."""
    import passes
    import serve

    names = (f"server-{k}" for k in itertools.count())
    spans_outs: list[Path] = []

    def one_round(this_traced: bool):
        name = next(names)
        out = None
        if this_traced:
            out = OUT_DIR / "spans" / f"serve_runs-{name}.json"
            spans_outs.append(out)
        return serve.play_round(ROOT, work, name, seed, out)

    rounds = passes.repeat(seconds, traced, one_round)
    records = [r for run in rounds for r in run[2]["records"]]
    data = serve.score(rounds, serve.reference(records, work))
    if not traced:
        setups = [run[2]["setup_s"] for run in rounds]
        while len(setups) < serve.LAUNCHES:
            server = serve.Server(ROOT, work, next(names))
            server.stop()
            setups.append(server.setup_s)
        data["end_to_end"]["setup_s"] = statistics.median(setups)
        return data
    traced_rounds = [run for run in rounds if run[0]]
    docs = [json.loads(out.read_text(encoding="utf-8")) for out in spans_outs]
    ops = sum(serve.JOBS_PER_ROUND + run[2]["warm"] for run in traced_rounds)
    data["layer_values"] = layer_values(
        spans.merge_summaries(*(doc["summary"] for doc in docs)), ops,
        sum(doc["locks"]["contended"] for doc in docs),
        serve.server_stats(
            [r for run in traced_rounds for r in run[2]["records"]]),
        sum(run[1] for run in traced_rounds)
        / sum(run[1] for run in rounds if not run[0]) - 1.0,
    )
    return data


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}; run "
              "from a full checkout", file=sys.stderr)
        return 2
    _isolate_environment()
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return _setup_probe(args.workload, args.seed)

    (OUT_DIR / "spans").mkdir(parents=True, exist_ok=True)
    for stale in (OUT_DIR / "spans").glob(f"{args.workload}*"):
        stale.unlink()
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    # Anything that still falls back to a default store lands here, not
    # in the repository's own benchmarks/results.
    os.environ["REPRO_BENCH_CACHE_DIR"] = str(work / "default-cache")
    try:
        if args.workload == "serve_runs":
            data = run_serve(args.seed, args.seconds, bool(args.trace), work)
        else:
            data = run_sweep(args.workload, args.seed, args.seconds,
                             bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = data["attempted"], data["failed"]
    e2e = data["end_to_end"]
    e2e["ok_ratio"] = 1.0 - failed / attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"operations {attempted}  failed {failed}  "
          f"failed_ratio {failed / attempted:.6f}  "
          f"perturbation caught {data['self_check']}")
    if args.trace:
        values = data["layer_values"]
        metrics = {}
        print(f"{'metric':34} {'value':>14} {'unit':9} moves -> on "
              f"(~no work on)")
        for name, unit, moves, on, idle in PER_LAYER:
            value = values[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:34} {value:14.6g} {unit:9} {moves} -> {on} "
                  f"({idle})")
    else:
        metrics = {}
        for name, unit in END_TO_END:
            metrics[name] = {"value": e2e[name], "unit": unit}
            print(f"{name:16} {e2e[name]:14.6g} {unit}")
        print(f"op latency samples: {e2e['op_samples']}")
    correct = failed == 0 and bool(data["self_check"])
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
