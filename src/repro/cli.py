"""Command-line interface: run paper experiments from a shell.

Subcommands::

    python -m repro run --workload black --scheme drcat [--threshold 32768]
    python -m repro run --spec experiment.json [--stream]
    python -m repro run --stream --snapshot-at NS --snapshot-to snap.json
    python -m repro resume snap.json [--stream] [--json]
    python -m repro compare --workload face [--threshold 16384]
    python -m repro attack --kernel kernel03 --mode heavy --scheme sca
    python -m repro sweep --workers 8 [--workloads mum libq]
    python -m repro plan --spec plan.json [--run] [--workers 8]
    python -m repro plan --example
    python -m repro list {workloads,schemes,attacks}
    python -m repro verify [--fidelity ci|smoke|full] [--session checkpoint]
    python -m repro figures [--html] [--golden-overlay] [--from DIR] [--out DIR]
    python -m repro cache stats|clear [--results] [--traces]
    python -m repro workloads
    python -m repro hardware [--counters 64]

``run --stream`` drives the experiment through the streaming session
API (:mod:`repro.api`) and prints one metrics line per simulated 64 ms
epoch; ``--snapshot-at NS --snapshot-to FILE`` checkpoints the run
mid-stream into a JSON snapshot that ``repro resume FILE`` finishes
bit-identically (on this or any other machine).  Every run is a
session; ``verify --session checkpoint`` re-runs the whole golden-figure
gate with every cell snapshotted at half horizon, JSON-round-tripped and
resumed, to prove a resumed run equals an uninterrupted one.

Every flag-driven subcommand builds a declarative
:class:`~repro.experiments.ExperimentSpec` internally; ``run --spec``
and ``plan --spec`` consume the same JSON forms directly (``plan
--example`` prints a starter document).  All simulation knobs (scale,
banks, intervals, engine) are exposed as flags; the defaults match the
benchmark harness.  ``--engine scalar`` selects the per-event reference
loop; the default batched engine is bit-identical and ~an order of
magnitude faster.  ``run``, ``compare``, ``sweep`` and ``plan`` accept
``--json`` for machine-readable results.  ``verify`` regenerates every
figure/table artifact and gates it against the golden store (see
:mod:`repro.report.verify`).
"""

from __future__ import annotations

import argparse
import json

from repro import __version__
from repro.core.registry import get_scheme_info, params_to_dict, scheme_names
from repro.energy.hardware_model import TABLE2_M, pra_hardware, scheme_hardware
from repro.experiments import (
    ExperimentSpec,
    Plan,
    SchemeSpec,
    load_plan,
    load_spec,
    run_plan,
    run_spec,
)
from repro.report.config import FIDELITIES, SESSION_MODES, RunContext
from repro.report.verify import run_verify
from repro.sim.engine import ENGINES
from repro.sim.metrics import format_table
from repro.workloads.attacks import ATTACK_KERNELS, ATTACK_MODES
from repro.workloads.suites import (
    WORKLOAD_ALIASES,
    WORKLOAD_ORDER,
    get_workload,
)

#: Scheme choices the flag-driven subcommands accept — driven by the
#: registry, so a newly registered scheme is accepted automatically.
SCHEME_CHOICES = sorted(scheme_names())


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threshold", type=int, default=32768,
                        help="refresh threshold T (default 32768)")
    parser.add_argument("--counters", type=int, default=64,
                        help="counters per bank M (default 64)")
    parser.add_argument("--levels", type=int, default=11,
                        help="max CAT depth L (default 11)")
    parser.add_argument("--pra-p", type=float, default=0.002,
                        help="PRA refresh probability (default 0.002)")
    parser.add_argument("--scale", type=float, default=24.0,
                        help="simulation scale divisor (default 24)")
    parser.add_argument("--banks", type=int, default=1,
                        help="banks simulated (default 1)")
    parser.add_argument("--intervals", type=int, default=2,
                        help="refresh intervals simulated (default 2)")
    parser.add_argument("--engine", choices=list(ENGINES), default="batched",
                        help="simulation engine (default batched; both "
                             "engines are event-exact and bit-identical)")
    parser.add_argument("--json", action="store_true",
                        help="print full machine-readable results "
                             "(SimulationResult serialization) instead of "
                             "the text table")


def _scheme_spec(scheme: str, args: argparse.Namespace,
                 label: str | None = None) -> SchemeSpec:
    """The typed SchemeSpec the flags describe for ``scheme``."""
    return SchemeSpec.from_legacy(
        scheme,
        counters=args.counters,
        max_levels=args.levels,
        pra_probability=args.pra_p,
        label=label,
    )


def _spec_from_args(args: argparse.Namespace, scheme: str,
                    workload: str, **extra) -> ExperimentSpec:
    return ExperimentSpec(
        scheme=_scheme_spec(scheme, args),
        workload=workload,
        refresh_threshold=args.threshold,
        scale=args.scale,
        n_banks=args.banks,
        n_intervals=args.intervals,
        engine=args.engine,
        **extra,
    )


def _result_row(label: str, result) -> dict:
    return {
        "scheme": label,
        "CMRPO %": 100 * result.cmrpo,
        "ETO %": 100 * result.eto,
        "rows/interval": result.totals.rows_refreshed_per_bank_interval,
    }


def _print_result(args: argparse.Namespace, label: str, result,
                  spec=None) -> int:
    if args.json:
        doc = result.to_dict()
        if spec is not None:
            doc["spec"] = spec.to_dict()
        print(json.dumps(doc, indent=2))
        return 0
    print(format_table([_result_row(label, result)],
                       ["scheme", "CMRPO %", "ETO %", "rows/interval"]))
    return 0


def _add_robust_flags(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerance flags shared by ``sweep`` and ``plan --run``."""
    parser.add_argument("--max-retries", type=int, default=2,
                        help="extra attempts per retryably-failing cell "
                             "(default 2; 0 disables retries)")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="S",
                        help="wall-clock budget per cell in seconds; a "
                             "hung chunk fails retryably and its workers "
                             "are terminated (default: no timeout)")
    parser.add_argument("--keep-going", action="store_true",
                        help="finish every cell even if some fail "
                             "permanently; failed cells are reported in "
                             "a summary table and the exit code is "
                             "nonzero iff any cell permanently failed")
    parser.add_argument("--report", default=None, metavar="FILE",
                        help="write the SweepReport JSON (per-cell "
                             "status, attempts, timings, failures) to "
                             "FILE")


def _run_plan_cli(plan, args):
    """Execute a plan under the CLI's robustness flags.

    Returns ``(results, report, exit_code)``: ``results`` aligns with
    ``plan.specs`` (None for failed cells); ``report`` is None only on
    the plain fast path (no ``--keep-going``/``--report``, no failure).
    """
    from repro.errors import CellExecutionError
    from repro.experiments import SweepReport

    want_report = args.keep_going or bool(args.report)
    try:
        out = run_plan(
            plan,
            workers=args.workers,
            cache=args.cache_dir or None,
            keep_going=want_report,
            max_retries=args.max_retries,
            cell_timeout=args.cell_timeout,
            ctx=args.ctx,
        )
    except CellExecutionError as exc:
        results = (exc.report.results if exc.report is not None
                   else [None] * len(plan.specs))
        return results, exc.report, 1
    if isinstance(out, SweepReport):
        return out.results, out, (0 if out.ok else 1)
    return out, None, 0


def _finish_report(args, report) -> None:
    """Failed-cell summary table + optional ``--report`` JSON file."""
    if report is None:
        return
    rows = report.failure_rows()
    if rows and not args.json:
        print("\nfailed cells:")
        print(format_table(
            rows, ["cell", "label", "attempts", "error", "message"]
        ))
    if args.report:
        from pathlib import Path

        Path(args.report).write_text(
            json.dumps(report.to_dict(), indent=1) + "\n",
            encoding="utf-8",
        )
        if not args.json:
            print(f"sweep report -> {args.report}")


def _stream_taps(session) -> None:
    """Wire the ``--stream`` per-epoch progress printer onto a session."""
    @session.on_epoch
    def _print_epoch(event) -> None:
        d = event.delta
        print(f"epoch {event.epoch:>3}  t={event.time_ns / 1e6:9.3f} ms  "
              f"accesses={d.accesses:>8}  refreshes={d.refresh_commands:>6}  "
              f"rows={d.rows_refreshed:>8}  eto={100 * d.eto:8.4f}%")


def _run_streaming(args: argparse.Namespace, spec, label: str) -> int:
    """``repro run --stream`` / ``--snapshot-at``: session-driven run."""
    from repro.api import Session

    session = Session(spec, args.ctx)
    if args.stream:
        _stream_taps(session)
    if args.snapshot_at is not None:
        if not args.snapshot_to:
            print("error: --snapshot-at needs --snapshot-to FILE")
            return 2
        session.advance(args.snapshot_at)
        path = session.save(args.snapshot_to)
        print(f"snapshot at {session.position_ns:.1f} ns "
              f"({session.accesses_served} accesses served) -> {path}")
        print("finish it with: repro resume " + str(path))
        return 0
    if args.snapshot_to:
        if not spec.checkpoint_every:
            print("error: --snapshot-to needs --snapshot-at NS (or a spec "
                  "with checkpoint_every set)")
            return 2
        # Spec-declared checkpoint cadence: auto-snapshot every k epochs.
        every, sink = spec.checkpoint_every, args.snapshot_to

        @session.on_epoch
        def _autosnap(event) -> None:
            if event.epoch % every == 0 and event.epoch < spec.n_intervals:
                session.save(f"{sink}.epoch{event.epoch}")

    return _print_result(args, label, session.result(), spec)


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: one experiment — from flags or a spec file."""
    if args.spec:
        spec = load_spec(args.spec)
        label = f"{spec.scheme.display_label}"
    else:
        spec = _spec_from_args(args, args.scheme, args.workload)
        label = args.scheme
    if args.stream or args.snapshot_at is not None or args.snapshot_to:
        return _run_streaming(args, spec, label)
    result = run_spec(spec, args.ctx)
    return _print_result(args, label, result, spec)


def cmd_resume(args: argparse.Namespace) -> int:
    """``repro resume``: finish a checkpointed session snapshot."""
    from repro.api import Session, SessionError

    try:
        session = Session.load(args.snapshot, args.ctx)
    except (SessionError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}")
        return 2
    if args.stream:
        _stream_taps(session)
    print(f"resumed at {session.position_ns:.1f} ns "
          f"({session.accesses_served} accesses already served)")
    label = session.spec.scheme.display_label
    return _print_result(args, label, session.result(), session.spec)


def cmd_compare(args: argparse.Namespace) -> int:
    """``repro compare``: all four schemes on one workload."""
    rows = []
    results = {}
    for scheme in ("pra", "sca", "prcat", "drcat"):
        result = run_spec(_spec_from_args(args, scheme, args.workload),
                          args.ctx)
        results[scheme] = result
        rows.append(_result_row(scheme, result))
    if args.json:
        print(json.dumps({s: r.to_dict() for s, r in results.items()},
                         indent=2))
        return 0
    print(f"workload={args.workload}  T={args.threshold}  M={args.counters}")
    print(format_table(rows, ["scheme", "CMRPO %", "ETO %", "rows/interval"]))
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    """``repro attack``: one kernel-attack experiment."""
    spec = _spec_from_args(
        args, args.scheme, args.benign,
        kind="attack", attack_kernel=args.kernel, attack_mode=args.mode,
    )
    result = run_spec(spec, args.ctx)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(format_table([_result_row(f"{args.scheme} vs {args.kernel}", result)],
                       ["scheme", "CMRPO %", "ETO %", "rows/interval"]))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep``: (workload x scheme) grid, optionally parallel."""
    workloads = args.workloads or list(WORKLOAD_ORDER)
    if not args.schemes:
        # nargs="*" permits an empty list; an empty grid is an empty
        # table, matching the historical behaviour.
        print(format_table([], ["scheme", "CMRPO %", "ETO %",
                                "rows/interval"]))
        return 0
    base = _spec_from_args(args, args.schemes[0], workloads[0])
    plan = Plan.grid(
        base,
        workload=workloads,
        scheme=[_scheme_spec(s, args) for s in args.schemes],
    )
    cells, report, code = _run_plan_cli(plan, args)
    results = dict(zip(plan.keys(), cells))
    if args.json:
        _finish_report(args, report)
        print(json.dumps(
            {f"{workload}/{scheme}":
                 (result.to_dict() if result is not None else None)
             for (workload, scheme), result in results.items()},
            indent=2,
        ))
        return code
    rows = [
        _result_row(f"{workload}/{scheme}", result)
        for (workload, scheme), result in results.items()
        if result is not None
    ]
    print(format_table(rows, ["scheme", "CMRPO %", "ETO %", "rows/interval"]))
    _finish_report(args, report)
    return code


EXAMPLE_PLAN = {
    "kind": "repro-experiment-plan",
    "plan_version": 1,
    "base": {
        "scheme": {"kind": "drcat",
                   "params": {"n_counters": 64, "max_levels": 11},
                   "label": None},
        "workload": "black",
        "refresh_threshold": 32768,
        "scale": 96.0,
        "n_banks": 1,
        "n_intervals": 1,
        "engine": "batched",
    },
    "axes": [
        ["workload", ["black", "libq"]],
        ["scheme", [
            {"kind": "sca", "params": {"n_counters": 128},
             "label": "SCA_128"},
            {"kind": "drcat", "params": {"n_counters": 64},
             "label": "DRCAT_64"},
        ]],
    ],
}


def cmd_plan(args: argparse.Namespace) -> int:
    """``repro plan``: expand (and optionally run) a plan document."""
    if args.example:
        print(json.dumps(EXAMPLE_PLAN, indent=2))
        return 0
    if not args.spec:
        print("error: pass --spec plan.json (or --example for a template)")
        return 2
    plan = load_plan(args.spec)
    if args.run:
        results, report, code = _run_plan_cli(plan, args)
        if args.json:
            _finish_report(args, report)
            print(json.dumps(
                [{"spec": spec.to_dict(),
                  "result": (result.to_dict() if result is not None
                             else None)}
                 for spec, result in zip(plan.specs, results)],
                indent=2,
            ))
            return code
        rows = [
            _result_row(f"{w}/{s}", result)
            for (w, s), result in zip(plan.keys(), results)
            if result is not None
        ]
        print(format_table(rows, ["scheme", "CMRPO %", "ETO %",
                                  "rows/interval"]))
        _finish_report(args, report)
        return code
    if args.json:
        print(json.dumps([spec.to_dict() for spec in plan.specs], indent=2))
        return 0
    rows = []
    for i, spec in enumerate(plan.specs):
        rows.append({
            "cell": i,
            "kind": spec.kind,
            "workload": spec.workload_label,
            "scheme": spec.scheme.display_label,
            "T": spec.refresh_threshold,
            "scale": spec.scale,
            "engine": spec.engine,
            "hash": spec.content_hash(),
        })
    print(f"plan: {len(plan)} cell(s), hash {plan.content_hash()}")
    print(format_table(rows, ["cell", "kind", "workload", "scheme", "T",
                              "scale", "engine", "hash"]))
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    """``repro list``: registry-driven inventories."""
    if args.what == "workloads":
        rows = [
            {"name": name, "suite": get_workload(name).suite,
             "aliases": ",".join(
                 a for a, c in sorted(WORKLOAD_ALIASES.items()) if c == name
             )}
            for name in WORKLOAD_ORDER
        ]
        print(format_table(rows, ["name", "suite", "aliases"]))
        return 0
    if args.what == "engines":
        descriptions = {
            "scalar": "per-event reference loop (the oracle)",
            "batched": "one compiled call per bank segment, bit-identical",
        }
        rows = [
            {"engine": name, "description": descriptions[name]}
            for name in ENGINES
        ]
        print(format_table(rows, ["engine", "description"]))
        return 0
    if args.what == "schemes":
        rows = []
        for name in scheme_names():
            info = get_scheme_info(name)
            defaults = params_to_dict(info.default_params())
            rows.append({
                "scheme": name,
                "params": ", ".join(
                    f"{k}={v}" for k, v in defaults.items()) or "(none)",
                "description": info.description,
            })
        print(format_table(rows, ["scheme", "params", "description"]))
        return 0
    rows = [
        {"kernel": k.name, "targets/bank": k.targets_per_bank,
         "center": k.center_fraction, "spread": k.spread_fraction}
        for k in ATTACK_KERNELS
    ]
    print(format_table(rows, ["kernel", "targets/bank", "center", "spread"]))
    print(f"modes: {', '.join(ATTACK_MODES)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """``repro verify``: golden-figure regression gate."""
    return run_verify(
        fidelity=args.fidelity,
        engine=args.engine,
        update=args.update,
        figures=args.figures,
        golden_dir=args.golden_dir,
        benchmarks_dir=args.benchmarks_dir,
        list_only=args.list,
        session=args.session,
    )


def cmd_figures(args: argparse.Namespace) -> int:
    """``repro figures``: render artifact JSON to SVG figures + HTML."""
    from pathlib import Path

    from repro.figures import render_directory
    from repro.report.config import default_benchmarks_dir

    bench_dir = default_benchmarks_dir()
    if args.source:
        results_dir = Path(args.source)
    elif bench_dir is not None:
        results_dir = bench_dir / "results"
    else:
        print("error: no benchmarks/ directory found; pass --from DIR")
        return 2
    if not results_dir.is_dir():
        print(f"error: no such artifact directory: {results_dir}")
        return 2
    out_dir = Path(args.out) if args.out else results_dir / "figures"

    golden_dir = None
    if args.golden_overlay:
        if args.golden_dir:
            golden_dir = Path(args.golden_dir)
        elif bench_dir is not None:
            golden_dir = bench_dir / "golden" / args.fidelity
        else:
            print("error: --golden-overlay needs --golden-dir DIR "
                  "(no benchmarks/ directory found)")
            return 2
        if not golden_dir.is_dir():
            print(f"error: no such golden directory: {golden_dir}")
            return 2

    perf_path = None
    if args.perf:
        perf_path = Path(args.perf)
    elif bench_dir is not None:
        candidate = bench_dir.parent / "BENCH_perf.json"
        if candidate.is_file():
            perf_path = candidate

    report = render_directory(
        results_dir,
        out_dir,
        golden_dir=golden_dir,
        html=args.html,
        only=args.only or None,
        perf_path=perf_path,
        png=args.png,
    )
    for name, reason in report.skipped:
        print(f"skip {name}: {reason}")
    for name, reason in report.errors:
        print(f"ERROR {name}: {reason}")
    diffs = sum(1 for f in report.rendered if f.golden_status == "diff")
    overlay_note = f", {diffs} differ from golden" if golden_dir else ""
    print(f"rendered {len(report.rendered)} figure(s) to {out_dir} "
          f"in {report.elapsed_s:.2f}s{overlay_note}")
    if report.index_path is not None:
        print(f"index -> {report.index_path}")
    if not report.rendered and not report.skipped and not report.errors:
        print(f"error: no figure artifacts found under {results_dir}")
        return 2
    return 0 if report.ok else 1


def cmd_cache(args: argparse.Namespace) -> int:
    """``repro cache``: result, trace and journal store maintenance."""
    from pathlib import Path

    from repro.experiments.cache import ResultCache
    from repro.report.config import store_roots
    from repro.server.journal import JOURNAL_DIR, Journal
    from repro.sim.tracestore import TraceStore

    result_root, trace_root = store_roots(args.cache_dir)
    if args.trace_dir:
        trace_root = Path(args.trace_dir)
    stores = {
        "results": ResultCache(result_root),
        "traces": TraceStore(trace_root),
        "journal": Journal(result_root / JOURNAL_DIR),
    }

    # Each store's stats() also deletes the orphaned *.tmp files that
    # atomic writes interrupted mid-rename (crash, kill -9) left in its
    # own directories, and reports how many.
    if args.action == "clear":
        # A full clear wipes the serve job journal too: with the
        # results gone there is nothing its jobs could recover to
        # without re-simulating anyway.
        chosen = [name for name in ("results", "traces")
                  if getattr(args, name)] or list(stores)
        for name in chosen:
            before = stores[name].stats()
            stores[name].clear()
            if before["tmp_removed"]:
                print(f"{name}: {before['tmp_removed']} orphaned .tmp "
                      "file(s) swept")
            print(f"{name}: {before['entries']} entr(ies) removed from "
                  f"{before['root']}")
        return 0

    stats = {name: store.stats() for name, store in stores.items()}
    tmp_removed = sum(doc["tmp_removed"] for doc in stats.values())
    if args.json:
        print(json.dumps({**stats, "tmp_removed": tmp_removed}, indent=2))
        return 0
    rows = [{"store": name, "entries": doc["entries"],
             "MiB": round(doc["bytes"] / 2**20, 2), "root": doc["root"]}
            for name, doc in stats.items()]
    print(format_table(rows, ["store", "entries", "MiB", "root"]))
    if stats["journal"]["live_jobs"]:
        print(f"note: journal holds {stats['journal']['live_jobs']} "
              "unfinished job(s); the next repro serve on this "
              "--cache-dir will resume them")
    for name in ("results", "traces"):
        if stats[name]["stale_partitions"]:
            print(f"note: {stats[name]['stale_partitions']} stale {name} "
                  f"partition(s) from older code (repro cache clear "
                  f"--{name})")
    if tmp_removed:
        print(f"note: swept {tmp_removed} orphaned .tmp file(s) left by "
              "interrupted atomic writes")
    return 0


def cmd_workloads(_args: argparse.Namespace) -> int:
    """``repro workloads``: list the 18 workload models."""
    rows = []
    for name in WORKLOAD_ORDER:
        spec = get_workload(name)
        rows.append(
            {
                "workload": name,
                "suite": spec.suite,
                "intensity": int(spec.intensity),
                "zipf": spec.zipf_alpha,
                "hot_rows": spec.hot_rows,
                "hot_frac": spec.hot_fraction,
                "phases": spec.phase_count,
            }
        )
    print(format_table(rows, ["workload", "suite", "intensity", "zipf",
                              "hot_rows", "hot_frac", "phases"]))
    return 0


def cmd_hardware(args: argparse.Namespace) -> int:
    """``repro hardware``: print the Table II hardware model."""
    rows = []
    m_values = (args.counters,) if args.counters else TABLE2_M
    for m in m_values:
        for scheme in ("sca", "prcat", "drcat"):
            hw = scheme_hardware(scheme, m, args.threshold)
            rows.append(
                {
                    "scheme": f"{scheme}_{m}",
                    "dyn nJ/access": f"{hw.dynamic_nj_per_access:.2e}",
                    "static nJ/interval": f"{hw.static_nj_per_interval:.2e}",
                    "area mm2": f"{hw.area_mm2:.2e}",
                    "latency ns": hw.latency_ns,
                }
            )
    prng = pra_hardware()
    rows.append(
        {
            "scheme": "pra (PRNG)",
            "dyn nJ/access": f"{prng.energy_per_access_nj:.2e}",
            "static nJ/interval": "-",
            "area mm2": f"{prng.area_mm2:.2e}",
            "latency ns": "-",
        }
    )
    print(format_table(rows, ["scheme", "dyn nJ/access", "static nJ/interval",
                              "area mm2", "latency ns"]))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the experiment layer over HTTP + SSE.

    SIGTERM/SIGINT trigger a graceful drain: new submissions get 503
    while status reads stay live, running jobs checkpoint, and the
    journal flushes — the process exits 0 within ``--drain-deadline``
    either way (a missed deadline hard-exits; the fsync'd journal
    already holds everything a restart needs).
    """
    import asyncio
    import os

    from repro.server import ReproServer, ServerConfig

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        driver_threads=args.driver_threads,
        max_jobs=args.max_jobs,
        job_ttl_s=args.job_ttl,
        checkpoint_epochs=args.checkpoint_epochs,
        drain_deadline_s=args.drain_deadline,
        stall_timeout_s=args.stall_timeout,
        max_queued=args.max_queued,
    )
    server = ReproServer(config)
    clean = True
    try:
        clean = asyncio.run(
            server.serve(announce=True, handle_signals=True)
        )
    except KeyboardInterrupt:
        # Signal handlers need a running loop; a KeyboardInterrupt can
        # still slip in before/after serve() — drain state is on disk.
        print("\nshutting down")
    finally:
        server.close()
    if not clean:
        # Hung driver threads are non-daemon; joining them at
        # interpreter exit would blow the drain deadline.  Everything
        # durable is already flushed — leave without looking back.
        os._exit(0)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CAT rowhammer-mitigation reproduction (ISCA 2018)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one workload with one scheme")
    p_run.add_argument("--workload", default="black", choices=list(WORKLOAD_ORDER))
    p_run.add_argument("--scheme", default="drcat", choices=SCHEME_CHOICES)
    p_run.add_argument("--spec", default=None, metavar="FILE",
                       help="run an ExperimentSpec JSON document instead of "
                            "building one from the flags")
    p_run.add_argument("--stream", action="store_true",
                       help="drive the run through the streaming session "
                            "API and print one metrics line per epoch")
    p_run.add_argument("--snapshot-at", type=float, default=None,
                       metavar="NS",
                       help="advance to the given simulated time (ns), "
                            "write a session snapshot, and stop")
    p_run.add_argument("--snapshot-to", default=None, metavar="FILE",
                       help="snapshot destination for --snapshot-at (or "
                            "the sink prefix for a spec's "
                            "checkpoint_every policy)")
    _add_sim_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_res = sub.add_parser(
        "resume",
        help="finish a checkpointed run from a session snapshot file",
    )
    p_res.add_argument("snapshot", metavar="FILE",
                       help="snapshot written by `repro run --snapshot-at` "
                            "or Session.save()")
    p_res.add_argument("--stream", action="store_true",
                       help="print per-epoch metrics while finishing")
    p_res.add_argument("--json", action="store_true",
                       help="machine-readable result")
    p_res.set_defaults(func=cmd_resume)

    p_cmp = sub.add_parser("compare", help="all schemes on one workload")
    p_cmp.add_argument("--workload", default="black", choices=list(WORKLOAD_ORDER))
    _add_sim_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_atk = sub.add_parser("attack", help="run a kernel attack experiment")
    p_atk.add_argument("--kernel", default="kernel01",
                       choices=[k.name for k in ATTACK_KERNELS])
    p_atk.add_argument("--mode", default="heavy", choices=list(ATTACK_MODES))
    p_atk.add_argument("--scheme", default="drcat", choices=SCHEME_CHOICES)
    p_atk.add_argument("--benign", default="libq", choices=list(WORKLOAD_ORDER))
    _add_sim_flags(p_atk)
    p_atk.set_defaults(func=cmd_attack)

    p_sweep = sub.add_parser("sweep", help="workload x scheme sweep")
    p_sweep.add_argument("--workloads", nargs="*", default=None,
                         choices=list(WORKLOAD_ORDER),
                         help="workloads to sweep (default: all 18)")
    p_sweep.add_argument("--schemes", nargs="*",
                         default=["pra", "sca", "prcat", "drcat"],
                         choices=SCHEME_CHOICES)
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="process-pool width (default 1 = serial)")
    p_sweep.add_argument("--cache-dir", default=None,
                         help="sweep-cell result cache directory "
                              "(default: off for the CLI)")
    _add_sim_flags(p_sweep)
    _add_robust_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_plan = sub.add_parser(
        "plan",
        help="expand a declarative experiment plan (grid) and "
             "optionally run it",
    )
    p_plan.add_argument("--spec", default=None, metavar="FILE",
                        help="plan JSON document (grid or spec list)")
    p_plan.add_argument("--run", action="store_true",
                        help="execute the plan instead of only listing it")
    p_plan.add_argument("--workers", type=int, default=1,
                        help="process-pool width for --run")
    p_plan.add_argument("--cache-dir", default=None,
                        help="sweep-cell result cache directory for --run")
    p_plan.add_argument("--example", action="store_true",
                        help="print an example plan document and exit")
    p_plan.add_argument("--json", action="store_true",
                        help="machine-readable output")
    _add_robust_flags(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_list = sub.add_parser(
        "list",
        help="list registered workloads / schemes / attacks / engines",
    )
    p_list.add_argument("what",
                        choices=["workloads", "schemes", "attacks",
                                 "engines"])
    p_list.set_defaults(func=cmd_list)

    p_ver = sub.add_parser(
        "verify",
        help="regenerate every figure artifact and gate it on the "
             "golden store (exit 1 on any difference)",
    )
    p_ver.add_argument("--fidelity", choices=list(FIDELITIES), default="ci",
                       help="named (scale, intervals, banks) point; the "
                            "golden store is per-fidelity (default ci)")
    p_ver.add_argument("--engine", choices=list(ENGINES), default=None,
                       help="override the engine (default batched; the "
                            "golden store gates both engines because "
                            "they are bit-identical)")
    p_ver.add_argument("--session", choices=list(SESSION_MODES),
                       default=None,
                       help="'checkpoint' snapshots every cell at half "
                            "its horizon, JSON-round-trips the snapshot "
                            "and resumes it (default direct: run "
                            "straight through; both must match the same "
                            "goldens)")
    p_ver.add_argument("--update", action="store_true",
                       help="rewrite the golden store from this run "
                            "instead of comparing")
    p_ver.add_argument("--figures", nargs="*", default=None,
                       help="subset of bench modules (default: all)")
    p_ver.add_argument("--golden-dir", default=None,
                       help="golden store root (default benchmarks/golden)")
    p_ver.add_argument("--benchmarks-dir", default=None,
                       help="bench-suite directory (default: auto-locate)")
    p_ver.add_argument("--list", action="store_true",
                       help="list registered bench modules and exit")
    p_ver.set_defaults(func=cmd_verify)

    p_fig = sub.add_parser(
        "figures",
        help="render figure artifacts (results/*.json) to SVG + an "
             "HTML index with golden overlays",
    )
    p_fig.add_argument("--from", dest="source", default=None, metavar="DIR",
                       help="artifact directory (default benchmarks/results; "
                            "a golden store works too)")
    p_fig.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default <from>/figures)")
    p_fig.add_argument("--html", action="store_true",
                       help="also write index.html (summary table, inline "
                            "SVGs, verdicts, tolerance annotations)")
    p_fig.add_argument("--golden-overlay", action="store_true",
                       help="overlay golden values on each figure and "
                            "attach the verify comparator's verdict")
    p_fig.add_argument("--fidelity", choices=list(FIDELITIES), default="ci",
                       help="golden store fidelity for --golden-overlay "
                            "(default ci)")
    p_fig.add_argument("--golden-dir", default=None, metavar="DIR",
                       help="explicit golden store root (default "
                            "benchmarks/golden/<fidelity>)")
    p_fig.add_argument("--only", nargs="*", default=None, metavar="NAME",
                       help="restrict to the named artifacts")
    p_fig.add_argument("--perf", default=None, metavar="FILE",
                       help="perf report to chart (default: repo-root "
                            "BENCH_perf.json when present)")
    p_fig.add_argument("--png", action="store_true",
                       help="also rasterise PNGs when an SVG converter "
                            "is installed (best-effort; SVG is canonical)")
    p_fig.set_defaults(func=cmd_figures)

    p_cache = sub.add_parser(
        "cache",
        help="inspect or clear the sweep-cell result cache and the "
             "activation-trace store",
    )
    p_cache.add_argument("action", choices=["stats", "clear"])
    p_cache.add_argument("--results", action="store_true",
                         help="clear: only the sweep-cell result store")
    p_cache.add_argument("--traces", action="store_true",
                         help="clear: only the activation-trace store")
    p_cache.add_argument("--cache-dir", default=None,
                         help="result-store root (default: "
                              "REPRO_BENCH_CACHE_DIR or "
                              "benchmarks/results/sweep_cache)")
    p_cache.add_argument("--trace-dir", default=None,
                         help="trace-store root (default: "
                              "REPRO_TRACE_STORE_DIR or "
                              "<result store>/traces)")
    p_cache.add_argument("--json", action="store_true",
                         help="machine-readable stats")
    p_cache.set_defaults(func=cmd_cache)

    p_wl = sub.add_parser("workloads", help="list the 18 workload models")
    p_wl.set_defaults(func=cmd_workloads)

    p_srv = sub.add_parser(
        "serve",
        help="serve the experiment layer over HTTP (runs, plans, SSE)",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8765,
                       help="listen port (0 picks a free one)")
    p_srv.add_argument("--workers", type=int, default=2,
                       help="worker processes: run jobs execute one "
                            "per worker, and plans send chunks of "
                            "cells to the idle ones")
    p_srv.add_argument("--cache-dir", default=None,
                       help="result-cache root shared with repro sweep; "
                            "its journal lets a restart resume jobs "
                            "(default: a private temp dir, removed at "
                            "shutdown)")
    p_srv.add_argument("--driver-threads", type=int, default=4,
                       help="concurrent job-driving threads")
    p_srv.add_argument("--max-jobs", type=int, default=256,
                       help="finished-job table bound before GC")
    p_srv.add_argument("--job-ttl", type=float, default=3600.0,
                       help="seconds a finished job stays queryable")
    p_srv.add_argument("--checkpoint-epochs", type=int, default=2,
                       help="run jobs snapshot a resume point every N "
                            "epochs (0 disables periodic checkpoints)")
    p_srv.add_argument("--drain-deadline", type=float, default=20.0,
                       help="seconds a SIGTERM/SIGINT drain may take to "
                            "checkpoint running work before hard exit")
    p_srv.add_argument("--stall-timeout", type=float, default=120.0,
                       help="seconds a run's worker may send nothing "
                            "before it is replaced and the job requeued")
    p_srv.add_argument("--max-queued", type=int, default=64,
                       help="queued-job bound before submissions get 429")
    p_srv.set_defaults(func=cmd_serve)

    p_hw = sub.add_parser("hardware", help="print Table II hardware model")
    p_hw.add_argument("--counters", type=int, default=0,
                      help="single M value (default: the Table II sweep)")
    p_hw.add_argument("--threshold", type=int, default=32768)
    p_hw.set_defaults(func=cmd_hardware)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    args = build_parser().parse_args(argv)
    # sweep, plan, serve and cache take --cache-dir; the trace store
    # nests under it.
    args.ctx = RunContext.from_env(
        cache_dir=getattr(args, "cache_dir", None))
    return args.func(args)
