"""``repro verify`` — regenerate every figure and gate it on goldens.

Runs the full figure/table bench suite at a named fidelity (one
:class:`~repro.report.config.BenchConfig`: the environment's knobs with
the fidelity's pinned over them, handed to each bench's
``artifacts(config)``), collects the JSON artifacts each bench emits,
and compares them against the checked-in
golden store ``benchmarks/golden/<fidelity>/<name>.json``.  Any
difference beyond the declared tolerance policy renders a per-figure
diff and the command exits nonzero — the self-gating loop CI and local
refactors rely on.

``--update`` rewrites the golden store from the current run instead of
comparing; the resulting files are meant to be reviewed and committed.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

from repro.report.compare import compare_artifacts, render_diff
from repro.report.config import (
    FIDELITIES,
    BenchConfig,
    default_benchmarks_dir,
    fidelity_config,
)
from repro.report.schema import Artifact, SchemaError, dump_artifact, load_artifact

#: Bench modules registered with the verifier, in run order (cheap
#: analytic tables first, the heavy shared fig8/fig9 sweep last so its
#: in-process cache is populated exactly once).  ``bench_perf`` is
#: deliberately absent: wall-clock measurements cannot be golden-gated.
BENCH_MODULES: tuple[str, ...] = (
    "bench_table1_config",
    "bench_table2_hardware",
    "bench_fig1_unsurvivability",
    "bench_fig2_sca_energy",
    "bench_fig3_row_frequency",
    "bench_counter_cache",
    "bench_ablation_presplit",
    "bench_ablation_thresholds",
    "bench_fig10_sweep",
    "bench_fig11_mapping",
    "bench_fig12_thresholds",
    "bench_fig13_attacks",
    "bench_fig8_cmrpo",
    "bench_fig9_eto",
    # Power/energy comparisons derive from the (now warm) fig8 sweep.
    "bench_power_breakdown",
    "bench_energy_savings",
)

#: Exit codes: comparison failures are 1, environment/usage problems 2.
EXIT_OK, EXIT_DIFF, EXIT_USAGE = 0, 1, 2


def default_golden_dir(benchmarks_dir: Path) -> Path:
    """The golden-store root under one benchmarks directory."""
    return benchmarks_dir / "golden"


def collect_artifacts(
    benchmarks_dir: Path, modules: tuple[str, ...], config: BenchConfig
) -> list[tuple[str, list[Artifact]]]:
    """Import each bench module and run its ``artifacts(config)`` entry
    point."""
    bench_path = str(benchmarks_dir)
    inserted = bench_path not in sys.path
    if inserted:
        sys.path.insert(0, bench_path)
    try:
        resolved_dir = benchmarks_dir.resolve()
        # `_common` is the shared helper every bench imports; it must be
        # evicted alongside the bench stems or a re-import would still
        # bind the previous directory's emit()/results path.
        for stem in (*modules, "_common"):
            cached = sys.modules.get(stem)
            if cached is None:
                continue
            cached_file = getattr(cached, "__file__", None)
            if cached_file is None or not Path(
                cached_file
            ).resolve().is_relative_to(resolved_dir):
                # Imported from a different directory earlier in this
                # process; drop it so this run executes *this*
                # directory's code.
                del sys.modules[stem]
        out = []
        for stem in modules:
            module = importlib.import_module(stem)
            if not hasattr(module, "artifacts"):
                raise SchemaError(
                    f"bench module {stem} has no artifacts() entry point"
                )
            out.append((stem, list(module.artifacts(config))))
        return out
    finally:
        if inserted and bench_path in sys.path:
            sys.path.remove(bench_path)


def run_verify(
    fidelity: str = "ci",
    engine: str | None = None,
    update: bool = False,
    figures: list[str] | None = None,
    golden_dir: str | Path | None = None,
    benchmarks_dir: str | Path | None = None,
    list_only: bool = False,
    session: str | None = None,
    out=None,
) -> int:
    """Drive one verify run; returns the process exit code.

    ``session`` selects how every simulated cell's session is driven
    (``direct`` / ``checkpoint``); ``checkpoint`` gates the
    snapshot/restore equivalence guarantee against the *unmodified*
    golden store.
    """
    say = (out or sys.stdout).write

    if fidelity not in FIDELITIES:
        say(f"error: unknown fidelity {fidelity!r} "
            f"(choose from {', '.join(FIDELITIES)})\n")
        return EXIT_USAGE

    modules = BENCH_MODULES
    if figures:
        unknown = [f for f in figures if f not in BENCH_MODULES]
        if unknown:
            say(f"error: unknown figure module(s): {', '.join(unknown)}\n"
                f"registered: {', '.join(BENCH_MODULES)}\n")
            return EXIT_USAGE
        modules = tuple(f for f in BENCH_MODULES if f in figures)

    if list_only:
        for stem in modules:
            say(stem + "\n")
        return EXIT_OK

    bench_dir = Path(benchmarks_dir) if benchmarks_dir else \
        default_benchmarks_dir()
    if bench_dir is None or not bench_dir.is_dir():
        say("error: cannot locate the benchmarks/ directory "
            "(pass --benchmarks-dir)\n")
        return EXIT_USAGE
    store = Path(golden_dir) if golden_dir else default_golden_dir(bench_dir)
    store = store / fidelity

    config = fidelity_config(fidelity, engine, session)
    t0 = time.perf_counter()
    collected = collect_artifacts(bench_dir, modules, config)
    elapsed = time.perf_counter() - t0
    artifacts = [a for _, arts in collected for a in arts]

    # Orphan detection only makes sense when the whole registry ran; a
    # --figures subset legitimately leaves the other goldens untouched.
    full_run = modules == BENCH_MODULES
    produced = {artifact.name for artifact in artifacts}

    if update:
        for artifact in artifacts:
            dump_artifact(artifact, store / f"{artifact.name}.json")
        pruned = []
        if full_run and store.is_dir():
            for path in sorted(store.glob("*.json")):
                if path.stem not in produced:
                    path.unlink()
                    pruned.append(path.name)
        say(f"\nupdated {len(artifacts)} golden artifact(s) in {store} "
            f"({elapsed:.1f}s)\n")
        if pruned:
            say(f"pruned {len(pruned)} stale golden(s): "
                f"{', '.join(pruned)}\n")
        return EXIT_OK

    context = config.context
    failures = 0
    say(f"\n== repro verify — fidelity={fidelity} "
        f"engine={config.engine} "
        f"session={context.session} "
        f"trace-store={'on' if context.trace_store else 'off'} "
        f"faults={context.faults or 'off'} ==\n")
    for stem, arts in collected:
        for artifact in arts:
            golden_path = store / f"{artifact.name}.json"
            if not golden_path.is_file():
                failures += 1
                say(f"FAIL {artifact.name} — no golden at {golden_path} "
                    "(run `repro verify --update` and commit)\n")
                continue
            try:
                golden = load_artifact(golden_path)
            except SchemaError as exc:
                failures += 1
                say(f"FAIL {artifact.name} — unreadable golden: {exc}\n")
                continue
            diff = compare_artifacts(golden, artifact)
            say(render_diff(diff) + "\n")
            if not diff.ok:
                failures += 1
                # Name the files on both sides so a failure is directly
                # actionable (diff them, or review + re-bless).
                actual_path = bench_dir / "results" / f"{artifact.name}.json"
                say(f"  golden: {golden_path}\n"
                    f"  actual: {actual_path}\n")
    orphans = 0
    if full_run and store.is_dir():
        for path in sorted(store.glob("*.json")):
            if path.stem not in produced:
                orphans += 1
                say(f"FAIL {path.stem} — orphaned golden: no bench emits "
                    "this artifact any more (re-run `repro verify "
                    "--update` to prune, and review the coverage loss)\n")
    total = len(artifacts)
    if failures or orphans:
        parts = []
        if failures:
            parts.append(f"{failures} of {total} checked artifact(s) differ")
        if orphans:
            parts.append(f"{orphans} orphaned golden(s)")
        say(f"\nverify FAILED: {' and '.join(parts)} in {store} "
            f"({elapsed:.1f}s)\n")
        return EXIT_DIFF
    say(f"\nverify ok: {total} artifact(s) match {store} "
        f"({elapsed:.1f}s)\n")
    return EXIT_OK
