"""Shared infrastructure for the per-figure benchmark modules.

Every benchmark declares its experiment grid as a
:class:`repro.experiments.Plan` built over :func:`base_spec`, runs it
through :func:`run_bench_plan` (process-pool fan-out plus the on-disk
sweep-cell result cache), and emits its table twice: the paper-style
text form (printed and written to ``benchmarks/results/<name>.txt``)
and a machine-readable JSON artifact (``results/<name>.json``)
following the versioned schema in :mod:`repro.report.schema` — the form
``repro verify`` diffs against the golden store.  Artifacts embed the
producing plan in their additive ``spec`` header.

Every helper takes the bench's :class:`repro.report.config.BenchConfig`:
``repro verify`` builds one per fidelity and hands it to each bench's
``artifacts(config)``; a bench run under pytest reads the environment
with :func:`bench_config`.  The knobs (a malformed value fails with a
message naming the variable):

* ``REPRO_BENCH_SCALE`` — threshold/intensity scale divisor (default 24;
  lower = closer to full scale but slower);
* ``REPRO_BENCH_INTERVALS`` — refresh intervals per run (default 2);
* ``REPRO_BENCH_BANKS`` — banks simulated per run (default 1);
* ``REPRO_BENCH_ENGINE`` — ``batched`` (default) or ``scalar``;
* ``REPRO_BENCH_WORKERS`` — process-pool width for sweeps (default 1;
  0 = one worker per CPU);
* ``REPRO_BENCH_CACHE`` — sweep-cell result cache toggle (default on;
  keyed by spec content hash under a code-fingerprint salt, so any
  source edit invalidates it automatically);
* ``REPRO_BENCH_CACHE_DIR`` — cache location (default
  ``benchmarks/results/sweep_cache``);
* ``REPRO_SESSION_MODE``, ``REPRO_TRACE_STORE`` /
  ``REPRO_TRACE_STORE_DIR`` and ``REPRO_FAULTS`` — the config's
  :class:`~repro.report.config.RunContext`, which every plan runs under
  (the trace store is on by default, under ``<cache dir>/traces``:
  scheme-axis grid cells share one stream generation pass via
  memory-mapped entries, see :mod:`repro.sim.tracestore`).

Configs are hashable, so ``functools.cache`` memoises per config the
sweep several figures share (Figure 8 and Figure 9 use the same
18-workload runs) and the plan builders that take a config, and one
process can run several fidelities side by side.
"""

from __future__ import annotations

import functools
from pathlib import Path

from repro.experiments import (
    ExperimentSpec,
    Plan,
    ResultCache,
    SchemeSpec,
    run_plan,
)
from repro.report.config import BenchConfig
from repro.report.schema import Artifact, build_artifact, dump_artifact
from repro.sim.metrics import format_table

RESULTS_DIR = Path(__file__).parent / "results"

#: The paper's per-threshold PRA probabilities (Figure 1 reliability).
PRA_P_FOR_T = {65536: 0.001, 32768: 0.002, 16384: 0.003, 8192: 0.005}

#: Figure 8/9 labelled scheme axis (dual-core), per threshold T.
FIG8_LABELS = ["PRA", "SCA_64", "SCA_128", "PRCAT_64", "DRCAT_64"]


def fig8_schemes(refresh_threshold: int) -> list[SchemeSpec]:
    """The Figure 8/9 scheme axis with T-matched PRA probability."""
    pra_p = PRA_P_FOR_T[refresh_threshold]
    return [
        SchemeSpec.create("pra", "PRA", probability=pra_p),
        SchemeSpec.create("sca", "SCA_64", n_counters=64),
        SchemeSpec.create("sca", "SCA_128", n_counters=128),
        SchemeSpec.create("prcat", "PRCAT_64", n_counters=64, max_levels=11),
        SchemeSpec.create("drcat", "DRCAT_64", n_counters=64, max_levels=11),
    ]


def bench_config() -> BenchConfig:
    """The validated ``REPRO_BENCH_*`` configuration of the environment."""
    return BenchConfig.from_env()


def base_spec(config: BenchConfig, **overrides) -> ExperimentSpec:
    """An ExperimentSpec carrying the config's economy knobs."""
    fields = dict(
        scheme=SchemeSpec("drcat"),
        scale=config.scale,
        n_banks=config.n_banks,
        n_intervals=config.n_intervals,
        engine=config.engine,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def run_bench_plan(config: BenchConfig, plan: Plan) -> list:
    """Run one bench plan with the config's workers, cache and context."""
    cache = ResultCache(config.cache_dir) if config.cache else None
    return run_plan(plan, workers=config.workers, cache=cache,
                    ctx=config.context)


def fig8_plan(refresh_threshold: int,
              config: BenchConfig | None = None) -> Plan:
    """The declarative grid :func:`fig8_sweep` runs (for spec headers);
    ``config`` defaults to :func:`bench_config`."""
    from repro.workloads.suites import WORKLOAD_ORDER

    return Plan.grid(
        base_spec(config or bench_config(),
                  refresh_threshold=refresh_threshold),
        scheme=fig8_schemes(refresh_threshold),
        workload=list(WORKLOAD_ORDER),
    )


@functools.cache
def fig8_sweep(config: BenchConfig, refresh_threshold: int):
    """The 18-workload × 5-scheme sweep behind Figures 8 and 9.

    Returns ``{(workload, label): SimulationResult}``.  The grid is one
    :class:`Plan`; cells fan out over the config's workers and hit the
    on-disk result cache, and per-cell seeding keeps results identical
    at any worker count.  Memoised per config, so the four figures that
    read it share one run.
    """
    plan = fig8_plan(refresh_threshold, config)
    return dict(zip(plan.keys(), run_bench_plan(config, plan)))


def emit(
    config: BenchConfig,
    name: str,
    title: str,
    rows: list[dict],
    columns: list[str],
    parameters: dict | None = None,
    plan: Plan | None = None,
    spec: dict | None = None,
) -> Artifact:
    """Render, print, and persist one paper-style table.

    New figure?  Emitting the artifact is step 1 of 5 — see "Adding a
    new figure" in DESIGN.md for the full checklist (bench → register
    in BENCH_MODULES → bless goldens → renderer in
    src/repro/figures/paper.py → docs/REPORT.md entry).

    Writes the text table to ``results/<name>.txt`` and the schema
    artifact to ``results/<name>.json``; returns the artifact so bench
    ``artifacts()`` entry points can hand it to ``repro verify``.
    ``plan`` (or a pre-built ``spec`` dict) becomes the artifact's
    additive provenance header.
    """
    table = format_table(rows, columns)
    text = f"== {title} ==\n{table}\n"
    print("\n" + text)
    params = {
        "n_banks": config.n_banks,
        "n_intervals": config.n_intervals,
        "fidelity": config.fidelity,
    }
    params.update(parameters or {})
    if spec is None and plan is not None:
        spec = plan.summary()
    artifact = build_artifact(
        name,
        title,
        rows,
        columns,
        engine=config.engine,
        scale=config.scale,
        parameters=params,
        spec=spec,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text, encoding="utf-8")
    dump_artifact(artifact, RESULTS_DIR / f"{name}.json")
    return artifact


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
