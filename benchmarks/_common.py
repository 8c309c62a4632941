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

Simulation fidelity knobs are environment-tunable and validated by
:class:`repro.report.config.BenchConfig` (a malformed value fails with
a message naming the variable):

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
* ``REPRO_TRACE_STORE`` / ``REPRO_TRACE_STORE_DIR`` — the
  content-addressed activation-trace store (default on, under
  ``<cache dir>/traces``): scheme-axis grid cells share one stream
  generation pass via memory-mapped entries (see
  :mod:`repro.sim.tracestore`).

The environment is re-read lazily on every call, so one process can run
several fidelities (``repro verify`` relies on this).  Sweeps shared by
several figures (e.g. Figure 8 and Figure 9 use the same 18-workload
runs) are additionally memoised in-process per (threshold, knobs).
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

#: Default sweep-cell cache store (override with REPRO_BENCH_CACHE_DIR).
DEFAULT_CACHE_DIR = RESULTS_DIR / "sweep_cache"

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
    """The validated ``REPRO_BENCH_*`` configuration, re-read per call."""
    return BenchConfig.from_env()


def base_spec(**overrides) -> ExperimentSpec:
    """An ExperimentSpec carrying the environment's economy knobs."""
    config = bench_config()
    fields = dict(
        scheme=SchemeSpec("drcat"),
        scale=config.scale,
        n_banks=config.n_banks,
        n_intervals=config.n_intervals,
        engine=config.engine,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def bench_cache() -> ResultCache | None:
    """The sweep-cell cache the environment selects (None = disabled)."""
    config = bench_config()
    if not config.cache:
        return None
    return ResultCache(config.cache_dir or DEFAULT_CACHE_DIR)


def run_bench_plan(plan: Plan) -> list:
    """Run one bench plan with the environment's workers and cache."""
    return run_plan(plan, workers=bench_config().workers, cache=bench_cache())


def plan_memo(builder):
    """Memoise a bench's plan builder per (args, result-relevant knobs).

    A bench builds its plan twice — once to run, once for ``emit``'s
    provenance header.  Keying on the env knobs guarantees both calls
    see the *same* Plan object (no drift window if the environment
    mutates in between, no redundant grid expansion), while distinct
    fidelities within one process still get distinct plans.
    """
    cache: dict = {}

    @functools.wraps(builder)
    def wrapper(*args):
        config = bench_config()
        key = (args, config.scale, config.n_intervals, config.n_banks,
               config.engine, config.session)
        if key not in cache:
            cache[key] = builder(*args)
        return cache[key]

    return wrapper


def fig8_sweep(refresh_threshold: int):
    """The 18-workload × 5-scheme sweep behind Figures 8 and 9.

    Returns ``{(workload, label): SimulationResult}``.  The grid is one
    :class:`Plan`; cells fan out over ``REPRO_BENCH_WORKERS`` processes
    and hit the on-disk result cache, and per-cell seeding keeps
    results identical at any worker count.  Results are additionally
    memoised in-process per (threshold, result-relevant knobs) — the
    worker count and fidelity label do not affect results and are
    excluded from the key.
    """
    config = bench_config()
    return _fig8_sweep_cached(
        refresh_threshold,
        config.scale,
        config.n_intervals,
        config.n_banks,
        config.engine,
        config.session,
    )


@plan_memo
def fig8_plan(refresh_threshold: int) -> Plan:
    """The declarative grid :func:`fig8_sweep` runs (for spec headers).

    Memoised per env knobs, so the sweep and ``emit``'s provenance
    header share one Plan object.
    """
    from repro.workloads.suites import WORKLOAD_ORDER

    return Plan.grid(
        base_spec(refresh_threshold=refresh_threshold),
        scheme=fig8_schemes(refresh_threshold),
        workload=list(WORKLOAD_ORDER),
    )


@functools.lru_cache(maxsize=None)
def _fig8_sweep_cached(refresh_threshold: int, scale: float,
                       n_intervals: int, n_banks: int, engine: str,
                       session: str):
    plan = fig8_plan(refresh_threshold)
    results = run_bench_plan(plan)
    return dict(zip(plan.keys(), results))


def emit(
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
    config = bench_config()
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
