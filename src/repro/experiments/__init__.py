"""Declarative experiment layer: specs, plans, caching, execution.

The evaluation space of the paper — schemes × workloads × attacks ×
(T, counters, levels, scale) — is described by frozen, serializable,
content-hashed :class:`ExperimentSpec` records instead of per-call
keyword soup.  :class:`Plan` expands axis grids into spec lists;
:func:`run_plan` executes them with an on-disk per-cell result cache
(:class:`ResultCache`) and optional fan-out onto forked worker
processes (:class:`SweepPool`).  See
DESIGN.md, "The experiments layer".
"""

from repro.experiments.cache import CACHE_VERSION, ResultCache, code_fingerprint
from repro.experiments.plan import Plan, load_plan
from repro.experiments.spec import (
    DEFAULT_SEED,
    SPEC_VERSION,
    ExperimentSpec,
    SchemeSpec,
    SpecError,
    coerce_scheme,
    load_spec,
)
from repro.experiments.run import SweepPool, SweepReport, run_plan, run_spec
from repro.experiments.shared import SharedWorkRegistry

__all__ = [
    "SharedWorkRegistry",
    "SPEC_VERSION",
    "DEFAULT_SEED",
    "CACHE_VERSION",
    "SpecError",
    "SchemeSpec",
    "coerce_scheme",
    "ExperimentSpec",
    "load_spec",
    "Plan",
    "load_plan",
    "ResultCache",
    "code_fingerprint",
    "run_spec",
    "run_plan",
    "SweepPool",
    "SweepReport",
]
