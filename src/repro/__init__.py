"""Reproduction of *Mitigating Wordline Crosstalk Using Adaptive Trees of
Counters* (Seyedzadeh, Jones, Melhem — ISCA 2018).

The package implements the paper's contribution — the Counter-based
Adaptive Tree (CAT) family of rowhammer/wordline-crosstalk mitigation
schemes — together with every substrate the evaluation depends on:

* :mod:`repro.core` — CAT tree, PRCAT, DRCAT, and the SCA / PRA baselines.
* :mod:`repro.dram` — a DDR3-style bank/channel substrate with targeted
  refresh and bank-blocking accounting.
* :mod:`repro.workloads` — synthetic generators for the 18 Memory
  Scheduling Championship workloads and the 12 kernel rowhammer attacks.
* :mod:`repro.energy` — the Table II hardware energy/area model and the
  CMRPO metric.
* :mod:`repro.analysis` — analytical models (PRA unsurvivability, LFSR
  Monte-Carlo, SCA energy breakdown, split-threshold cost model).
* :mod:`repro.sim` — the session core every run is, the functions of a
  spec it is built from, its engines and the trace store.
* :mod:`repro.experiments` — declarative specs and plans, the one way to
  run a simulation (``run_spec`` / ``run_plan``, or streamed via
  :func:`~repro.api.open_session`).
* :mod:`repro.server` — ``repro serve``, the stdlib-only HTTP + SSE
  service over the experiment layer (content-hash dedup, sharded plan
  scheduling, streamed per-epoch metrics).

Quickstart — stream a run incrementally through the session API::

    from repro import ExperimentSpec, SchemeSpec, open_session
    session = open_session(ExperimentSpec(
        scheme=SchemeSpec.create("drcat", n_counters=64),
        workload="blackscholes",
    ))
    session.on_epoch(lambda e: print(e.epoch, e.delta.eto))
    session.advance(session.total_ns / 2)   # pausable, checkpointable
    snap = session.snapshot()               # JSON-able; resume anywhere
    result = session.result()
    print(result.cmrpo, result.eto)

or, for one-shot batch runs::

    from repro import ExperimentSpec, SchemeSpec, run_spec
    result = run_spec(ExperimentSpec(
        scheme=SchemeSpec("drcat"), workload="blackscholes",
    ))
"""

from repro._version import __version__

from repro.core import (
    CounterTree,
    DRCATScheme,
    MitigationScheme,
    PRAScheme,
    PRCATScheme,
    RefreshCommand,
    SCAScheme,
    SplitThresholds,
    make_scheme,
)
from repro.dram.config import DRAMTimings, SystemConfig
from repro.energy.cmrpo import CMRPOBreakdown, compute_cmrpo
from repro.errors import (
    CellExecutionError,
    CellFailure,
    FatalError,
    ReproError,
    RetryableError,
)
from repro.experiments import (
    ExperimentSpec,
    Plan,
    ResultCache,
    SchemeSpec,
    SweepReport,
    run_plan,
    run_spec,
)
from repro.api import Session, open_session
from repro.sim.metrics import SimulationResult

# __version__ comes from repro/_version.py, the single source setup.py
# also builds the distribution metadata from.  The co-located constant
# is preferred over importlib.metadata deliberately: it ships with
# every install *and* always describes the code actually imported,
# whereas a metadata lookup can be shadowed by a stale installed
# distribution when developing with PYTHONPATH=src.

__all__ = [
    "CounterTree",
    "SplitThresholds",
    "MitigationScheme",
    "RefreshCommand",
    "SCAScheme",
    "PRAScheme",
    "PRCATScheme",
    "DRCATScheme",
    "make_scheme",
    "SystemConfig",
    "DRAMTimings",
    "CMRPOBreakdown",
    "compute_cmrpo",
    "SimulationResult",
    "ExperimentSpec",
    "SchemeSpec",
    "Plan",
    "ResultCache",
    "run_spec",
    "run_plan",
    "SweepReport",
    "ReproError",
    "RetryableError",
    "FatalError",
    "CellFailure",
    "CellExecutionError",
    "Session",
    "open_session",
    "__version__",
]
