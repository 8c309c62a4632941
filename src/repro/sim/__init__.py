"""Simulation harness: the re-entrant session core every run is, the
functions of a spec it is built from (streams, schemes, result), its
engines, metrics, and the activation-trace store.

Runs enter through an :class:`~repro.experiments.ExperimentSpec` —
:func:`~repro.experiments.run_spec` / :func:`~repro.experiments.run_plan`
for batch runs, :class:`~repro.api.Session` (a :class:`SessionCore`)
for streamed ones.
"""

from repro.sim.engine import (
    ENGINES,
    TIME_QUANTUM_NS,
    advance_batched_streams,
    advance_scalar_streams,
    merge_streams,
    quantize_times_ns,
)
from repro.sim.metrics import (
    RunTotals,
    SimulationResult,
    format_table,
    mean_over,
)
from repro.sim.session import SessionCore
from repro.sim.simulator import scaled_threshold

__all__ = [
    "ENGINES",
    "TIME_QUANTUM_NS",
    "quantize_times_ns",
    "advance_batched_streams",
    "advance_scalar_streams",
    "merge_streams",
    "RunTotals",
    "SimulationResult",
    "format_table",
    "mean_over",
    "SessionCore",
    "scaled_threshold",
]
