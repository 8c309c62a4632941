"""Functions of one experiment spec: its streams, schemes and result.

A run models ``n_banks`` banks of the configured system over
``n_intervals`` auto-refresh intervals.  Mitigation schemes are per-bank
and independent, so simulating a subset of banks and averaging is
statistically equivalent to simulating all of them — the remaining
banks would simply replay the same workload model with different seeds.

Everything here is a pure function of an
:class:`~repro.experiments.ExperimentSpec`: :func:`stream_plan` (the
demand streams), :func:`scheme_factory` (one bank's scheme at
simulation scale) and :func:`run_result` (the paper-scale metrics of a
finished run).  A run itself is one
:class:`~repro.api.Session`, the :class:`~repro.sim.session.SessionCore`
built from the spec, driven to completion by
:func:`~repro.experiments.run_spec` or incrementally by the streaming
API over the same loop — which is why checkpointed and uninterrupted
runs are bit-identical.

Scaling (see DESIGN.md): with ``scale = s`` a run divides the
per-interval activation budget *and* every threshold (refresh + split)
by ``s`` while compressing the simulated interval to ``64 ms / s`` so the
physical arrival *rate* is preserved.  Refresh-event counts per interval
and rows per event are invariant under this transformation; the measured
stall ratio overstates ETO by exactly ``s`` and is corrected in
:class:`~repro.sim.metrics.RunTotals`.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.base import MitigationScheme
from repro.core import make_scheme
from repro.dram.config import SystemConfig
from repro.dram.memory_system import MemorySystem
from repro.energy.cmrpo import compute_cmrpo
from repro.sim.metrics import RunTotals, SimulationResult
from repro.workloads.attacks import AttackKernel, attack_stream, get_kernel
from repro.workloads.suites import WorkloadSpec

__all__ = [
    "stream_plan",
    "scheme_factory",
    "run_result",
    "simulated_banks",
    "scaled_threshold",
    "baseline_execution_time_ns",
]


def simulated_banks(spec) -> int:
    """How many banks a run of ``spec`` simulates: at most the system's."""
    return min(spec.n_banks, spec.resolve_system().n_banks)


def scaled_threshold(refresh_threshold: int, scale: float) -> int:
    """The simulation-scale refresh threshold (minimum 32)."""
    return max(32, int(round(refresh_threshold / scale)))


def scheme_factory(spec) -> Callable[[int], MitigationScheme]:
    """Builds one bank's scheme of ``spec`` at simulation scale."""
    kind, params = spec.scheme.kind, spec.scheme.params
    threshold = spec.refresh_threshold
    sim_t = scaled_threshold(threshold, spec.scale)
    effective_scale = threshold / sim_t

    def factory(n_rows: int) -> MitigationScheme:
        if kind in ("prcat", "drcat"):
            scheme = make_scheme(kind, n_rows, threshold, params=params)
            # Swap in the scaled schedule so tree dynamics replay at
            # simulation scale with identical shape.
            scaled = scheme.schedule.scaled(effective_scale)
            scheme.schedule = scaled
            scheme.tree.thresholds = scaled
            scheme.refresh_threshold = scaled.refresh_threshold
            scheme.tree.reset()
            return scheme
        return make_scheme(kind, n_rows, sim_t, params=params)

    return factory


# -- stream plans --------------------------------------------------------


def stream_plan(spec) -> tuple[str, float, Callable[[int, int], np.ndarray]]:
    """The (label, full_intensity, rows_fn) triple ``spec`` means.

    ``rows_fn(bank, interval)`` deterministically yields the row ids
    of one bank-interval; the triple fully describes the demand
    streams, so a spec alone reconstructs them — the property
    session snapshots rely on.  ``kind="attack"`` specs mix the
    attack kernel into the benign workload's streams.
    """
    n_rows = spec.resolve_system().rows_per_bank
    workload = spec.resolve_workload_model()
    if spec.kind == "attack":
        return _attack_plan(get_kernel(spec.attack_kernel), spec.attack_mode,
                            workload, n_rows, spec.scale)

    def rows_fn(bank: int, interval: int) -> np.ndarray:
        return _interval_rows(workload, n_rows, spec.scale, bank, interval)

    return workload.name, workload.intensity, rows_fn


def _attack_plan(
    kernel: AttackKernel, mode: str, benign: WorkloadSpec, n_rows: int,
    scale: float,
) -> tuple[str, float, Callable[[int, int], np.ndarray]]:
    """Stream plan of one attack-kernel mix (Figure 13)."""

    def rows_fn(bank: int, interval: int) -> np.ndarray:
        n_accesses = max(1, int(round(benign.intensity / scale)))
        rng = np.random.Generator(
            np.random.PCG64(kernel.seed * 39_916_801 + bank * 53 + interval)
        )
        return attack_stream(
            kernel, mode, n_rows, n_accesses, bank=bank, benign=benign, rng=rng
        )

    label = f"{kernel.name}:{mode}:{benign.name}"
    return label, benign.intensity, rows_fn


def _interval_rows(
    workload: WorkloadSpec, n_rows: int, scale: float, bank: int,
    interval: int,
) -> np.ndarray:
    """Row ids of one bank-interval, honouring the workload's phases.

    Phase boundaries fall *mid-interval* (at global fraction
    ``(k + 0.45) / phase_count``), never aligned with the 64 ms
    epochs: context switches and application phases are asynchronous
    with auto-refresh.  This is the temporal drift DRCAT's
    reconfiguration exists for — an epoch-aligned drift would let
    PRCAT adapt for free at its reset.
    """
    model = workload.stream_model(n_rows)
    n_accesses = max(1, int(round(workload.intensity / scale)))
    rng = workload.rng(salt=interval * 31 + bank * 977 + 5)
    segments = _phase_segments(interval, workload.phase_count)
    parts: list[np.ndarray] = []
    remaining = n_accesses
    for seg_index, (fraction, phase) in enumerate(segments):
        count = (
            remaining
            if seg_index == len(segments) - 1
            else int(round(n_accesses * fraction))
        )
        count = min(count, remaining)
        remaining -= count
        if count <= 0:
            continue
        layout = model.phase_layout(workload.rng(salt=phase * 7177 + bank))
        parts.append(model.sample(rng, count, layout))
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _phase_segments(interval: int, phase_count: int) -> list[tuple[float, int]]:
    """Split one interval into (fraction, phase-id) segments.

    ``phase_count`` is the number of hot-set relocations per 64 ms
    interval (context switches / application phases are much shorter
    than the refresh epoch).  Boundaries fall at local fractions
    ``(k + 0.45) / phase_count`` — deliberately *not* aligned with the
    epoch edges where PRCAT resets.  Each segment gets a globally unique
    phase id so its hot-set layout is fresh.
    """
    if phase_count <= 1:
        return [(1.0, 0)]
    edges = [0.0] + [
        (k + 0.45) / phase_count for k in range(phase_count)
    ] + [1.0]
    segments: list[tuple[float, int]] = []
    for k, (a, b) in enumerate(zip(edges, edges[1:])):
        if b <= a:
            continue
        # Continuous numbering across epochs: the trailing segment of
        # interval i and the leading segment of interval i+1 share one
        # phase id, so no hot-set move ever coincides with an epoch edge.
        phase_id = interval * phase_count + k
        segments.append((b - a, phase_id))
    return segments


# -- metrics at paper scale ----------------------------------------------


def run_result(spec, totals: RunTotals, memory: MemorySystem) -> SimulationResult:
    """The result of ``spec`` from a run's raw totals and final memory."""
    kind, params = spec.scheme.kind, spec.scheme.params
    # Every result document records both; schemes without the fields
    # record the historical cross-scheme defaults.
    n_counters = getattr(params, "n_counters", 64)
    max_levels = getattr(params, "max_levels", 11)
    breakdown = compute_cmrpo(
        kind,
        accesses_per_interval=totals.full_scale_accesses_per_interval,
        victim_rows_per_interval=totals.rows_refreshed_per_bank_interval,
        n_counters=n_counters,
        refresh_threshold=spec.refresh_threshold,
        max_levels=max_levels,
    )
    parameters = {
        "n_counters": n_counters,
        "max_levels": max_levels,
        "refresh_threshold": spec.refresh_threshold,
        "scale": spec.scale,
        "sim_threshold": scaled_threshold(spec.refresh_threshold, spec.scale),
        "config": spec.resolve_system(),
    }
    if kind == "pra":
        parameters["probability"] = params.probability
    if kind == "ccache":
        # Following Figure 2 the CMRPO treats the cache optimistically
        # (no-miss); the measured counter-fetch energy is surfaced here
        # (and in bench_counter_cache) instead.
        fetch_nj = 0.0
        if totals.accesses:
            fetch_nj = sum(
                s.miss_energy_nj()
                for s in memory.schemes
                if s is not None and hasattr(s, "miss_energy_nj")
            ) / totals.accesses
        parameters["fetch_nj_per_access"] = fetch_nj
    return SimulationResult(
        totals=totals, cmrpo_breakdown=breakdown, parameters=parameters
    )


def baseline_execution_time_ns(
    config: SystemConfig, n_accesses: int, duration_ns: float
) -> float:
    """Unprotected execution time for an interval (ETO denominator).

    Under the busy-horizon bank model the demand stream itself completes
    at ``duration_ns`` plus at most the one row cycle still in flight at
    the interval's end, so the denominator is the simulated duration —
    which is how :class:`RunTotals` computes ETO.  Exposed for tests
    that validate this assumption.
    """
    if n_accesses <= 0:
        return duration_ns
    return duration_ns + config.timings.t_rc
