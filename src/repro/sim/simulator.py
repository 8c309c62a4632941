"""The trace-driven simulator gluing workloads, DRAM and schemes.

One :class:`TraceDrivenSimulator` run models ``n_banks`` banks of the
configured system over ``n_intervals`` auto-refresh intervals.
Mitigation schemes are per-bank and independent, so simulating a subset
of banks and averaging is statistically equivalent to simulating all of
them — the remaining banks would simply replay the same workload model
with different seeds.

The simulator is configured by one declarative
:class:`~repro.experiments.ExperimentSpec` — ``TraceDrivenSimulator(spec)``
— which carries the system, workload/attack, typed scheme parameters and
economy knobs.  (The pre-spec ``TraceDrivenSimulator(config, kind,
n_counters=..., ...)`` keyword form was removed after its one-release
deprecation window; construct a spec instead.)

The simulator only describes a run: its scheme factory, stream plan
and paper-scale metrics (:meth:`TraceDrivenSimulator._finalize`).  The
run loop lives in :class:`~repro.sim.session.SessionCore`, and every run
drives it through a :class:`~repro.api.Session` — to completion for
:func:`~repro.experiments.run_spec`, incrementally for the streaming
API — which is why checkpointed and uninterrupted runs are
bit-identical.

Scaling (see DESIGN.md): with ``scale = s`` the simulator divides the
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
from repro.dram.config import REFRESH_INTERVAL_S, SystemConfig
from repro.dram.memory_system import MemorySystem
from repro.energy.cmrpo import compute_cmrpo
from repro.sim.metrics import RunTotals, SimulationResult
from repro.workloads.attacks import AttackKernel, attack_stream, get_kernel
from repro.workloads.suites import WorkloadSpec

__all__ = [
    "TraceDrivenSimulator",
    "scaled_threshold",
    "baseline_execution_time_ns",
]


def scaled_threshold(refresh_threshold: int, scale: float) -> int:
    """The simulation-scale refresh threshold (minimum 32)."""
    return max(32, int(round(refresh_threshold / scale)))


class TraceDrivenSimulator:
    """Run one experiment spec on a subset of banks."""

    def __init__(self, spec) -> None:
        from repro.experiments.spec import ExperimentSpec

        if not isinstance(spec, ExperimentSpec):
            raise TypeError(
                "TraceDrivenSimulator takes an "
                "repro.experiments.ExperimentSpec (the legacy "
                "(config, scheme_kind, **kwargs) form was removed); "
                "build one with ExperimentSpec(scheme=SchemeSpec.create"
                "(kind, ...), ...)"
            )
        self.spec = spec
        self.config = spec.resolve_system()
        self.scheme_spec = spec.scheme
        self.scheme_kind = spec.scheme.kind
        self.engine = spec.engine
        params = spec.scheme.params
        # Derived legacy attributes: schemes without the field fall back
        # to the historical cross-scheme defaults so downstream energy
        # accounting (compute_cmrpo) sees identical inputs.
        self.n_counters = getattr(params, "n_counters", 64)
        self.max_levels = getattr(params, "max_levels", 11)
        self.pra_probability = getattr(params, "probability", 0.002)
        self.threshold_strategy = getattr(params, "threshold_strategy", "auto")
        self.refresh_threshold = spec.refresh_threshold
        self.scale = spec.scale
        self.n_banks_simulated = min(spec.n_banks, self.config.n_banks)
        self.n_intervals = spec.n_intervals
        self.seed = spec.seed
        self.sim_threshold = scaled_threshold(spec.refresh_threshold,
                                              spec.scale)
        self.epoch_s = REFRESH_INTERVAL_S / spec.scale

    # -- scheme construction ------------------------------------------------

    def _scheme_factory(self) -> Callable[[int], MitigationScheme]:
        kind = self.scheme_kind
        params = self.scheme_spec.params
        sim_t = self.sim_threshold
        effective_scale = self.refresh_threshold / sim_t

        def factory(n_rows: int) -> MitigationScheme:
            if kind in ("prcat", "drcat"):
                scheme = make_scheme(
                    kind, n_rows, self.refresh_threshold, params=params
                )
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

    # -- stream preparation --------------------------------------------------

    def _interval_rows(
        self, workload: WorkloadSpec, bank: int, interval: int
    ) -> np.ndarray:
        """Row ids of one bank-interval, honouring the workload's phases.

        Phase boundaries fall *mid-interval* (at global fraction
        ``(k + 0.45) / phase_count``), never aligned with the 64 ms
        epochs: context switches and application phases are asynchronous
        with auto-refresh.  This is the temporal drift DRCAT's
        reconfiguration exists for — an epoch-aligned drift would let
        PRCAT adapt for free at its reset.
        """
        n_rows = self.config.rows_per_bank
        model = workload.stream_model(n_rows)
        n_accesses = max(1, int(round(workload.intensity / self.scale)))
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

    # -- stream plans --------------------------------------------------------

    def stream_plan(self) -> tuple[str, float, Callable[[int, int], np.ndarray]]:
        """The (label, full_intensity, rows_fn) triple this spec means.

        ``rows_fn(bank, interval)`` deterministically yields the row ids
        of one bank-interval; the triple fully describes the demand
        streams, so a spec alone reconstructs them — the property
        session snapshots rely on.  ``kind="attack"`` specs mix the
        attack kernel into the benign workload's streams.
        """
        workload = self.spec.resolve_workload_model()
        if self.spec.kind == "attack":
            return self._attack_plan(
                get_kernel(self.spec.attack_kernel),
                self.spec.attack_mode,
                workload,
            )
        rows_fn = lambda bank, interval: self._interval_rows(  # noqa: E731
            workload, bank, interval
        )
        return workload.name, workload.intensity, rows_fn

    def _attack_plan(
        self, kernel: AttackKernel, mode: str, benign: WorkloadSpec
    ) -> tuple[str, float, Callable[[int, int], np.ndarray]]:
        """Stream plan of one attack-kernel mix (Figure 13)."""
        n_rows = self.config.rows_per_bank

        def rows_fn(bank: int, interval: int) -> np.ndarray:
            n_accesses = max(1, int(round(benign.intensity / self.scale)))
            rng = np.random.Generator(
                np.random.PCG64(kernel.seed * 39_916_801 + bank * 53 + interval)
            )
            return attack_stream(
                kernel, mode, n_rows, n_accesses, bank=bank, benign=benign, rng=rng
            )

        label = f"{kernel.name}:{mode}:{benign.name}"
        return label, benign.intensity, rows_fn

    # -- metrics at paper scale ----------------------------------------------

    def _finalize(
        self, totals: RunTotals, memory: MemorySystem
    ) -> SimulationResult:
        """The run's result from its raw totals and final memory state."""
        measured_fetch_nj_per_access = 0.0
        if self.scheme_kind == "ccache":
            # Following Figure 2 the CMRPO treats the cache optimistically
            # (no-miss); the measured counter-fetch energy is surfaced in
            # the result parameters (and in bench_counter_cache) instead.
            if totals.accesses:
                fetch_nj = sum(
                    s.miss_energy_nj()
                    for s in memory.schemes
                    if s is not None and hasattr(s, "miss_energy_nj")
                )
                measured_fetch_nj_per_access = fetch_nj / totals.accesses
        breakdown = compute_cmrpo(
            self.scheme_kind,
            accesses_per_interval=totals.full_scale_accesses_per_interval,
            victim_rows_per_interval=totals.rows_refreshed_per_bank_interval,
            n_counters=self.n_counters,
            refresh_threshold=self.refresh_threshold,
            max_levels=self.max_levels,
            pra_probability=(
                self.pra_probability if self.scheme_kind == "pra" else None
            ),
        )
        parameters = {
            "n_counters": self.n_counters,
            "max_levels": self.max_levels,
            "refresh_threshold": self.refresh_threshold,
            "scale": self.scale,
            "sim_threshold": self.sim_threshold,
            "config": self.config,
        }
        if self.scheme_kind == "pra":
            parameters["probability"] = self.pra_probability
        if self.scheme_kind == "ccache":
            parameters["fetch_nj_per_access"] = measured_fetch_nj_per_access
        return SimulationResult(
            totals=totals, cmrpo_breakdown=breakdown, parameters=parameters
        )


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
