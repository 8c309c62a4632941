"""Per-bank timing/state model.

The ETO (execution time overhead) metric measures how long demand
requests stall behind targeted victim-row refreshes.  Memory controllers
do not freeze a bank for a whole multi-row refresh burst: TRR-style
victim refreshes are issued one row (one ACT+PRE cycle, ``tRC``) at a
time and interleaved with demand traffic.  The model therefore keeps a
*refresh backlog* per bank:

* a refresh command adds its row count to the backlog;
* the backlog drains whenever the bank is idle, one row-op per ``tRC``;
* a demand access arriving while a row-op is in flight waits only the
  residual of that row-op (bounded by ``tRC``), which is the stall ETO
  accounts;
* if the backlog exceeds a safety cap the controller escalates and
  drains synchronously (blocking) — the behaviour of a real controller
  whose refresh deadline approaches.

A closed-page demand access occupies the bank for one row cycle ``tRC``.

The batched engine's compiled kernel (:mod:`repro.sim.kernel`) repeats
:meth:`BankState.serve_access`, :meth:`~BankState._drain_until` and
:meth:`BankState.serve_refresh` statement by statement on the same
registers, so these methods are the reference for both engines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.base import checked_register
from repro.dram.config import DRAMTimings

#: Backlog (rows) beyond which the controller blocks demand to catch up.
BACKLOG_ESCALATION_ROWS = 1 << 17


@dataclass
class BankState:
    """Busy-horizon plus refresh-backlog accounting for one DRAM bank."""

    timings: DRAMTimings
    #: time (ns) at which the bank finishes its current demand work
    free_at_ns: float = 0.0
    #: victim-refresh row-operations awaiting idle time
    refresh_backlog_rows: int = 0
    #: cumulative ns of victim-refresh row-ops performed
    mitigation_busy_ns: float = 0.0
    #: cumulative ns demand requests waited behind refresh row-ops
    stall_ns: float = 0.0
    #: demand activations served
    activations: int = 0
    #: rows refreshed by mitigation commands (for energy accounting)
    rows_refreshed: int = 0
    #: times the escalation cap forced a blocking drain
    escalations: int = 0

    def serve_access(self, arrival_ns: float) -> float:
        """Serve a demand activation arriving at ``arrival_ns``.

        Returns the completion time.  Before the access starts, any
        refresh backlog drains through the idle gap since the bank last
        went quiet; if a refresh row-op is mid-flight at arrival, the
        access absorbs its residual as mitigation stall.
        """
        start = max(arrival_ns, self.free_at_ns)
        if self.refresh_backlog_rows > 0:
            start = self._drain_until(start)
        done = start + self.timings.t_rc
        self.free_at_ns = done
        self.activations += 1
        return done

    def _drain_until(self, start_ns: float) -> float:
        """Drain backlog in the idle gap ending at ``start_ns``.

        Returns the (possibly delayed) demand start time and accounts
        the stall when a row-op straddles the demand arrival.
        """
        t_op = self.timings.row_refresh_ns
        gap = start_ns - self.free_at_ns
        if gap <= 0:
            return start_ns
        ops_fit = int(gap / t_op)
        if ops_fit >= self.refresh_backlog_rows:
            # Whole backlog drains inside the gap; bank idle at arrival.
            self.mitigation_busy_ns += self.refresh_backlog_rows * t_op
            self.refresh_backlog_rows = 0
            return start_ns
        # A row-op is in flight at the demand arrival: wait its residual.
        residual = t_op - (gap - ops_fit * t_op)
        completed = ops_fit + 1
        self.mitigation_busy_ns += completed * t_op
        self.refresh_backlog_rows -= completed
        self.stall_ns += residual
        return start_ns + residual

    def serve_accesses_batch(self, arrivals: np.ndarray) -> None:
        """Serve ``arrivals`` (sorted ns) with no refreshes between them:
        :meth:`serve_access` once per element.

        The batched engine calls it between the events of a scheme the
        compiled kernel does not serve, or on a host without a C
        compiler.
        """
        for arrival in arrivals.tolist():
            self.serve_access(arrival)

    def serve_refresh(self, arrival_ns: float, n_rows: int) -> float:
        """Enqueue a targeted refresh of ``n_rows`` rows.

        The rows join the backlog and drain opportunistically; only when
        the escalation cap is exceeded does the bank block outright.
        Returns the bank's demand horizon (unchanged unless escalated).
        """
        if n_rows <= 0:
            return self.free_at_ns
        self.refresh_backlog_rows += n_rows
        self.rows_refreshed += n_rows
        if self.refresh_backlog_rows > BACKLOG_ESCALATION_ROWS:
            duration = self.refresh_backlog_rows * self.timings.row_refresh_ns
            begin = max(arrival_ns, self.free_at_ns)
            self.free_at_ns = begin + duration
            self.mitigation_busy_ns += duration
            self.stall_ns += duration
            self.refresh_backlog_rows = 0
            self.escalations += 1
        return self.free_at_ns

    def reset_epoch(self) -> None:
        """Auto-refresh boundary: the blanket refresh absorbs the backlog.

        Any victim rows still pending are covered by the full-bank
        refresh pass, so the backlog clears without extra demand impact
        (their energy was already accounted when commanded).
        """
        self.refresh_backlog_rows = 0

    # -- checkpointable state (see repro.api) ----------------------------

    def to_state(self) -> dict:
        """All timing/accounting registers, JSON-serializable.

        Every float here is a sum of quarter-ns-grid quantities, exactly
        representable in float64 and therefore exact through a JSON
        round-trip (Python serializes floats by shortest round-trip
        repr).
        """
        return {
            "free_at_ns": self.free_at_ns,
            "refresh_backlog_rows": self.refresh_backlog_rows,
            "mitigation_busy_ns": self.mitigation_busy_ns,
            "stall_ns": self.stall_ns,
            "activations": self.activations,
            "rows_refreshed": self.rows_refreshed,
            "escalations": self.escalations,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite all registers from a :meth:`to_state` document.

        The integer registers cross into the compiled kernel as int64:
        one that is not an integer in ``[0, 2^63)`` raises a
        ``ValueError`` naming it.
        """
        self.free_at_ns = float(state["free_at_ns"])
        self.mitigation_busy_ns = float(state["mitigation_busy_ns"])
        self.stall_ns = float(state["stall_ns"])
        (self.refresh_backlog_rows, self.activations, self.rows_refreshed,
         self.escalations) = (
            checked_register("bank", name, state[name])
            for name in ("refresh_backlog_rows", "activations", "rows_refreshed", "escalations")
        )
