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

Batched processing: :meth:`BankState.serve_accesses_batch` serves a run
of demand accesses with no interleaved refresh commands in vectorized
closed form.  It is *bit-identical* to per-access :meth:`serve_access`
calls provided all arrival times (and the timing constants) are exact
multiples of the simulator's quarter-nanosecond time quantum (see
DESIGN.md, "Time quantization"): every intermediate value is then
exactly representable in float64, arithmetic incurs no rounding, and
the re-associated closed form equals the sequential recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dram.config import DRAMTimings

#: Backlog (rows) beyond which the controller blocks demand to catch up.
BACKLOG_ESCALATION_ROWS = 1 << 17

#: Below this backlog the drain is over within a few accesses, so the
#: per-access scalar loop beats the vector path's fixed numpy overhead
#: (a PRA neighbour refresh enqueues 2 rows; an SCA_32 group refresh
#: enqueues ~1k and drains over hundreds of accesses).
DRAIN_VECTOR_MIN_BACKLOG = 64


def _drain_run(
    anchored: np.ndarray,
    free_q: int,
    backlog: int,
    p_q: int,
    r_q: int,
) -> tuple[int, int, int, int]:
    """One batch that starts with a backlog, in closed form on the grid.

    ``anchored[k]`` is access ``k``'s arrival minus ``k * r_q``, in
    integer quarter-ns quanta (``p_q``/``r_q`` are ``row_refresh_ns``/
    ``t_rc`` in quanta); the batch starts at horizon ``free_q`` with
    ``backlog`` rows pending.  In anchored coordinates (every clock
    minus ``k * r_q``):

    1. **Anchored clock.** Every branch of the scalar oracle -- idle,
       burst, collision and full drain -- advances the virtual clock
       ``F + backlog * p_q`` by exactly ``r_q`` per access, so it is the
       constant ``V = free_q + backlog * p_q`` for the whole phase.
       Access ``k`` drains the whole backlog iff ``anchored[k] >= V``.
       One comparison finds the first such access; from there on the
       bank has no backlog, and ``f = max(arrival, f) + tRC`` makes the
       final anchored horizon ``max(anchored[k:])``.
    2. **Lattice scan.** Before that access the anchored horizon ``f``
       stays on the lattice ``free_q + p_q*Z``.  An idle access
       (``a_k > f``) moves it to ``u_k``, the next lattice point
       strictly above ``a_k``, and stalls ``u_k - a_k``; a burst
       (``a_k <= f``) leaves it.  Since ``u_k <= f`` for every burst
       except a *collision* -- an arrival exactly on the horizon, where
       ``u_k = f + p_q`` -- the horizon is the running max of ``u`` up
       to the first collision.  The scan restarts after each collision
       (the recurrence is not monotone there, so no single max-plus
       pass expresses it), skipping the bursts that follow it.
    3. **Time accounting.** The backlog is ``(V - f) / p_q`` and the
       work drained is ``f - free_q``.  When ``f`` reaches ``V`` the
       backlog is exhausted, and every later access before the full
       drain has ``a_k < V = f``: a burst that changes nothing, exactly
       as the backlog-free recurrence would treat it.

    Exactness: every scalar float operation in the drain loop acts on
    exact quarter-ns grid values (sums/products below 2**53 quanta, and
    ``int(gap / t_op)`` equals exact integer division for gaps below
    2**52 quanta), so this integer closed form reproduces the float
    recurrence bit-for-bit.  The caller verifies grid alignment before
    engaging.

    Returns ``(horizon_q, backlog, busy_q, stall_q)``: the anchored
    horizon after the whole batch (so ``free_at`` is ``horizon_q +
    len(anchored) * r_q``), the backlog left, and the busy/stall deltas
    in quanta.
    """
    n = len(anchored)
    clock = free_q + backlog * p_q
    full = anchored >= clock
    end = int(full.argmax())
    if not full[end]:
        end = n
    horizon = free_q
    stall_q = 0
    k = 0
    while k < end:
        seg = anchored[k:end]
        residual = p_q - (seg - free_q) % p_q
        run = np.maximum.accumulate(seg + residual)
        np.maximum(run, horizon, out=run)
        before = np.empty_like(run)
        before[0] = horizon
        before[1:] = run[:-1]
        collide = seg == before
        stop = int(collide.argmax())
        if not collide[stop]:
            stop = len(seg)
        idle = seg[:stop] > before[:stop]
        stall_q += int(residual[:stop][idle].sum())
        if stop == len(seg):
            horizon = int(run[-1])
            break
        # Collision at k + stop: a burst on the horizon.  Skip it and
        # the bursts after it; the scan resumes at the next idle access.
        horizon = int(before[stop])
        k += stop + 1
        idle = anchored[k:end] > horizon
        k = k + int(idle.argmax()) if idle.any() else end
    if end < n:
        return int(anchored[end:].max()), 0, backlog * p_q, stall_q
    return horizon, (clock - horizon) // p_q, horizon - free_q, stall_q


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
        """Serve ``arrivals`` (sorted, float64 ns) with no refreshes between.

        Exact batch equivalent of calling :meth:`serve_access` per
        element.  While a refresh backlog of at least
        ``DRAIN_VECTOR_MIN_BACKLOG`` rows is pending and every input is
        on the integer quarter-ns grid, one :func:`_drain_run` call
        applies the whole drain phase in closed form -- bursts, partial
        drains, arrivals exactly on the horizon, and the exhaustion or
        full drain that ends it.  Shorter backlogs and off-grid timings
        or arrivals drain through the per-access scalar loop, the
        reference for off-grid input.  Once the backlog is clear, the
        busy-horizon recurrence ``f = max(arrival, f) + tRC`` collapses
        to a running max, and only the final horizon and the activation
        count remain observable, so the rest of the batch applies in
        O(n) vector ops.
        """
        n = len(arrivals)
        if n == 0:
            return
        t_rc = self.timings.t_rc
        i = 0
        if self.refresh_backlog_rows > 0:
            t_op = self.timings.row_refresh_ns
            f = self.free_at_ns
            backlog = self.refresh_backlog_rows
            p_q4 = t_op * 4.0
            r_q4 = t_rc * 4.0
            fast = (
                backlog >= DRAIN_VECTOR_MIN_BACKLOG
                and p_q4.is_integer() and r_q4.is_integer()
                and (f * 4.0).is_integer()
            )
            if fast:
                scaled = arrivals * 4.0
                quanta = scaled.astype(np.int64)
                fast = bool((quanta == scaled).all())
            if fast:
                p_q, r_q = int(p_q4), int(r_q4)
                anchored = quanta - np.arange(n, dtype=np.int64) * r_q
                horizon_q, backlog, busy_q, stall_q = _drain_run(
                    anchored, int(f * 4.0), backlog, p_q, r_q
                )
                self.free_at_ns = (horizon_q + n * r_q) * 0.25
                self.refresh_backlog_rows = backlog
                self.mitigation_busy_ns += busy_q * 0.25
                self.stall_ns += stall_q * 0.25
                self.activations += n
                return
            # Short backlog or off-grid input: the per-access scalar
            # loop (the expressions of serve_access / _drain_until on
            # identical floats), pulling arrivals through tolist()
            # buffers that start small -- a 2-row PRA backlog drains in
            # an access or two -- and grow while the drain goes on.
            busy = self.mitigation_busy_ns
            stall = self.stall_ns
            buffer: list[float] = []
            buffer_start = buffer_end = 0
            chunk = 8
            while i < n and backlog > 0:
                if i >= buffer_end:
                    buffer = arrivals[i : i + chunk].tolist()
                    buffer_start = i
                    buffer_end = i + len(buffer)
                    chunk = min(chunk * 4, 1024)
                a = buffer[i - buffer_start]
                if a > f:
                    # Idle gap: row-ops fit before the access starts.
                    gap = a - f
                    ops_fit = int(gap / t_op)
                    if ops_fit >= backlog:
                        busy += backlog * t_op
                        backlog = 0
                        f = a + t_rc
                    else:
                        completed = ops_fit + 1
                        busy += completed * t_op
                        backlog -= completed
                        residual = t_op - (gap - ops_fit * t_op)
                        stall += residual
                        f = a + residual + t_rc
                else:
                    # Burst: nothing drains, the horizon advances tRC.
                    f = f + t_rc
                i += 1
            self.free_at_ns = f
            self.refresh_backlog_rows = backlog
            self.mitigation_busy_ns = busy
            self.stall_ns = stall
            self.activations += i
        if i >= n:
            return
        rest = arrivals[i:]
        k = n - i
        anchored = rest - np.arange(k, dtype=np.float64) * t_rc
        horizon = max(self.free_at_ns, float(anchored.max()))
        self.free_at_ns = horizon + k * t_rc
        self.activations += k

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
        """Overwrite all registers from a :meth:`to_state` document."""
        self.free_at_ns = float(state["free_at_ns"])
        self.refresh_backlog_rows = int(state["refresh_backlog_rows"])
        self.mitigation_busy_ns = float(state["mitigation_busy_ns"])
        self.stall_ns = float(state["stall_ns"])
        self.activations = int(state["activations"])
        self.rows_refreshed = int(state["rows_refreshed"])
        self.escalations = int(state["escalations"])
