"""The re-entrant simulation core behind runs and sessions.

Historically the simulator's loop drove a run to completion: generate
every bank's stream for an interval, push it through the engine, repeat.
:class:`SessionCore` inverts that control flow into an explicit state
machine — pending per-bank streams, per-bank cursors, the arrival RNG,
and the :class:`~repro.dram.memory_system.MemorySystem` — whose
:meth:`~SessionCore.advance` method serves *up to* a time or access
budget and can be called again to continue.  Run-to-completion
(:meth:`TraceDrivenSimulator.run <repro.sim.simulator.TraceDrivenSimulator.run>`)
is now simply ``advance()`` with no limits, so the batch engine and the
streaming session API (:mod:`repro.api`) share one loop and one
equivalence argument:

* pausing is exact — within an epoch segment banks are independent and
  the shared totals commute, and epoch boundaries are only crossed when
  the next served access lies beyond them (see
  :func:`repro.sim.engine.advance_batched_streams`);
* resuming is exact — every piece of loop state is explicit, and
  :meth:`to_state` / :meth:`SessionCore.from_state` capture and restore
  it (together with the scheme/bank state protocol) bit-identically.

Streams are generated lazily, one interval at a time, consuming the
arrival RNG in exactly the order the historical loop did (per bank, in
bank order, per interval), so a core that is never paused produces the
byte-identical result history.

Generation itself is de-duplicated through the content-addressed
:mod:`trace store <repro.sim.tracestore>`: before generating an
interval the core consults the store, and a hit hands back zero-copy
memory-mapped views of the byte-exact arrays a previous generation pass
produced — restoring the arrival RNG to its recorded post-generation
state so the consumption order above is preserved.  All N cells of a
scheme-axis grid therefore share one generation pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.dram.memory_system import MemorySystem
from repro.sim.engine import advance_batched_streams, quantize_times_ns
from repro.sim.metrics import RunTotals
from repro.sim.tracestore import open_store, stream_key, stream_key_doc
from repro.testing.faults import fault_point
from repro.workloads.synthetic import interarrival_times_ns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import TraceDrivenSimulator


def merge_streams(
    per_bank: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge per-bank (times, rows) into sorted (times, banks, rows) arrays.

    Bank and row ids stay in integer dtypes throughout (no ``float64``
    round-trip), and one stable argsort on the time column preserves the
    per-bank ordering for tied timestamps.
    """
    if not per_bank:
        return (
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    times = np.concatenate([t for t, _ in per_bank])
    banks = np.concatenate(
        [np.full(len(rows), bank, dtype=np.int64)
         for bank, (_, rows) in enumerate(per_bank)]
    )
    rows = np.concatenate(
        [r.astype(np.int64, copy=False) for _, r in per_bank]
    )
    order = np.argsort(times, kind="stable")
    return times[order], banks[order], rows[order]


class SessionCore:
    """Incremental driver of one experiment's access streams.

    ``sim`` is the configured simulator (spec, system, scheme factory);
    the core serves its
    :meth:`~repro.sim.simulator.TraceDrivenSimulator.stream_plan` and
    keys the trace store by :func:`~repro.sim.tracestore.stream_key_doc`.
    """

    def __init__(self, sim: "TraceDrivenSimulator") -> None:
        self.sim = sim
        self.label, self.full_intensity, self.rows_fn = sim.stream_plan()
        self.engine = sim.engine
        self._banked = self.engine == "batched"
        self.n_banks = sim.n_banks_simulated
        self.n_intervals = sim.n_intervals
        self.epoch_ns = sim.epoch_s * 1e9
        self.memory = MemorySystem(
            sim.config,
            sim._scheme_factory(),
            epoch_s=sim.epoch_s,
            active_banks=self.n_banks,
        )
        sim._last_memory = self.memory
        self.arrival_rng = np.random.Generator(np.random.PCG64(sim.seed))
        #: index of the interval whose streams are loaded (-1 = none yet)
        self.interval = -1
        # Batched engine: per-bank pending arrays + cursors.
        self._bank_times: list[np.ndarray] = []
        self._bank_rows: list[np.ndarray] = []
        self._cursors: list[int] = []
        # Scalar engine: merged pending arrays + one cursor (numpy for
        # searchsorted/suffix capture, lists for the per-event loop).
        self._m_times = np.empty(0, dtype=np.float64)
        self._m_banks = np.empty(0, dtype=np.int64)
        self._m_rows = np.empty(0, dtype=np.int64)
        self._m_times_list: list[float] = []
        self._m_banks_list: list[int] = []
        self._m_rows_list: list[int] = []
        self._m_cursor = 0
        # Position floor carried across snapshot/restore (cursors reset
        # to zero on restore, so served history is otherwise invisible).
        self._position_floor = 0.0
        # Content-addressed generation sharing (None = always generate).
        self._trace_store = open_store()
        if self._trace_store is not None:
            self._trace_key_doc = stream_key_doc(sim)
            self._trace_key = stream_key(self._trace_key_doc)

    # -- interval loading --------------------------------------------------

    def _generate_interval(self, interval: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-bank quantized (times, rows) of one interval.

        Consumes the arrival RNG per bank in bank order — the exact
        historical generation order, which keeps unpaused runs
        byte-identical to the pre-session loop.
        """
        base_ns = interval * self.epoch_ns
        per_bank: list[tuple[np.ndarray, np.ndarray]] = []
        for bank in range(self.n_banks):
            rows = self.rows_fn(bank, interval)
            times = interarrival_times_ns(
                self.arrival_rng, len(rows), self.epoch_ns
            )
            per_bank.append((quantize_times_ns(times + base_ns), rows))
        return per_bank

    def _fetch_interval(self, interval: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """One interval's streams: trace-store hit, or generate (+store).

        A hit restores the arrival RNG to the entry's recorded
        post-generation state, leaving the generator exactly where
        generating would have left it — the chained per-interval states
        are a pure function of the stream key, so hits and misses can
        interleave freely (even across processes) without divergence.
        """
        store = self._trace_store
        if store is None:
            return self._generate_interval(interval)
        key = self._trace_key
        hit = store.get(key, self._trace_key_doc, interval, self.n_banks)
        if hit is not None:
            per_bank, rng_state = hit
            try:
                self.arrival_rng.bit_generator.state = rng_state
            except (ValueError, KeyError, TypeError):
                # A malformed recorded state must degrade to
                # regeneration like any other corrupt entry (numpy
                # validates before mutating, so the RNG is untouched).
                store.drop(key, interval)
            else:
                return per_bank
        per_bank = self._generate_interval(interval)
        store.put(key, self._trace_key_doc, interval, per_bank,
                  self.arrival_rng.bit_generator.state)
        return per_bank

    def _install_streams(
        self, per_bank: list[tuple[np.ndarray, np.ndarray]]
    ) -> None:
        if self._banked:
            self._bank_times = [t for t, _ in per_bank]
            self._bank_rows = [
                r.astype(np.int64, copy=False) for _, r in per_bank
            ]
            self._cursors = [0] * len(per_bank)
        else:
            times, banks, rows = merge_streams(per_bank)
            self._m_times, self._m_banks, self._m_rows = times, banks, rows
            self._m_times_list = times.tolist()
            self._m_banks_list = banks.tolist()
            self._m_rows_list = rows.tolist()
            self._m_cursor = 0

    def _interval_exhausted(self) -> bool:
        if self.interval < 0:
            return True
        if self._banked:
            return all(
                c >= len(t) for c, t in zip(self._cursors, self._bank_times)
            )
        return self._m_cursor >= len(self._m_times_list)

    def _load_next_interval(self) -> bool:
        """Generate and install the next interval; False when done."""
        if self.interval + 1 >= self.n_intervals:
            return False
        self.interval += 1
        self._install_streams(self._fetch_interval(self.interval))
        return True

    @property
    def done(self) -> bool:
        """True once every interval's stream has been fully served."""
        return self.interval + 1 >= self.n_intervals and \
            self._interval_exhausted()

    # -- the re-entrant loop -----------------------------------------------

    def advance(
        self,
        *,
        until_ns: float | None = None,
        max_accesses: int | None = None,
    ) -> int:
        """Serve accesses up to the given limits; returns the count served.

        With no limits, runs to completion.  ``until_ns`` serves every
        access arriving strictly before that time; ``max_accesses``
        bounds the number served in this call.  Pausing at any point and
        continuing later yields the bit-identical final state.
        """
        fault_point("session.advance")
        served = 0
        while True:
            if self._interval_exhausted():
                if not self._load_next_interval():
                    break
            budget = None if max_accesses is None else max_accesses - served
            if budget is not None and budget <= 0:
                break
            if self._banked:
                n = advance_batched_streams(
                    self.memory,
                    list(zip(self._bank_times, self._bank_rows)),
                    self._cursors,
                    until_ns=until_ns,
                    max_accesses=budget,
                )
            else:
                n = self._advance_scalar(until_ns, budget)
            served += n
            if not self._interval_exhausted():
                # A limit stopped the engine inside this interval.
                break
            if n == 0 and self.interval + 1 >= self.n_intervals:
                break
        return served

    def _advance_scalar(
        self, until_ns: float | None, max_accesses: int | None
    ) -> int:
        """Per-event reference loop over the merged pending stream."""
        start = self._m_cursor
        end = len(self._m_times_list)
        if until_ns is not None:
            end = int(
                np.searchsorted(self._m_times, until_ns, side="left")
            )
        if max_accesses is not None:
            end = min(end, start + max_accesses)
        if end <= start:
            return 0
        access = self.memory.access
        times = self._m_times_list
        banks = self._m_banks_list
        rows = self._m_rows_list
        for k in range(start, end):
            # The cursor leads each serve so an epoch tap firing inside
            # ``access`` observes a consistent pending suffix.
            self._m_cursor = k
            access(times[k], banks[k], rows[k])
        self._m_cursor = end
        return end - start

    # -- injection ---------------------------------------------------------

    def inject(
        self, bank: int, times: np.ndarray, rows: np.ndarray
    ) -> int:
        """Splice extra activations into the current interval's stream.

        ``times`` (ns, any order; quantized here) must fall inside the
        current interval's window; ``rows`` are row ids on ``bank``.
        The injected accesses merge into the *pending* suffix in time
        order (existing accesses first on ties) and are served by
        subsequent :meth:`advance` calls exactly as generated traffic
        would be.  Returns the number of accesses injected.
        """
        if self.interval < 0 and not self._load_next_interval():
            raise RuntimeError("cannot inject into a zero-interval run")
        if not 0 <= bank < self.n_banks:
            raise ValueError(
                f"bank {bank} out of range for {self.n_banks} "
                "simulated bank(s)"
            )
        times = quantize_times_ns(np.asarray(times, dtype=np.float64))
        rows = np.asarray(rows, dtype=np.int64)
        if len(times) != len(rows):
            raise ValueError("times and rows must have equal length")
        if len(times) == 0:
            return 0
        order = np.argsort(times, kind="stable")
        times, rows = times[order], rows[order]
        lo = self.interval * self.epoch_ns
        hi = (self.interval + 1) * self.epoch_ns
        if float(times[0]) < lo or float(times[-1]) >= hi:
            raise ValueError(
                f"injected times must lie in the current interval window "
                f"[{lo}, {hi}) ns"
            )
        n_rows = self.sim.config.rows_per_bank
        if int(rows.min()) < 0 or int(rows.max()) >= n_rows:
            raise ValueError(
                f"injected rows out of range for bank with {n_rows} rows"
            )
        if self._banked:
            c = self._cursors[bank]
            pending_t = self._bank_times[bank][c:]
            pending_r = self._bank_rows[bank][c:]
            cat_t = np.concatenate([pending_t, times])
            cat_r = np.concatenate([pending_r, rows])
            new_order = np.argsort(cat_t, kind="stable")
            self._bank_times[bank] = cat_t[new_order]
            self._bank_rows[bank] = cat_r[new_order]
            self._cursors[bank] = 0
        else:
            c = self._m_cursor
            cat_t = np.concatenate([self._m_times[c:], times])
            cat_b = np.concatenate(
                [self._m_banks[c:], np.full(len(rows), bank, dtype=np.int64)]
            )
            cat_r = np.concatenate([self._m_rows[c:], rows])
            new_order = np.argsort(cat_t, kind="stable")
            self._m_times = cat_t[new_order]
            self._m_banks = cat_b[new_order]
            self._m_rows = cat_r[new_order]
            self._m_times_list = self._m_times.tolist()
            self._m_banks_list = self._m_banks.tolist()
            self._m_rows_list = self._m_rows.tolist()
            self._m_cursor = 0
        return len(times)

    # -- metrics -----------------------------------------------------------

    @property
    def accesses_served(self) -> int:
        """Demand activations served so far (all banks)."""
        return self.memory.total_activations

    def position_ns(self) -> float:
        """Arrival time of the most recently served access (0 if none)."""
        last = 0.0
        if self.interval < 0:
            return last
        if self._banked:
            for c, t in zip(self._cursors, self._bank_times):
                if c > 0:
                    last = max(last, float(t[c - 1]))
        elif self._m_cursor > 0:
            last = float(self._m_times_list[self._m_cursor - 1])
        # Served accesses of *earlier* intervals imply at least the
        # epoch base even if the current interval has not started.
        if self.accesses_served:
            last = max(last, self.interval * self.epoch_ns)
        return max(last, self._position_floor)

    def totals(self, elapsed_ns: float | None = None) -> RunTotals:
        """Raw totals; ``elapsed_ns`` defaults to the full run length."""
        memory = self.memory
        if elapsed_ns is None:
            elapsed_ns = self.n_intervals * self.epoch_ns
        return RunTotals(
            scheme=self.sim.scheme_kind,
            workload=self.label,
            scale=self.sim.scale,
            n_banks_simulated=self.n_banks,
            n_intervals=self.n_intervals,
            accesses=self.accesses_served,
            refresh_commands=memory.total_refresh_commands,
            rows_refreshed=memory.total_rows_refreshed,
            stall_ns=memory.total_stall_ns,
            elapsed_ns=elapsed_ns,
            mitigation_busy_ns=memory.total_mitigation_busy_ns,
            full_scale_accesses_per_interval=self.full_intensity,
        )

    # -- checkpointable state ----------------------------------------------

    def to_state(self) -> dict:
        """JSON-serializable capture of the whole loop state.

        Pending streams are stored as their *unserved suffix* verbatim
        (injections included), cursors reset to zero; the arrival RNG
        state covers every not-yet-generated interval.  Quarter-ns-grid
        floats round-trip exactly through JSON.
        """
        doc: dict = {
            "engine": self.engine,
            "interval": self.interval,
            "position_ns": self.position_ns(),
            "rng": {"pcg64": self.arrival_rng.bit_generator.state},
            "memory": self.memory.to_state(),
        }
        if self.interval >= 0:
            if self._banked:
                doc["streams"] = [
                    {
                        "times": t[c:].tolist(),
                        "rows": r[c:].tolist(),
                    }
                    for t, r, c in zip(
                        self._bank_times, self._bank_rows, self._cursors
                    )
                ]
            else:
                c = self._m_cursor
                doc["streams"] = {
                    "times": self._m_times[c:].tolist(),
                    "banks": self._m_banks[c:].tolist(),
                    "rows": self._m_rows[c:].tolist(),
                }
        return doc

    @classmethod
    def from_state(cls, sim: "TraceDrivenSimulator", state: dict) -> "SessionCore":
        """Rebuild a core captured by :meth:`to_state` (same spec)."""
        core = cls(sim)
        if state["engine"] != core.engine:
            raise ValueError(
                f"snapshot was taken on the {state['engine']!r} engine, "
                f"spec selects {core.engine!r}"
            )
        core.arrival_rng.bit_generator.state = state["rng"]["pcg64"]
        core.memory.restore_state(state["memory"])
        core.interval = int(state["interval"])
        core._position_floor = float(state.get("position_ns", 0.0))
        if core.interval >= 0:
            streams = state["streams"]
            if core._banked:
                if len(streams) != core.n_banks:
                    raise ValueError(
                        f"snapshot carries {len(streams)} bank streams, "
                        f"spec simulates {core.n_banks}"
                    )
                core._bank_times = [
                    np.asarray(s["times"], dtype=np.float64) for s in streams
                ]
                core._bank_rows = [
                    np.asarray(s["rows"], dtype=np.int64) for s in streams
                ]
                core._cursors = [0] * core.n_banks
            else:
                core._m_times = np.asarray(streams["times"], dtype=np.float64)
                core._m_banks = np.asarray(streams["banks"], dtype=np.int64)
                core._m_rows = np.asarray(streams["rows"], dtype=np.int64)
                core._m_times_list = core._m_times.tolist()
                core._m_banks_list = core._m_banks.tolist()
                core._m_rows_list = core._m_rows.tolist()
                core._m_cursor = 0
        return core
