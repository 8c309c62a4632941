"""The re-entrant simulation core behind every run.

:class:`SessionCore` is one run, built from its
:class:`~repro.experiments.ExperimentSpec`: an explicit state machine —
pending per-bank streams, per-bank cursors, the arrival RNG, and the
:class:`~repro.dram.memory_system.MemorySystem` — whose
:meth:`~SessionCore.advance` method serves *up to* a time or access
budget and can be called again to continue.  Every run is a
:class:`~repro.api.Session`, the core's subclass with the public
surface: :func:`~repro.experiments.run_spec` advances one to
completion, the streaming API advances it step by step.
The engine is only a driver function from :mod:`repro.sim.engine`,
picked by name; stream layout, cursors, injection and snapshots are the
same for both engines, which therefore share one loop and one
equivalence argument:

* pausing is exact — within an epoch segment banks are independent and
  the shared totals commute, and epoch boundaries are only crossed when
  the next served access lies beyond them (see
  :func:`repro.sim.engine.advance_batched_streams`);
* resuming is exact — every piece of loop state is explicit, and
  :meth:`~SessionCore.to_state` / :meth:`~SessionCore.restore_state`
  capture and restore it (together with the scheme/bank state protocol)
  bit-identically.

Snapshots hold the loaded interval *by reference*: the stream is a pure
function of the spec and the arrival-RNG state before the interval was
fetched, so a snapshot records that state, the per-bank cursors and a
log of the accesses injected into it instead of the pending
accesses.  Restoring re-fetches the interval (a trace-store hit or a
regeneration), replays the log, and refuses the snapshot unless a
digest of the rebuilt pending streams and the arrival RNG both match
what was recorded.

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

import hashlib
from typing import TYPE_CHECKING

import numpy as np

from repro.dram.config import REFRESH_INTERVAL_S
from repro.dram.memory_system import MemorySystem
from repro.experiments.spec import ExperimentSpec
from repro.sim import simulator
from repro.sim.engine import (
    advance_batched_streams,
    advance_scalar_streams,
    quantize_times_ns,
)
from repro.sim.metrics import RunTotals
from repro.sim.tracestore import open_store, stream_key, stream_key_doc
from repro.testing.faults import fault_point
from repro.workloads.synthetic import interarrival_times_ns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.report.config import RunContext

#: The stream driver of each engine (one signature, one contract).
_DRIVERS = {
    "scalar": advance_scalar_streams,
    "batched": advance_batched_streams,
}


class SessionCore:
    """Incremental driver of one experiment's access streams.

    Built from ``spec`` (an :class:`~repro.experiments.ExperimentSpec`
    or its dict form) alone: the system config, the simulated banks (at
    most the system's), the compressed epoch, and a memory system whose
    banks run :func:`~repro.sim.simulator.scheme_factory`'s schemes.
    The core serves :func:`~repro.sim.simulator.stream_plan` and keys
    the trace store ``context`` selects (None: the environment's) by
    :func:`~repro.sim.tracestore.stream_key_doc`.
    """

    def __init__(self, spec, context: "RunContext | None" = None) -> None:
        if isinstance(spec, dict):
            spec = ExperimentSpec.from_dict(spec)
        if not isinstance(spec, ExperimentSpec):
            raise TypeError(
                "a run is built from a repro.experiments.ExperimentSpec "
                f"(or its dict form), not {type(spec).__name__}"
            )
        self.spec = spec
        self.config = spec.resolve_system()
        self.label, self.full_intensity, self.rows_fn = \
            simulator.stream_plan(spec)
        self._driver = _DRIVERS[spec.engine]
        self.n_banks = simulator.simulated_banks(spec)
        self.n_intervals = spec.n_intervals
        epoch_s = REFRESH_INTERVAL_S / spec.scale
        self.epoch_ns = epoch_s * 1e9
        self.memory = MemorySystem(
            self.config,
            simulator.scheme_factory(spec),
            epoch_s=epoch_s,
            active_banks=self.n_banks,
        )
        self.arrival_rng = np.random.Generator(np.random.PCG64(spec.seed))
        #: index of the interval whose streams are loaded (-1 = none yet)
        self.interval = -1
        #: per-bank pending (times, rows) of the loaded interval, and
        #: per-bank cursors to the next unserved access
        self._streams: list[tuple[np.ndarray, np.ndarray]] = []
        self._cursors: list[int] = []
        # What a snapshot records instead of the streams: the arrival-RNG
        # state just before the loaded interval was fetched, and every
        # (bank, cursor, times, rows) spliced into it since.
        self._interval_rng: dict | None = None
        self._injections: list[tuple[int, int, np.ndarray, np.ndarray]] = []
        # Content-addressed generation sharing (None = always generate).
        self._trace_store = open_store(context)
        if self._trace_store is not None:
            self._trace_key_doc = stream_key_doc(spec)
            self._trace_key = stream_key(self._trace_key_doc)

    @property
    def total_ns(self) -> float:
        """The full simulated horizon (``n_intervals`` epochs)."""
        return self.n_intervals * self.epoch_ns

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

    def _stored_interval(
        self, interval: int
    ) -> list[tuple[np.ndarray, np.ndarray]] | None:
        """One interval's streams from the trace store, or None (miss).

        A hit restores the arrival RNG to the entry's recorded
        post-generation state, leaving the generator exactly where
        generating would have left it — the chained per-interval states
        are a pure function of the stream key, so hits and misses can
        interleave freely (even across processes) without divergence.
        """
        store = self._trace_store
        if store is None:
            return None
        hit = store.get(self._trace_key, self._trace_key_doc, interval,
                        self.n_banks)
        if hit is None:
            return None
        per_bank, rng_state = hit
        try:
            self.arrival_rng.bit_generator.state = rng_state
        except (ValueError, KeyError, TypeError):
            # A malformed recorded state must degrade to regeneration
            # like any other corrupt entry (numpy validates before
            # mutating, so the RNG is untouched).
            store.drop(self._trace_key, interval)
            return None
        return per_bank

    def _publish_interval(
        self, interval: int, per_bank: list[tuple[np.ndarray, np.ndarray]]
    ) -> None:
        """Store a freshly generated interval for later hits."""
        if self._trace_store is not None:
            self._trace_store.put(self._trace_key, self._trace_key_doc,
                                  interval, per_bank,
                                  self.arrival_rng.bit_generator.state)

    def _fetch_interval(self, interval: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """One interval's streams: trace-store hit, or generate (+store)."""
        per_bank = self._stored_interval(interval)
        if per_bank is None:
            per_bank = self._generate_interval(interval)
            self._publish_interval(interval, per_bank)
        return per_bank

    def _install_streams(
        self, per_bank: list[tuple[np.ndarray, np.ndarray]]
    ) -> None:
        self._streams = [
            (t, r.astype(np.int64, copy=False)) for t, r in per_bank
        ]
        self._cursors = [0] * len(per_bank)

    def _interval_exhausted(self) -> bool:
        return self.interval < 0 or all(
            c >= len(t) for c, (t, _) in zip(self._cursors, self._streams)
        )

    def _load_next_interval(self) -> bool:
        """Generate and install the next interval; False when done."""
        if self.interval + 1 >= self.n_intervals:
            return False
        self.interval += 1
        self._interval_rng = self.arrival_rng.bit_generator.state
        self._injections = []
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
        until_ns: float | None = None,
        *,
        max_accesses: int | None = None,
    ) -> int:
        """Serve accesses up to the given limits; returns the count served.

        With no limits, runs to completion.  ``until_ns`` serves every
        access arriving strictly before that time; ``max_accesses``
        bounds the number served in this call.  The epoch clock only
        moves as served accesses push it, so advancing to a quiet time
        leaves later boundaries uncrossed.  Pausing at any point and
        continuing later yields the bit-identical final state.
        """
        fault_point("session.advance")
        if until_ns is not None:
            until_ns = float(until_ns)
        served = 0
        while True:
            if self._interval_exhausted():
                if not self._load_next_interval():
                    break
            budget = None if max_accesses is None else max_accesses - served
            if budget is not None and budget <= 0:
                break
            n = self._driver(
                self.memory,
                self._streams,
                self._cursors,
                until_ns=until_ns,
                max_accesses=budget,
            )
            served += n
            if not self._interval_exhausted():
                # A limit stopped the engine inside this interval.
                break
            if n == 0 and self.interval + 1 >= self.n_intervals:
                break
        return served

    def step(self, n: int = 1) -> int:
        """Serve up to ``n`` further accesses; returns the count served."""
        if n < 0:
            raise ValueError(f"step count must be >= 0, got {n}")
        return self.advance(max_accesses=n)

    def run(self) -> "SessionCore":
        """Serve everything that remains; returns ``self`` for chaining."""
        self.advance()
        return self

    def _splice(self, bank: int, times: np.ndarray, rows: np.ndarray) -> None:
        """Log, then merge sorted accesses into ``bank``'s pending suffix.

        Injected accesses go after existing ones on equal times; the log
        is what a snapshot records and a restore replays.
        """
        c = self._cursors[bank]
        self._injections.append((bank, c, times, rows))
        pending_t, pending_r = self._streams[bank]
        cat_t = np.concatenate([pending_t[c:], times])
        cat_r = np.concatenate([pending_r[c:], rows])
        order = np.argsort(cat_t, kind="stable")
        self._streams[bank] = (cat_t[order], cat_r[order])
        self._cursors[bank] = 0

    # -- metrics -----------------------------------------------------------

    @property
    def accesses_served(self) -> int:
        """Demand activations served so far (all banks)."""
        return self.memory.total_activations

    @property
    def position_ns(self) -> float:
        """Arrival time of the most recently served access (0 if none)."""
        last = 0.0
        if self.interval < 0:
            return last
        for c, (t, _) in zip(self._cursors, self._streams):
            if c > 0:
                last = max(last, float(t[c - 1]))
        # Served accesses of *earlier* intervals imply at least the
        # epoch base even if the current interval has not started.
        if self.accesses_served:
            last = max(last, self.interval * self.epoch_ns)
        return last

    def _counts(self) -> dict[str, float]:
        """The memory system's cumulative counters."""
        memory = self.memory
        return {
            "accesses": memory.total_activations,
            "refresh_commands": memory.total_refresh_commands,
            "rows_refreshed": memory.total_rows_refreshed,
            "stall_ns": memory.total_stall_ns,
            "mitigation_busy_ns": memory.total_mitigation_busy_ns,
        }

    def _totals(self, counts: dict, n_intervals: int,
                elapsed_ns: float) -> RunTotals:
        """This run's totals of ``counts`` (a :meth:`_counts` dict, or
        the difference of two) over ``n_intervals`` epochs."""
        return RunTotals(
            scheme=self.spec.scheme.kind,
            workload=self.label,
            scale=self.spec.scale,
            n_banks_simulated=self.n_banks,
            n_intervals=n_intervals,
            accesses=int(counts["accesses"]),
            refresh_commands=int(counts["refresh_commands"]),
            rows_refreshed=int(counts["rows_refreshed"]),
            stall_ns=counts["stall_ns"],
            elapsed_ns=elapsed_ns,
            mitigation_busy_ns=counts["mitigation_busy_ns"],
            full_scale_accesses_per_interval=self.full_intensity,
        )

    def totals(self, elapsed_ns: float | None = None) -> RunTotals:
        """Raw totals; ``elapsed_ns`` defaults to the full run length."""
        if elapsed_ns is None:
            elapsed_ns = self.total_ns
        return self._totals(self._counts(), self.n_intervals, elapsed_ns)

    # -- checkpointable state ----------------------------------------------

    def _pending_digest(self) -> str:
        """blake2b-128 of every bank's pending suffix, times then rows."""
        digest = hashlib.blake2b(digest_size=16)
        for (t, r), c in zip(self._streams, self._cursors):
            digest.update(t[c:].tobytes())
            digest.update(r[c:].tobytes())
        return digest.hexdigest()

    def to_state(self) -> dict:
        """JSON-serializable capture of the whole loop state.

        The loaded interval is recorded by reference, not by content:
        the arrival-RNG state before it was fetched, the injection log,
        the per-bank cursors and a digest of the pending suffixes.  The
        current arrival RNG state covers every not-yet-generated
        interval.  The layout is the same on both engines; the engine
        name is only a tag that :meth:`restore_state` checks against the
        spec.  Quarter-ns-grid floats round-trip exactly through JSON.
        """
        doc: dict = {
            "engine": self.spec.engine,
            "interval": self.interval,
            "rng": {"pcg64": self.arrival_rng.bit_generator.state},
            "memory": self.memory.to_state(),
        }
        if self.interval >= 0:
            doc["interval_rng"] = {"pcg64": self._interval_rng}
            doc["injections"] = [
                [int(bank), int(cursor), times.tolist(), rows.tolist()]
                for bank, cursor, times, rows in self._injections
            ]
            doc["cursors"] = [int(c) for c in self._cursors]
            doc["digest"] = self._pending_digest()
        return doc

    def restore_state(self, state: dict) -> None:
        """Put a fresh core (same spec) in the state :meth:`to_state`
        captured.

        Sets the arrival RNG to the recorded pre-interval state and
        fetches the interval exactly as the live run did (trace-store
        hit or regeneration), replays the injection log, then sets the
        cursors.  Raises :class:`ValueError` unless the rebuilt pending
        suffixes match the recorded digest and the arrival RNG matches
        the recorded state, so a snapshot is never misread — e.g. one
        taken where the stream generator draws differently.  A
        regenerated interval is published to the trace store only once
        it has passed both checks.
        """
        if state["engine"] != self.spec.engine:
            raise ValueError(
                f"snapshot was taken on the {state['engine']!r} engine, "
                f"spec selects {self.spec.engine!r}"
            )
        self.memory.restore_state(state["memory"])
        rng_state = state["rng"]["pcg64"]
        interval = int(state["interval"])
        if interval < 0:
            self.arrival_rng.bit_generator.state = rng_state
            return
        self.interval = interval
        self._interval_rng = state["interval_rng"]["pcg64"]
        self.arrival_rng.bit_generator.state = self._interval_rng
        per_bank = self._stored_interval(interval)
        generated = per_bank is None
        if generated:
            per_bank = self._generate_interval(interval)
        self._install_streams(per_bank)
        for bank, cursor, times, rows in state["injections"]:
            self._cursors[bank] = int(cursor)
            self._splice(bank, np.asarray(times, dtype=np.float64),
                         np.asarray(rows, dtype=np.int64))
        cursors = [int(c) for c in state["cursors"]]
        if len(cursors) != self.n_banks or not all(
            0 <= c <= len(t) for c, (t, _) in zip(cursors, self._streams)
        ):
            raise ValueError(
                f"snapshot cursors {cursors} do not fit the "
                f"{self.n_banks} bank stream(s) of interval {interval}"
            )
        self._cursors = cursors
        if self._pending_digest() != state["digest"]:
            raise ValueError(
                f"snapshot digest mismatch: interval {interval} rebuilds "
                "to a different pending stream than was recorded"
            )
        if self.arrival_rng.bit_generator.state != rng_state:
            raise ValueError(
                "snapshot arrival-RNG mismatch: interval "
                f"{interval} was not generated from the recorded state"
            )
        if generated:
            self._publish_interval(interval, per_bank)
