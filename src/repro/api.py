"""Streaming session API: incremental, checkpointable simulation runs.

The counter trees of the paper are *online* structures — they evolve per
access and per refresh window — and this module makes that observable:
instead of one run-to-completion call, :func:`open_session` returns a
:class:`Session` that can be advanced incrementally, observed while it
runs, perturbed mid-stream, checkpointed to a JSON document, and resumed
(or forked) bit-identically::

    from repro import ExperimentSpec, SchemeSpec, open_session

    session = open_session(ExperimentSpec(
        scheme=SchemeSpec.create("drcat", n_counters=64),
        workload="blackscholes",
        n_intervals=8,
    ))

    @session.on_epoch
    def progress(event):
        print(f"epoch {event.epoch}: {100 * event.delta.eto:.3f}% ETO")

    session.advance(session.total_ns / 2)        # run half the horizon
    session.inject_attack("kernel03", "heavy")   # mid-run perturbation
    snap = session.snapshot()                    # checkpoint (JSON-able)
    fork = Session.restore(snap)                 # independent fork
    result = session.result()                    # finish -> SimulationResult

**Equivalence guarantees** (enforced by ``repro verify --session`` and
the property tests):

1. ``Session(spec).result()`` is bit-identical to
   ``run_spec(spec)`` — ``run_spec`` *is* a session advanced to
   completion.  A session is one object per run: it extends the
   :class:`~repro.sim.session.SessionCore` built from its spec (the
   loop, geometry and checkpointable state) with the observer taps,
   injection, snapshot documents and the final result.
2. ``snapshot -> restore -> finish`` is bit-identical to an
   uninterrupted run, for every registered scheme, on both engines —
   every scheme implements the ``SchemeState`` protocol
   (``to_state``/``restore_state``), and the core's loop state (per-bank
   cursors, arrival RNG, epoch clock) is explicit and laid out the same
   way on both engines.  Snapshots (format 3) hold the pending streams
   by reference: restoring regenerates them from the spec and checks a
   digest and the arrival RNG, so a snapshot whose streams cannot be
   rebuilt exactly is refused, never misread.
3. Observer taps are read-only: registering them never changes the
   numbers.  Taps are also *isolated* — a raising callback is logged
   and detached, never allowed to abort the simulation it observes.

Injection (:meth:`Session.inject` / :meth:`Session.inject_attack`) is
the one deliberate exception — it *adds* traffic, which is its purpose;
injections are logged in subsequent snapshots and replayed on restore.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.base import RefreshCommand
from repro.experiments.cache import publish
from repro.report.config import RunContext
from repro.sim.engine import TIME_QUANTUM_NS, quantize_times_ns
from repro.sim.metrics import RunTotals, SimulationResult
from repro.sim.session import SessionCore
from repro.sim.simulator import run_result
from repro.workloads.attacks import attack_stream, get_kernel

logger = logging.getLogger(__name__)

#: Bump on incompatible snapshot-layout changes; :meth:`Session.restore`
#: rejects other versions with a regeneration hint.  Version 3 records
#: each bank's stream position (interval, arrival-RNG state, injection
#: log, cursors, digest) instead of the pending accesses that version 2
#: stored.
SNAPSHOT_VERSION = 3
SNAPSHOT_KIND = "repro-session-snapshot"


class SessionError(RuntimeError):
    """A session was driven in an unsupported way."""


@dataclass(frozen=True)
class EpochEvent:
    """One auto-refresh epoch boundary, as seen by ``on_epoch`` taps.

    ``totals`` is the cumulative :class:`RunTotals` up to (and
    including) this epoch; ``delta`` covers this epoch alone, with
    ``elapsed_ns`` equal to one epoch, so ``delta.eto`` is the epoch's
    own execution-time overhead.
    """

    epoch: int
    time_ns: float
    totals: RunTotals
    delta: RunTotals


@dataclass(frozen=True)
class MitigationEvent:
    """One refresh command applied by the substrate (``on_mitigation``)."""

    time_ns: float
    bank: int
    low: int
    high: int
    reason: str
    rows: int


class Session(SessionCore):
    """A resumable, observable simulation run opened from one spec.

    Construct via :func:`open_session` (or directly); drive with
    :meth:`step` / :meth:`advance`; finish with :meth:`result`.
    ``context`` selects the trace store the run reads and fills
    (default: :meth:`RunContext.from_env
    <repro.report.config.RunContext.from_env>`).  The loop, the
    geometry (``epoch_ns``, ``total_ns``, ``position_ns``) and the
    checkpointable state are the :class:`SessionCore` it extends; this
    class adds the observer taps, injection, snapshot documents and the
    final result.
    """

    def __init__(self, spec, context: RunContext | None = None) -> None:
        super().__init__(spec, context)
        self._epoch_taps: list[Callable[[EpochEvent], None]] = []
        self._mitigation_taps: list[Callable[[MitigationEvent], None]] = []
        # Counters as of the last epoch boundary, rolled on every
        # boundary (taps or not) so a late-registered tap's first delta
        # still covers exactly one epoch; snapshots carry it so resumed
        # sessions report full-epoch deltas too.
        self._epoch_baseline = self._counts()
        self.memory.on_epoch = self._on_epoch_boundary
        self._result: SimulationResult | None = None

    def result(self) -> SimulationResult:
        """Finish the run (if needed) and return the final metrics.

        Bit-identical to ``run_spec(spec)`` on the same spec, however
        the session was paused, observed, or checkpoint-cycled along the
        way (injections excepted — they add real traffic).  Finishing
        unhooks the session from its memory system, so a finished
        session is freed as soon as it is unreferenced.
        """
        if self._result is None:
            memory = self.memory
            self.advance()
            # The final interval's boundary is never crossed by an
            # access; close the stream for epoch observers with one
            # synthetic final event covering the last epoch.
            if self._epoch_taps and \
                    memory.epochs_completed < self.n_intervals:
                self._dispatch_epoch(self.n_intervals)
            self._result = run_result(self.spec, self.totals(), memory)
            # The hooks are bound methods of this session: left in
            # place they form a session <-> memory reference cycle.
            memory.on_epoch = memory.on_refresh = None
        return self._result

    def metrics(self) -> RunTotals:
        """Cumulative raw totals at the current position.

        Mid-epoch, ``elapsed_ns`` is the last served arrival time (the
        best partial-horizon estimate); at completion it is the full
        horizon, making the final :meth:`metrics` equal to
        ``result().totals``.
        """
        if self.done:
            return self.totals()
        return self.totals(elapsed_ns=max(self.position_ns, TIME_QUANTUM_NS))

    # -- injection ---------------------------------------------------------

    def inject(
        self,
        rows,
        *,
        bank: int = 0,
        times_ns=None,
    ) -> int:
        """Splice extra row activations into the live run.

        ``rows`` is a sequence of row ids on ``bank``.  ``times_ns``
        (any order; quantized here) gives their arrival times, which
        must fall inside the current interval's window; when omitted
        the burst is spread uniformly over the remainder of the current
        interval.  The injected accesses merge into the pending stream
        in time order (existing accesses first on ties) and are served
        by later :meth:`advance` calls exactly as generated traffic
        would be.  Returns the number of accesses injected.
        """
        if self.interval < 0 and not self._load_next_interval():
            raise RuntimeError("cannot inject into a zero-interval run")
        rows = np.asarray(rows, dtype=np.int64)
        lo = self.interval * self.epoch_ns
        hi = (self.interval + 1) * self.epoch_ns
        if times_ns is None:
            start = max(self.position_ns, lo)
            span = hi - start
            if span <= 0:
                raise SessionError("no room left in the current interval")
            # Strictly inside (start, end): offset by half a slot.
            times_ns = start + (np.arange(len(rows)) + 0.5) * (
                span / max(1, len(rows))
            )
        if not 0 <= bank < self.n_banks:
            raise ValueError(
                f"bank {bank} out of range for {self.n_banks} "
                "simulated bank(s)"
            )
        times = quantize_times_ns(np.asarray(times_ns, dtype=np.float64))
        if len(times) != len(rows):
            raise ValueError("times and rows must have equal length")
        if len(times) == 0:
            return 0
        order = np.argsort(times, kind="stable")
        times, rows = times[order], rows[order]
        if float(times[0]) < lo or float(times[-1]) >= hi:
            raise ValueError(
                f"injected times must lie in the current interval window "
                f"[{lo}, {hi}) ns"
            )
        n_rows = self.config.rows_per_bank
        if int(rows.min()) < 0 or int(rows.max()) >= n_rows:
            raise ValueError(
                f"injected rows out of range for bank with {n_rows} rows"
            )
        self._splice(bank, times, rows)
        return len(times)

    def inject_attack(
        self,
        kernel: str,
        mode: str = "heavy",
        *,
        n_accesses: int | None = None,
        bank: int = 0,
        seed_salt: int = 0,
    ) -> int:
        """Inject one attack-kernel burst (Figure 13 kernels) mid-run.

        The burst's size defaults to the spec workload's (scaled)
        per-interval intensity; its rows come from the named kernel
        mixed with the spec's benign workload at the mode's attack
        fraction.  Returns the number of accesses injected.
        """
        kernel_obj = get_kernel(kernel)
        benign = self.spec.resolve_workload_model()
        if n_accesses is None:
            n_accesses = max(1, int(round(benign.intensity / self.spec.scale)))
        rng = np.random.Generator(
            np.random.PCG64(kernel_obj.seed * 86_028_121 + bank * 53 + seed_salt)
        )
        rows = attack_stream(
            kernel_obj,
            mode,
            self.config.rows_per_bank,
            n_accesses,
            bank=bank,
            benign=benign,
            rng=rng,
        )
        return self.inject(rows, bank=bank)

    # -- observer taps -----------------------------------------------------

    def on_epoch(
        self, tap: Callable[[EpochEvent], None]
    ) -> Callable[[EpochEvent], None]:
        """Register a per-epoch observer (usable as a decorator)."""
        self._epoch_taps.append(tap)
        return tap

    def on_mitigation(
        self, tap: Callable[[MitigationEvent], None]
    ) -> Callable[[MitigationEvent], None]:
        """Register a per-refresh-command observer (decorator-friendly)."""
        self._mitigation_taps.append(tap)
        if self.memory.on_refresh is None:
            self.memory.on_refresh = self._dispatch_mitigation
        return tap

    def _on_epoch_boundary(self, epoch: int) -> None:
        """Epoch tick: always roll the baseline; dispatch if observed."""
        now = self._counts()
        base = self._epoch_baseline
        self._epoch_baseline = now
        if self._epoch_taps:
            self._dispatch_epoch(epoch, now, base)

    def _dispatch_epoch(
        self, epoch: int, now: dict | None = None, base: dict | None = None
    ) -> None:
        if now is None:
            now = self._counts()
        if base is None:
            base = self._epoch_baseline
            self._epoch_baseline = now
        time_ns = epoch * self.epoch_ns
        delta = {key: now[key] - base[key] for key in now}
        event = EpochEvent(
            epoch=epoch,
            time_ns=time_ns,
            totals=self._totals(now, epoch, time_ns),
            delta=self._totals(delta, 1, self.epoch_ns),
        )
        self._dispatch_isolated(self._epoch_taps, "on_epoch", event)

    def _dispatch_mitigation(
        self, bank: int, time_ns: float, cmd: RefreshCommand, rows: int
    ) -> None:
        event = MitigationEvent(
            time_ns=time_ns,
            bank=bank,
            low=cmd.low,
            high=cmd.high,
            reason=cmd.reason,
            rows=rows,
        )
        self._dispatch_isolated(self._mitigation_taps, "on_mitigation", event)

    def _dispatch_isolated(self, taps: list, name: str, event) -> None:
        """Deliver one event to every tap, isolating each callback.

        Observers are read-only bystanders; a raising one must never
        abort the simulation it is watching (the SSE hub in
        :mod:`repro.server` hangs arbitrary client code off these taps).
        The offender is logged with its traceback and detached — once a
        callback has thrown, its internal state is suspect and replaying
        every subsequent event into it would just spam the log.
        """
        for tap in list(taps):
            try:
                tap(event)
            except Exception:
                logger.exception(
                    "%s observer %r raised; detaching it (the run "
                    "continues)", name, tap,
                )
                try:
                    taps.remove(tap)
                except ValueError:
                    pass

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-serializable checkpoint of the whole run state.

        Safe to take at any pause point *and* from inside an
        ``on_epoch`` tap (epoch boundaries are clean cut points).
        Restoring it — in this process or another — continues the run
        bit-identically; restoring it twice forks two independent
        continuations.
        """
        core = self.to_state()
        core["epoch_baseline"] = dict(self._epoch_baseline)
        return {
            "kind": SNAPSHOT_KIND,
            "snapshot_version": SNAPSHOT_VERSION,
            "spec": self.spec.to_dict(),
            "core": core,
        }

    @classmethod
    def restore(cls, snapshot: dict,
                context: RunContext | None = None) -> "Session":
        """Rebuild a live session from a :meth:`snapshot` document.

        Raises :class:`SessionError` for a document that is not a
        snapshot of this version or lacks (or mistypes) a field, and
        :class:`ValueError` for one that does not fit its spec (another
        engine, or streams this build does not regenerate exactly).
        """
        if not isinstance(snapshot, dict) or \
                snapshot.get("kind") != SNAPSHOT_KIND:
            raise SessionError(
                "not a session snapshot (expected a dict with "
                f"kind={SNAPSHOT_KIND!r})"
            )
        version = snapshot.get("snapshot_version")
        if version != SNAPSHOT_VERSION:
            raise SessionError(
                f"snapshot_version {version} is not supported (this "
                f"build reads version {SNAPSHOT_VERSION}); re-create "
                "the snapshot with this build"
            )
        try:
            session = cls(snapshot["spec"], context)
            core = snapshot["core"]
            session.restore_state(core)
            if "epoch_baseline" in core:
                session._epoch_baseline = dict(core["epoch_baseline"])
            else:
                session._epoch_baseline = session._counts()
            return session
        except KeyError as exc:
            raise SessionError(
                f"malformed snapshot: missing field {exc.args[0]!r}"
            ) from None
        except TypeError as exc:
            raise SessionError(
                f"malformed snapshot: mistyped field ({exc})"
            ) from None

    def save(self, path) -> Path:
        """Write :meth:`snapshot` as JSON; returns the path.

        The write is atomic (temp file + rename): a process killed
        mid-save can leave stale ``*.tmp`` residue but never a torn
        snapshot at the destination — the previous snapshot, if any,
        survives intact.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = (json.dumps(self.snapshot(), separators=(",", ":"))
                + "\n").encode("utf-8")
        return publish(path, lambda handle: handle.write(data))

    @classmethod
    def load(cls, path, context: RunContext | None = None) -> "Session":
        """Resume a session saved by :meth:`save`."""
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SessionError(f"{path}: not valid JSON ({exc})") from None
        return cls.restore(doc, context)


def open_session(spec, **overrides) -> Session:
    """Open a streaming :class:`Session` over one experiment spec.

    ``spec`` is an :class:`~repro.experiments.ExperimentSpec` (or its
    serialized dict form); keyword ``overrides`` replace spec fields
    first (``open_session(spec, n_intervals=32)``).
    """
    from dataclasses import replace

    from repro.experiments.spec import ExperimentSpec

    if isinstance(spec, dict):
        spec = ExperimentSpec.from_dict(spec)
    if overrides:
        spec = replace(spec, **overrides)
    return Session(spec)


__all__ = [
    "SNAPSHOT_VERSION",
    "SNAPSHOT_KIND",
    "SessionError",
    "EpochEvent",
    "MitigationEvent",
    "Session",
    "open_session",
]
