"""Per-job event fan-out: simulation taps in, SSE subscribers out.

Job driver threads publish what their pool workers report while
subscribers sit in the asyncio loop; the hub is the thread-safe bridge
between the two.  Each job owns one :class:`_Channel` — a monotonic
event counter plus a *bounded* ring of recent events — and any number of
:class:`Subscription` cursors reading from that ring.  A served run's
driver publishes each epoch's events as one batch
(:meth:`EventHub.publish_batch`): one lock, one id per event, one wakeup
per subscriber.

The design is pull-based on purpose: publishers only append to the ring
and set per-subscriber wakeup flags, so **publishing never blocks and
never waits on a client** — a stalled SSE consumer cannot slow the
simulation that feeds it.  The cost lands where it belongs: a subscriber
that falls more than ``backlog`` events behind loses the oldest events,
and its cursor reports exactly how many were dropped (the SSE stream
surfaces that as a ``dropped`` event so clients know their view has a
gap).

Late subscribers replay the ring from its oldest retained event, so a
client attaching mid-run still sees recent history and, for short runs,
the whole stream.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class Event:
    """One published event: monotonic per-job id, name, JSON-able data."""

    id: int
    name: str
    data: dict


class _Channel:
    """One job's event ring + its live subscriptions."""

    def __init__(self, backlog: int) -> None:
        self.events: deque[Event] = deque(maxlen=backlog)
        self.next_id = 0
        self.closed = False
        self.subs: set[Subscription] = set()


class Subscription:
    """A cursor over one channel's ring, consumable from asyncio.

    Iterate with :meth:`next_batch`; ``dropped`` counts ring events that
    aged out before this cursor read them.
    """

    def __init__(self, hub: "EventHub", job_id: str) -> None:
        self._hub = hub
        self.job_id = job_id
        self._cursor = 0
        self.dropped = 0
        self._wakeup = asyncio.Event()
        self._loop = asyncio.get_running_loop()

    def _wake(self) -> None:
        """Set the wakeup flag from any thread."""
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is self._loop:
            self._wakeup.set()
        else:
            self._loop.call_soon_threadsafe(self._wakeup.set)

    def _drain(self) -> tuple[list[Event], bool]:
        """Events at/after the cursor, and the channel's closed flag."""
        with self._hub._lock:
            channel = self._hub._channels.get(self.job_id)
            if channel is None:
                return [], True
            batch = [e for e in channel.events if e.id >= self._cursor]
            if batch:
                oldest = batch[0].id
                if oldest > self._cursor:
                    self.dropped += oldest - self._cursor
                self._cursor = batch[-1].id + 1
            return batch, channel.closed

    async def next_batch(self, timeout: float | None = None
                         ) -> tuple[list[Event], bool]:
        """Wait for events; returns ``(events, done)``.

        ``done=True`` means the channel is closed *and* fully drained —
        the stream is over.  An empty batch with ``done=False`` is a
        ``timeout`` expiry (callers emit an SSE keep-alive comment).
        """
        while True:
            batch, closed = self._drain()
            if batch:
                return batch, False
            if closed:
                return [], True
            self._wakeup.clear()
            # Race window: an event published between _drain and clear
            # would have set the flag before the clear.  Re-check.
            batch, closed = self._drain()
            if batch or closed:
                return batch, closed and not batch
            try:
                await asyncio.wait_for(self._wakeup.wait(), timeout)
            except asyncio.TimeoutError:
                return [], False

    def close(self) -> None:
        """Detach this cursor from its channel."""
        with self._hub._lock:
            channel = self._hub._channels.get(self.job_id)
            if channel is not None:
                channel.subs.discard(self)


class EventHub:
    """Thread-safe registry of per-job event channels."""

    def __init__(self, backlog: int = 512) -> None:
        if backlog < 1:
            raise ValueError(f"backlog must be >= 1, got {backlog}")
        self._backlog = backlog
        self._lock = threading.Lock()
        self._channels: dict[str, _Channel] = {}

    def open(self, job_id: str) -> None:
        """Create the channel for a job (idempotent)."""
        with self._lock:
            self._channels.setdefault(job_id, _Channel(self._backlog))

    def publish(self, job_id: str, name: str, data: dict) -> int:
        """Append one event and wake subscribers; never blocks.

        Safe from any thread.  Returns the event id, or -1 when the
        channel is closed or gone (late tap firings after job teardown
        are dropped silently — the run is already over).
        """
        return self.publish_batch(job_id, [(name, data)])

    def publish_batch(self, job_id: str, events) -> int:
        """Append ``(name, data)`` events in order, under one lock, and
        wake each subscriber once; never blocks.

        A served run's epoch arrives as one batch, so its subscribers
        see it as one batch and its SSE clients as one socket write.
        Returns the last event's id, or -1 when nothing was appended.
        """
        if not events:
            return -1
        with self._lock:
            channel = self._channels.get(job_id)
            if channel is None or channel.closed:
                return -1
            for name, data in events:
                channel.events.append(Event(channel.next_id, name, data))
                channel.next_id += 1
            last = channel.next_id - 1
            subs = list(channel.subs)
        for sub in subs:
            sub._wake()
        return last

    def close(self, job_id: str) -> None:
        """Mark a job's stream finished; subscribers drain then end."""
        with self._lock:
            channel = self._channels.get(job_id)
            if channel is None:
                return
            channel.closed = True
            subs = list(channel.subs)
        for sub in subs:
            sub._wake()

    def drop(self, job_id: str) -> None:
        """Remove a channel entirely (job GC)."""
        with self._lock:
            channel = self._channels.pop(job_id, None)
            subs = list(channel.subs) if channel is not None else []
        for sub in subs:
            sub._wake()

    def subscribe(self, job_id: str) -> Subscription:
        """Attach a cursor (from the event loop) to a job's channel.

        The cursor starts at the ring's oldest retained event, so late
        subscribers get the available history before live events.
        """
        sub = Subscription(self, job_id)
        with self._lock:
            channel = self._channels.get(job_id)
            if channel is not None:
                # Start at the oldest *retained* event: late attachment
                # replays available history without counting the events
                # that aged out before this cursor existed as drops.
                if channel.events:
                    sub._cursor = channel.events[0].id
                else:
                    sub._cursor = channel.next_id
                channel.subs.add(sub)
        return sub

    def channel_stats(self, job_id: str) -> dict:
        """Events published / retained / subscriber count (status doc)."""
        with self._lock:
            channel = self._channels.get(job_id)
            if channel is None:
                return {"published": 0, "retained": 0, "subscribers": 0,
                        "closed": True}
            return {
                "published": channel.next_id,
                "retained": len(channel.events),
                "subscribers": len(channel.subs),
                "closed": channel.closed,
            }


__all__ = ["Event", "EventHub", "Subscription"]
