"""Tests of the SSE event hub: ordering, replay, and backpressure.

The load-bearing property: publishing never blocks, so a slow or stuck
SSE consumer can never stall the simulation feeding it — it just loses
its oldest events and is told exactly how many.
"""

import asyncio
import threading
import time

from repro.server import EventHub


def run(coro):
    return asyncio.run(coro)


class TestOrderingAndDelivery:
    def test_events_arrive_in_publish_order(self):
        async def main():
            hub = EventHub()
            hub.open("j1")
            sub = hub.subscribe("j1")
            for i in range(5):
                hub.publish("j1", "tick", {"i": i})
            batch, done = await sub.next_batch(timeout=1)
            assert [e.data["i"] for e in batch] == [0, 1, 2, 3, 4]
            assert [e.id for e in batch] == [0, 1, 2, 3, 4]
            assert not done

        run(main())

    def test_batch_publish_numbers_in_order_and_wakes_once(self):
        async def main():
            hub = EventHub()
            hub.open("j1")
            sub = hub.subscribe("j1")
            wakes = []
            wake = sub._wake
            sub._wake = lambda: (wakes.append(1), wake())
            hub.publish("j1", "status", {"i": 0})
            assert hub.publish_batch(
                "j1", [("tick", {"i": 1}), ("tick", {"i": 2})]) == 2
            assert hub.publish_batch("j1", []) == -1  # nothing appended
            assert wakes == [1, 1]  # one per publish call, not per event
            batch, done = await sub.next_batch(timeout=1)
            assert [(e.id, e.name, e.data["i"]) for e in batch] == [
                (0, "status", 0), (1, "tick", 1), (2, "tick", 2)]
            assert not done
            hub.close("j1")
            assert hub.publish_batch("j1", [("tick", {})]) == -1

        run(main())

    def test_late_subscriber_replays_ring(self):
        async def main():
            hub = EventHub()
            hub.open("j1")
            hub.publish("j1", "tick", {"i": 0})
            hub.publish("j1", "tick", {"i": 1})
            sub = hub.subscribe("j1")  # attaches after the fact
            batch, _ = await sub.next_batch(timeout=1)
            assert [e.data["i"] for e in batch] == [0, 1]

        run(main())

    def test_close_drains_then_ends(self):
        async def main():
            hub = EventHub()
            hub.open("j1")
            sub = hub.subscribe("j1")
            hub.publish("j1", "tick", {})
            hub.close("j1")
            batch, done = await sub.next_batch(timeout=1)
            assert len(batch) == 1 and not done  # drain first
            batch, done = await sub.next_batch(timeout=1)
            assert batch == [] and done  # then the stream ends

        run(main())

    def test_timeout_yields_empty_not_done(self):
        async def main():
            hub = EventHub()
            hub.open("j1")
            sub = hub.subscribe("j1")
            batch, done = await sub.next_batch(timeout=0.05)
            assert batch == [] and not done  # keep-alive case

        run(main())

    def test_publish_to_closed_or_missing_channel_is_dropped(self):
        hub = EventHub()
        assert hub.publish("ghost", "tick", {}) == -1
        hub.open("j1")
        hub.close("j1")
        assert hub.publish("j1", "tick", {}) == -1

    def test_wakeup_from_publisher_thread(self):
        # The real topology: asyncio subscriber, worker-thread publisher.
        async def main():
            hub = EventHub()
            hub.open("j1")
            sub = hub.subscribe("j1")

            def publisher():
                time.sleep(0.05)
                hub.publish("j1", "tick", {"from": "thread"})
                hub.close("j1")

            t = threading.Thread(target=publisher)
            t.start()
            batch, done = await sub.next_batch(timeout=5)
            t.join()
            assert batch and batch[0].data == {"from": "thread"}

        run(main())


class TestBackpressure:
    def test_slow_subscriber_drops_oldest_and_counts(self):
        async def main():
            hub = EventHub(backlog=8)
            hub.open("j1")
            sub = hub.subscribe("j1")
            for i in range(20):  # overflow the ring before reading
                hub.publish("j1", "tick", {"i": i})
            batch, _ = await sub.next_batch(timeout=1)
            # Only the newest `backlog` events survive; the cursor knows
            # exactly how many it lost.
            assert [e.data["i"] for e in batch] == list(range(12, 20))
            assert sub.dropped == 12

        run(main())

    def test_publisher_never_blocks_on_stuck_subscriber(self):
        async def main():
            hub = EventHub(backlog=4)
            hub.open("j1")
            hub.subscribe("j1")  # never read from: maximally stuck
            start = time.monotonic()
            for i in range(10_000):
                hub.publish("j1", "tick", {"i": i})
            elapsed = time.monotonic() - start
            # 10k publishes into a full ring with a dead client must be
            # effectively free (no waiting on the consumer).
            assert elapsed < 2.0
            assert hub.channel_stats("j1")["published"] == 10_000
            assert hub.channel_stats("j1")["retained"] == 4

        run(main())

    def test_fresh_subscriber_unaffected_by_anothers_lag(self):
        async def main():
            hub = EventHub(backlog=8)
            hub.open("j1")
            laggard = hub.subscribe("j1")
            for i in range(30):
                hub.publish("j1", "tick", {"i": i})
            fresh = hub.subscribe("j1")
            batch, _ = await fresh.next_batch(timeout=1)
            assert [e.data["i"] for e in batch] == list(range(22, 30))
            assert fresh.dropped == 0  # per-cursor, not shared
            batch, _ = await laggard.next_batch(timeout=1)
            assert laggard.dropped == 22

        run(main())


class TestLifecycle:
    def test_open_is_idempotent(self):
        hub = EventHub()
        hub.open("j1")
        hub.publish("j1", "tick", {})
        hub.open("j1")  # must not reset the ring
        assert hub.channel_stats("j1")["published"] == 1

    def test_drop_ends_subscribers(self):
        async def main():
            hub = EventHub()
            hub.open("j1")
            sub = hub.subscribe("j1")
            hub.drop("j1")
            batch, done = await sub.next_batch(timeout=1)
            assert batch == [] and done

        run(main())

    def test_subscription_close_detaches(self):
        async def main():
            hub = EventHub()
            hub.open("j1")
            sub = hub.subscribe("j1")
            assert hub.channel_stats("j1")["subscribers"] == 1
            sub.close()
            assert hub.channel_stats("j1")["subscribers"] == 0

        run(main())

    def test_channel_stats_for_missing_channel(self):
        assert EventHub().channel_stats("ghost") == {
            "published": 0, "retained": 0, "subscribers": 0,
            "closed": True,
        }
