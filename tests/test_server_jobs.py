"""Job-table lifecycle tests: submit → running → done/failed → GC,
plus in-flight content-hash dedup under the table's one lock."""

import sys
import threading

import pytest

from repro.server import EventHub
from repro.server.jobs import JOB_STATES, Job, JobTable


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture()
def table():
    clock = FakeClock()
    t = JobTable(EventHub(), clock=clock, max_jobs=4, ttl_s=100.0)
    t.clock = clock  # test handle
    return t


HASH = "a" * 16


class TestLifecycle:
    def test_full_lifecycle_stamps(self, table):
        job, owner = table.submit("run", HASH, 1)
        assert owner and job.status == "queued"
        table.clock.now = 1.0
        table.mark_running(job.id)
        assert table.get(job.id).status == "running"
        table.clock.now = 3.5
        table.mark_done(job.id, result=None)
        final = table.get(job.id)
        assert final.status == "done" and final.finished
        doc = final.to_dict(include_results=False)
        assert doc["queued_s"] == 1.0
        assert doc["elapsed_s"] == 2.5

    def test_failure_records_error(self, table):
        job, _ = table.submit("run", HASH, 1)
        table.mark_running(job.id)
        table.mark_failed(job.id, "ValueError: boom")
        final = table.get(job.id)
        assert final.status == "failed"
        assert final.error == "ValueError: boom"
        assert final.to_dict()["error"] == "ValueError: boom"

    def test_states_constant_matches_counts_keys(self, table):
        assert tuple(table.counts()) == JOB_STATES

    def test_job_ids_embed_the_content_hash(self, table):
        job, _ = table.submit("run", HASH, 1)
        assert job.id.endswith(HASH[:8])


class TestDedup:
    def test_concurrent_identical_submissions_share_one_job(self, table):
        first, owner1 = table.submit("run", HASH, 1)
        second, owner2 = table.submit("run", HASH, 1)
        assert owner1 and not owner2
        assert second is first
        assert first.attached == 1
        assert table.dedup() == {"inflight": 1, "shared": 1}

    def test_a_submit_racing_an_identical_one_attaches_to_it(self):
        """Thread A's submit pauses inside the table (its clock waits
        until thread B's identical submit has returned, at most 0.5 s):
        exactly one of the two owns the hash, and the other is attached
        to the same job."""
        a_inside, b_returned = threading.Event(), threading.Event()

        def clock():
            if threading.current_thread().name == "submit-a":
                a_inside.set()
                b_returned.wait(0.5)
            return 0.0

        table = JobTable(EventHub(), clock=clock)
        out = {}

        def submit(name):
            out[name] = table.submit("run", HASH, 1)
            if name == "b":
                b_returned.set()

        a = threading.Thread(target=submit, args=("a",), name="submit-a")
        a.start()
        assert a_inside.wait(5)
        b = threading.Thread(target=submit, args=("b",), name="submit-b")
        b.start()
        a.join(5)
        b.join(5)
        (job_a, owner_a), (job_b, owner_b) = out["a"], out["b"]
        assert sorted([owner_a, owner_b]) == [False, True]
        assert job_a is job_b and job_a.attached == 1
        assert table.dedup() == {"inflight": 1, "shared": 1}

    def test_threads_submitting_few_hashes_get_one_owner_each(self):
        table = JobTable(EventHub(), max_jobs=64)
        hashes = [f"{i:x}" * 16 for i in range(3)]
        threads_n, rounds = 8, 40
        results, results_lock = [], threading.Lock()

        def submit_all():
            for _ in range(rounds):
                for content_hash in hashes:
                    out = table.submit("run", content_hash, 1)
                    with results_lock:
                        results.append(out)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submit_all)
                       for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        owners = [job for job, owner in results if owner]
        assert sorted(job.content_hash for job in owners) == sorted(hashes)
        assert all(job.attached == threads_n * rounds - 1 for job in owners)
        assert table.dedup() == {
            "inflight": 3, "shared": len(hashes) * (threads_n * rounds - 1)}

    def test_a_recovered_duplicate_leaves_the_owner_its_hash(self, table):
        owner, _ = table.submit("run", HASH, 1)
        duplicate = Job(id="j00099-aaaaaaaa", kind="run",
                        content_hash=HASH, n_cells=1)
        assert table.adopt(duplicate) is False
        assert table.get(duplicate.id).status == "failed"
        again, is_owner = table.submit("run", HASH, 1)
        assert not is_owner and again is owner

    def test_finished_hash_starts_a_fresh_job(self, table):
        first, _ = table.submit("run", HASH, 1)
        table.mark_running(first.id)
        table.mark_done(first.id, result=None)
        second, owner = table.submit("run", HASH, 1)
        assert owner and second.id != first.id

    def test_failed_hash_starts_a_fresh_job(self, table):
        # A failure must not wedge the hash: retries get a new attempt.
        first, _ = table.submit("run", HASH, 1)
        table.mark_running(first.id)
        table.mark_failed(first.id, "boom")
        second, owner = table.submit("run", HASH, 1)
        assert owner and second.id != first.id

    def test_distinct_hashes_do_not_dedup(self, table):
        a, owner_a = table.submit("run", "b" * 16, 1)
        b, owner_b = table.submit("run", "c" * 16, 1)
        assert owner_a and owner_b and a.id != b.id

    def test_cache_served_job_is_born_done(self, table):
        job = table.add_finished("run", HASH, 1, result=None)
        assert job.status == "done" and job.cached
        assert job.finished_s is not None
        # Born-terminal jobs never claim the hash, so a live submission
        # of the same hash still gets ownership.
        _, owner = table.submit("run", HASH, 1)
        assert owner


class TestGC:
    def test_ttl_expires_finished_jobs_only(self, table):
        done, _ = table.submit("run", "d" * 16, 1)
        table.mark_running(done.id)
        table.mark_done(done.id, result=None)
        live, _ = table.submit("run", "e" * 16, 1)
        table.clock.now = 500.0  # past ttl_s=100
        evicted = table.gc()
        assert evicted == [done.id]
        assert table.get(done.id) is None
        assert table.get(live.id) is not None  # live never evicted

    def test_overflow_evicts_oldest_finished_first(self, table):
        ids = []
        for i in range(6):  # max_jobs=4
            job, _ = table.submit("run", f"{i:x}" * 16, 1)
            table.mark_running(job.id)
            table.clock.now = float(i)
            table.mark_done(job.id, result=None)
            ids.append(job.id)
        evicted = table.gc()
        assert evicted == ids[:2]  # the two oldest-finished
        assert len(table.jobs()) == 4

    def test_gc_never_evicts_running_overflow(self, table):
        for i in range(6):
            table.submit("run", f"{i:x}" * 16, 1)  # all queued forever
        assert table.gc() == []
        assert len(table.jobs()) == 6
