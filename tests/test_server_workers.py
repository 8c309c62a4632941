"""The simulation worker pool behind served runs.

A served run's session lives in a forked worker process; these tests
drive :class:`SimWorkerPool` directly: the session a worker runs is
``run_spec``'s, errors cross the pipe with their retry verdict, and a
dead or reclaimed worker is replaced by a fresh fork.
"""

import json
import sys
import time

import pytest

from repro.errors import RemoteError, describe, is_retryable
from repro.experiments import ExperimentSpec, SchemeSpec, run_spec
from repro.server import ReproServer, ServerConfig
from repro.server.http import Request
from repro.server.workers import SimWorkerPool, WorkerDied


def fast_spec(**overrides):
    fields = dict(scheme=SchemeSpec("sca"), workload="libq", scale=128.0,
                  n_banks=1, n_intervals=2)
    fields.update(overrides)
    return ExperimentSpec(**fields)


@pytest.fixture
def pool():
    pool = SimWorkerPool(1)
    yield pool
    pool.close()


def test_worker_session_matches_run_spec(pool):
    spec = fast_spec(seed=3)
    worker = pool.acquire("a", timeout=5)
    assert worker.open("j1", spec, None, fault_round=0) is False
    epochs = []
    for k in (1, 2):
        events = worker.advance(k * worker.epoch_ns)
        epochs += [doc["epoch"] for name, doc in events if name == "epoch"]
        assert all(doc["job"] == "j1" for _name, doc in events)
    result, last = worker.result()
    epochs += [doc["epoch"] for name, doc in last if name == "epoch"]
    assert epochs == [1, 2]
    assert result.to_dict() == run_spec(spec).to_dict()
    pool.release("a")


def test_resume_from_a_snapshot_and_cold_start_fallback(pool):
    spec = fast_spec(seed=4)
    worker = pool.acquire("a", timeout=5)
    worker.open("j1", spec, None, fault_round=0)
    worker.advance(worker.epoch_ns)
    snapshot = worker.snapshot()
    assert worker.open("j1", spec, snapshot, fault_round=0) is True
    assert worker.position_ns > 0
    assert worker.result()[0].to_dict() == run_spec(spec).to_dict()
    assert worker.open("j1", spec, {"kind": "torn"}, fault_round=0) is False
    assert worker.position_ns == 0
    pool.release("a")


def test_remote_error_carries_type_message_and_verdict(pool):
    worker = pool.acquire("a", timeout=5)
    with pytest.raises(RemoteError) as info:
        worker.open("j1", {"workload": "no-such-workload"}, None,
                    fault_round=0)
    assert info.value.type_name != "RemoteError"
    assert describe(info.value).startswith(f"{info.value.type_name}: ")
    assert is_retryable(info.value) is False
    # The worker survives its session's error and serves the next job.
    spec = fast_spec(seed=5)
    worker.open("j2", spec, None, fault_round=0)
    assert worker.result()[0].to_dict() == run_spec(spec).to_dict()
    pool.release("a")
    assert pool.stats()["replaced"] == 0


def test_dead_worker_raises_and_is_replaced_on_release(pool):
    worker = pool.acquire("a", timeout=5)
    worker.process.kill()
    with pytest.raises(WorkerDied) as info:
        worker.open("j1", fast_spec(), None, fault_round=0)
    assert is_retryable(info.value)
    pool.release("a")
    stats = pool.stats()
    assert stats["replaced"] == 1 and stats["busy"] == 0
    assert stats["pids"] != [worker.pid]
    fresh = pool.acquire("b", timeout=5)
    fresh.open("j2", fast_spec(seed=6), None, fault_round=0)
    assert fresh.result()[0].to_dict() == \
        run_spec(fast_spec(seed=6)).to_dict()


def test_reclaim_terminates_the_stale_holder(pool):
    worker = pool.acquire(("j1", 0), timeout=5)
    assert pool.acquire(("j2", 0), timeout=0.05) is None  # pool of one
    assert pool.reclaim(("j1", 0)) is True
    assert pool.reclaim(("j1", 0)) is False  # already given up
    assert not worker.process.is_alive()
    with pytest.raises(WorkerDied):
        worker.snapshot()
    pool.release(("j1", 0))  # the stale driver's release is a no-op
    assert pool.stats()["replaced"] == 1
    assert pool.acquire(("j1", 1), timeout=5) is not None


def test_close_terminates_every_worker():
    pool = SimWorkerPool(2)
    held = pool.acquire("a", timeout=5)
    processes = [held.process] + [w.process for w in pool._idle]
    pool.close()
    assert not any(process.is_alive() for process in processes)
    assert pool.acquire("b", timeout=0.05) is None
    assert pool.stats()["pids"] == []
    pool.release("a")  # a driver finishing late changes nothing
    assert pool.stats()["pids"] == []


def test_more_runs_than_workers_all_converge(tmp_path):
    """Six drivers share two workers: every run waits its turn, none
    is lost or crossed with another, and the pool ends idle."""
    specs = [fast_spec(seed=20 + i, n_intervals=1 + i % 3) for i in range(8)]
    expected = [run_spec(spec).to_dict() for spec in specs]
    server = ReproServer(ServerConfig(port=0, workers=2, driver_threads=6,
                                      cache_dir=str(tmp_path / "cache")))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        ids = []
        for spec in specs:
            body = json.dumps({"spec": spec.to_dict()}).encode()
            response = server.handle(Request("POST", "/v1/runs", {}, {},
                                             body))
            ids.append(json.loads(response.body)["job"])
        deadline = time.monotonic() + 120
        jobs = [server.jobs.get(job_id) for job_id in ids]
        while not all(job.finished for job in jobs):
            assert time.monotonic() < deadline, "runs did not finish"
            time.sleep(0.02)
        assert [job.status for job in jobs] == ["done"] * len(specs)
        assert [job.result.to_dict() for job in jobs] == expected
        # A driver releases its worker just after marking its job done.
        while server._sim.stats()["busy"]:
            assert time.monotonic() < deadline, "a worker stayed held"
            time.sleep(0.02)
        stats = server._sim.stats()
        assert len(stats["pids"]) == 2 and stats["replaced"] == 0
    finally:
        sys.setswitchinterval(interval)
        server.close()
