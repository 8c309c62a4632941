"""The worker pool behind served runs (and pooled plans).

A served run's session lives in a forked worker process, which drives
it to the end on one ``run`` command; these tests speak that protocol
to :class:`SweepPool` instances directly: the session a worker runs is
``run_spec``'s, a ``stop`` ends it at an epoch boundary with a
checkpoint, errors cross the pipe with their retry verdict, and a dead
or reclaimed worker is replaced by a fresh fork.
"""

import json
import sys
import time

import pytest

from repro.api import Session
from repro.errors import RemoteError, describe, is_retryable
from repro.experiments import (
    ExperimentSpec,
    Plan,
    SchemeSpec,
    run_plan,
    run_spec,
)
from repro.experiments.cache import ResultCache
from repro.experiments.pool import SNAPSHOT_TAG, SweepPool, WorkerDied
from repro.report.config import RunContext
from repro.server import ReproServer, ServerConfig
from repro.server.http import Request


def fast_spec(**overrides):
    fields = dict(scheme=SchemeSpec("sca"), workload="libq", scale=128.0,
                  n_banks=1, n_intervals=2)
    fields.update(overrides)
    return ExperimentSpec(**fields)


def slow_spec(**overrides):
    """About 10 ms an epoch: a ``stop`` sent after the second epoch
    lands with over thirty epochs to spare."""
    fields = dict(scheme=SchemeSpec("drcat"), workload="libq", scale=96.0,
                  n_banks=4, n_intervals=40)
    fields.update(overrides)
    return ExperimentSpec(**fields)


@pytest.fixture
def pool():
    pool = SweepPool(1)
    yield pool
    pool.close()


def serve(worker, job_id, spec, cache_root, stored=None, every=0,
          stop_after=None):
    """One ``run`` command: ``(resumed, last kind, messages, result)``.

    ``messages`` lists each message's events; ``stop_after`` epoch
    messages in, the worker is sent ``stop``.
    """
    worker.send("run", job_id, spec, stored, 0, str(cache_root), every,
                RunContext.from_env())
    resumed = worker.receive()
    messages = []
    while True:
        stopping = stop_after is not None and len(messages) >= stop_after
        kind, events, result = worker.receive(
            (lambda: True) if stopping else None)
        messages.append(events)
        if kind != "epoch":
            return resumed, kind, messages, result


def epochs_of(messages):
    return [doc["epoch"] for events in messages
            for name, doc in events if name == "epoch"]


def test_worker_session_matches_run_spec(pool, tmp_path):
    spec = fast_spec(seed=3, n_intervals=3)
    worker = pool.acquire("a", timeout=5)
    resumed, kind, messages, result = serve(worker, "j1", spec, tmp_path)
    assert (resumed, kind) == (False, "done")
    # One message per epoch, the last carrying the result and the final
    # synthetic epoch event.  Epoch k's event fires when the first
    # access of epoch k + 1 is served, so it rides with epoch k + 1.
    assert [epochs_of([events]) for events in messages] == [[], [1], [2, 3]]
    assert all(doc["job"] == "j1" for events in messages
               for _name, doc in events)
    assert result.to_dict() == run_spec(spec).to_dict()
    # The worker put the result in the cache itself.
    assert ResultCache(tmp_path).get(spec).to_dict() == result.to_dict()
    pool.release("a")


def test_resume_from_a_snapshot_and_cold_start_fallback(pool, tmp_path):
    spec = fast_spec(seed=4, n_intervals=3)
    session = Session(spec)
    session.advance(2 * session.epoch_ns)
    worker = pool.acquire("a", timeout=5)
    resumed, _kind, messages, result = serve(
        worker, "j1", spec, tmp_path, stored=session.snapshot())
    assert resumed is True
    assert epochs_of(messages) == [2, 3]  # epoch 1 was already served
    assert result.to_dict() == run_spec(spec).to_dict()
    resumed, _kind, messages, result = serve(
        worker, "j1", spec, tmp_path, stored={"kind": "torn"})
    assert resumed is False
    assert epochs_of(messages) == [1, 2, 3]
    assert result.to_dict() == run_spec(spec).to_dict()
    pool.release("a")


def test_stop_ends_the_run_at_an_epoch_boundary_with_a_checkpoint(
        pool, tmp_path):
    spec = slow_spec(seed=8)
    worker = pool.acquire("a", timeout=5)
    resumed, kind, messages, result = serve(worker, "j1", spec, tmp_path,
                                            stop_after=2)
    assert (resumed, kind, result) == (False, "stopped", None)
    served = epochs_of(messages)
    assert served == list(range(1, len(served) + 1))
    assert 1 <= len(served) < spec.n_intervals
    # The worker checkpointed where it stopped; the run resumes there.
    stored = ResultCache(tmp_path).get_snapshot(spec, SNAPSHOT_TAG)
    assert stored is not None
    resumed, kind, messages, result = serve(worker, "j1", spec, tmp_path,
                                            stored=stored)
    assert (resumed, kind) == (True, "done")
    assert epochs_of(messages)[0] > served[-1]
    assert result.to_dict() == run_spec(spec).to_dict()
    pool.release("a")


def test_stop_after_the_run_ended_is_ignored(pool, tmp_path):
    """A ``stop`` that crosses the run's last message is dropped by the
    command loop, and the worker serves the next job."""
    first, second = fast_spec(seed=9), fast_spec(seed=10)
    worker = pool.acquire("a", timeout=5)
    assert serve(worker, "j1", first, tmp_path)[1] == "done"
    worker.send("stop")
    _resumed, kind, _messages, result = serve(worker, "j2", second,
                                              tmp_path)
    assert kind == "done"
    assert result.to_dict() == run_spec(second).to_dict()
    pool.release("a")
    assert pool.stats()["replaced"] == 0


def test_remote_error_carries_type_message_and_verdict(pool, tmp_path):
    worker = pool.acquire("a", timeout=5)
    with pytest.raises(RemoteError) as info:
        serve(worker, "j1", {"workload": "no-such-workload"}, tmp_path)
    assert info.value.type_name != "RemoteError"
    assert describe(info.value).startswith(f"{info.value.type_name}: ")
    assert is_retryable(info.value) is False
    # The worker survives its session's error and serves the next job.
    spec = fast_spec(seed=5)
    result = serve(worker, "j2", spec, tmp_path)[3]
    assert result.to_dict() == run_spec(spec).to_dict()
    pool.release("a")
    assert pool.stats()["replaced"] == 0


def test_dead_worker_raises_and_is_replaced_on_release(pool, tmp_path):
    worker = pool.acquire("a", timeout=5)
    worker.process.kill()
    with pytest.raises(WorkerDied) as info:
        serve(worker, "j1", fast_spec(), tmp_path)
    assert is_retryable(info.value)
    pool.release("a")
    stats = pool.stats()
    assert stats["replaced"] == 1 and stats["busy"] == 0
    assert stats["pids"] != [worker.pid]
    fresh = pool.acquire("b", timeout=5)
    result = serve(fresh, "j2", fast_spec(seed=6), tmp_path)[3]
    assert result.to_dict() == run_spec(fast_spec(seed=6)).to_dict()


def test_worker_that_died_idle_is_replaced_on_acquire(pool, tmp_path):
    """A worker that died while idle costs its next holder nothing."""
    (idle,) = pool._idle
    idle.process.kill()
    idle.process.join(5)
    assert idle.process.exitcode is not None
    worker = pool.acquire("a", timeout=5)
    assert worker is not idle and worker.process.is_alive()
    spec = fast_spec(seed=7)
    result = serve(worker, "j1", spec, tmp_path)[3]
    assert result.to_dict() == run_spec(spec).to_dict()
    pool.release("a")
    stats = pool.stats()
    assert stats["replaced"] == 1 and stats["pids"] == [worker.pid]


def test_reclaim_terminates_the_stale_holder(pool, tmp_path):
    worker = pool.acquire(("j1", 0), timeout=5)
    assert pool.acquire(("j2", 0), timeout=0.05) is None  # pool of one
    worker.send("run", "j1", slow_spec(seed=11), None, 0, str(tmp_path), 0,
                RunContext.from_env())
    assert worker.receive() is False  # the run is in flight
    assert pool.reclaim(("j1", 0)) is True
    assert pool.reclaim(("j1", 0)) is False  # already given up
    assert not worker.process.is_alive()
    with pytest.raises(WorkerDied):
        while True:
            worker.receive()  # epochs sent before the kill, then death
    pool.release(("j1", 0))  # the stale driver's release is a no-op
    assert pool.stats()["replaced"] == 1
    assert pool.acquire(("j1", 1), timeout=5) is not None


def test_close_terminates_every_worker():
    pool = SweepPool(2)
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


def test_runs_and_a_plan_share_two_workers(tmp_path):
    """Four runs and a four-cell plan contend for the same two workers:
    every run and every cell lands once, uncrossed, and the pool ends
    idle with no worker lost."""
    specs = [fast_spec(seed=40 + i) for i in range(4)]
    plan = Plan.grid(fast_spec(n_intervals=1), seed=[50, 51, 52, 53])
    expected = [run_spec(spec).to_dict() for spec in specs]
    expected_plan = [r.to_dict() for r in run_plan(plan)]
    server = ReproServer(ServerConfig(port=0, workers=2, driver_threads=6,
                                      cache_dir=str(tmp_path / "cache")))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        docs = [("/v1/plans", {"plan": plan.to_dict()})] + [
            ("/v1/runs", {"spec": spec.to_dict()}) for spec in specs]
        ids = []
        for path, doc in docs:
            response = server.handle(Request("POST", path, {}, {},
                                             json.dumps(doc).encode()))
            ids.append(json.loads(response.body)["job"])
        deadline = time.monotonic() + 120
        jobs = [server.jobs.get(job_id) for job_id in ids]
        while not all(job.finished for job in jobs):
            assert time.monotonic() < deadline, "jobs did not finish"
            time.sleep(0.02)
        assert [job.status for job in jobs] == ["done"] * len(jobs)
        assert [r.to_dict() for r in jobs[0].results] == expected_plan
        assert jobs[0].report["total_attempts"] == len(plan)
        assert [job.result.to_dict() for job in jobs[1:]] == expected
        while server._sim.stats()["busy"]:
            assert time.monotonic() < deadline, "a worker stayed held"
            time.sleep(0.02)
        stats = server._sim.stats()
        assert len(stats["pids"]) == 2 and stats["replaced"] == 0
    finally:
        sys.setswitchinterval(interval)
        server.close()


def test_private_cache_dir_is_removed_on_close():
    """A server built without ``cache_dir`` writes its results and
    journal into a private directory, and ``close()`` removes it."""
    from pathlib import Path

    spec = fast_spec(seed=70)
    expected = run_spec(spec).to_dict()
    server = ReproServer(ServerConfig(port=0, workers=1, driver_threads=1))
    root = Path(server._cache_root)
    try:
        body = json.dumps({"spec": spec.to_dict()}).encode()
        response = server.handle(Request("POST", "/v1/runs", {}, {}, body))
        job = server.jobs.get(json.loads(response.body)["job"])
        deadline = time.monotonic() + 60
        while not job.finished:
            assert time.monotonic() < deadline, "run did not finish"
            time.sleep(0.02)
        assert job.result.to_dict() == expected
        assert server.journal.segments()
        assert ResultCache(root).get(spec) is not None
    finally:
        server.close()
    assert not root.exists()
