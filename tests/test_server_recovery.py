"""Crash-safe service layer: recovery, drain, supervision, backpressure.

These tests exercise the restart-transparency contract without a real
kill where possible: they write the journal a dead server would have
left (byte-for-byte, via the Journal API), start a fresh server on the
same cache dir, and assert the recovered results are identical to
direct execution — with the cell/snapshot accounting proving how much
was recomputed.  The CI kill-and-restart smoke job covers the genuine
SIGKILL path end to end.
"""

import contextlib
import dataclasses
import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.api import Session
from repro.experiments import (
    ExperimentSpec,
    Plan,
    SchemeSpec,
    SweepPool,
    run_plan,
    run_spec,
)
from repro.experiments.cache import ResultCache
from repro.server import ReproServer, ServerConfig, ServerThread
from repro.server.app import SNAPSHOT_TAG
from repro.server.http import Request
from repro.server.journal import Journal
from repro.testing.faults import reset_faults

FAST = dict(scale=128.0, n_banks=1, n_intervals=1)


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_ROUND", raising=False)
    reset_faults()
    yield
    reset_faults()


def fast_spec(**overrides):
    fields = dict(scheme=SchemeSpec("drcat"), workload="libq", **FAST)
    fields.update(overrides)
    return ExperimentSpec(**fields)


def make_server(tmp_path, **overrides):
    fields = dict(port=0, workers=1, driver_threads=2,
                  cache_dir=str(tmp_path / "cache"))
    fields.update(overrides)
    return ReproServer(ServerConfig(**fields))


def request(method, path, doc=None, query=None):
    body = b"" if doc is None else json.dumps(doc).encode()
    return Request(method=method, path=path, query=query or {},
                   headers={}, body=body)


def body_of(response):
    return json.loads(response.body)


def wait_job(server, job_id, timeout=120):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = server.jobs.get(job_id)
        if job is not None and job.finished:
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


def dead_server_journal(cache_root, job_id, kind, content_hash, n_cells,
                        doc, *states):
    """The journal a server killed mid-``states`` would have left."""
    journal = Journal(Path(cache_root) / "journal")
    journal.record_submit(job_id, kind, content_hash, n_cells, doc)
    for state in states:
        if isinstance(state, tuple):
            journal.record_state(job_id, state[0], error=state[1])
        else:
            journal.record_state(job_id, state)
    journal.close()
    return journal


class TestAdmissionControl:
    def test_drain_rejects_submissions_with_retry_after(self, tmp_path):
        server = make_server(tmp_path)
        try:
            server.begin_drain()
            spec = fast_spec(seed=41)
            resp = server.handle(
                request("POST", "/v1/runs", {"spec": spec.to_dict()})
            )
            assert resp.status == 503
            assert body_of(resp)["error"]["code"] == "draining"
            assert "Retry-After" in resp.headers
            # Reads stay live during the drain.
            health = server.handle(request("GET", "/v1/health"))
            assert health.status == 200
            assert body_of(health)["draining"] is True
            assert body_of(health)["status"] == "draining"
        finally:
            server.close()

    def test_full_queue_returns_429(self, tmp_path):
        server = make_server(tmp_path, max_queued=0)
        try:
            spec = fast_spec(seed=42)
            resp = server.handle(
                request("POST", "/v1/runs", {"spec": spec.to_dict()})
            )
            assert resp.status == 429
            assert body_of(resp)["error"]["code"] == "queue-full"
            assert "Retry-After" in resp.headers
        finally:
            server.close()

    def test_drain_reports_clean_when_idle(self, tmp_path):
        server = make_server(tmp_path)
        assert server.drain(deadline_s=5.0) is True


class TestPlanRecovery:
    def test_killed_plan_recomputes_only_missing_cells(self, tmp_path):
        base = fast_spec()
        plan = Plan.grid(base, seed=[51, 52, 53])
        cache_root = tmp_path / "cache"
        # Two of three cells had flushed before the "kill".
        warm = ResultCache(cache_root)
        for spec in plan.specs[:2]:
            warm.put(spec, run_spec(spec))
        dead_server_journal(
            cache_root, f"j00007-{plan.content_hash()[:8]}", "plan",
            plan.content_hash(), len(plan), {"plan": plan.to_dict()},
            "running",
        )
        server = make_server(tmp_path)
        try:
            assert server.recovery["replayed"] == 1
            assert server.recovery["requeued"] == 1
            job = wait_job(server, f"j00007-{plan.content_hash()[:8]}")
            assert job.status == "done"
            assert job.recovered is True
            # The report proves only the missing cell was simulated.
            assert job.report["counts"] == {"cached": 2, "ok": 1}
            # And the recovered artifact is byte-identical to a direct,
            # uninterrupted run_plan.
            served = json.dumps([r.to_dict() for r in job.results],
                                sort_keys=True, indent=1)
            direct = json.dumps([r.to_dict() for r in run_plan(plan)],
                                sort_keys=True, indent=1)
            assert served == direct
        finally:
            server.close()

    def test_done_job_reloads_results_without_simulation(self, tmp_path):
        spec = fast_spec(seed=54)
        cache_root = tmp_path / "cache"
        ResultCache(cache_root).put(spec, run_spec(spec))
        dead_server_journal(
            cache_root, f"j00003-{spec.content_hash()[:8]}", "run",
            spec.content_hash(), 1, {"spec": spec.to_dict()},
            "running", "done",
        )
        server = make_server(tmp_path)
        try:
            job = server.jobs.get(f"j00003-{spec.content_hash()[:8]}")
            assert job is not None and job.status == "done"
            assert job.recovered and job.cached
            assert server.recovery["restored_done"] == 1
            assert server.cache.hits >= 1  # reloaded, not re-simulated
            assert job.result.to_dict() == run_spec(spec).to_dict()
        finally:
            server.close()

    def test_done_job_with_cleared_cache_reexecutes(self, tmp_path):
        spec = fast_spec(seed=55)
        cache_root = tmp_path / "cache"
        dead_server_journal(
            cache_root, f"j00004-{spec.content_hash()[:8]}", "run",
            spec.content_hash(), 1, {"spec": spec.to_dict()},
            "running", "done",
        )
        server = make_server(tmp_path)  # cache holds nothing
        try:
            job = wait_job(server, f"j00004-{spec.content_hash()[:8]}")
            assert job.status == "done" and job.recovered
            assert server.recovery["requeued"] == 1
            assert job.result.to_dict() == run_spec(spec).to_dict()
        finally:
            server.close()

    def test_failed_job_is_restored_as_failed(self, tmp_path):
        spec = fast_spec(seed=56)
        cache_root = tmp_path / "cache"
        dead_server_journal(
            cache_root, f"j00005-{spec.content_hash()[:8]}", "run",
            spec.content_hash(), 1, {"spec": spec.to_dict()},
            "running", ("failed", "ValueError: boom"),
        )
        server = make_server(tmp_path)
        try:
            job = server.jobs.get(f"j00005-{spec.content_hash()[:8]}")
            assert job.status == "failed" and job.recovered
            assert job.error == "ValueError: boom"
            assert server.recovery["restored_failed"] == 1
        finally:
            server.close()

    def test_unreadable_document_fails_the_job(self, tmp_path):
        cache_root = tmp_path / "cache"
        dead_server_journal(
            cache_root, "j00006-deadbeef", "run", "deadbeef" * 8, 1,
            {"spec": {"nonsense": True}}, "queued",
        )
        server = make_server(tmp_path)
        try:
            job = server.jobs.get("j00006-deadbeef")
            assert job.status == "failed" and job.recovered
            assert job.error.startswith("recovery:")
        finally:
            server.close()

    def test_recovery_compacts_the_journal(self, tmp_path):
        cache_root = tmp_path / "cache"
        journal = Journal(Path(cache_root) / "journal",
                          max_segment_bytes=64)
        for i in range(4):  # four tiny segments of dead history
            journal.record_submit(f"j{i + 1:05d}-deadbeef", "run",
                                  "deadbeef" * 8, 1, {"spec": {}})
            journal.record_state(f"j{i + 1:05d}-deadbeef", "failed",
                                 error="old")
        journal.close()
        server = make_server(tmp_path)
        try:
            assert len(server.journal.segments()) == 1
            # Replaying the compacted journal reproduces the table.
            replayed = Journal(Path(cache_root) / "journal").replay()
            assert len(replayed) == 4
            assert all(j.status == "failed" for j in replayed.values())
        finally:
            server.close()


class TestRunSnapshotResume:
    def test_run_killed_mid_flight_resumes_from_snapshot(self, tmp_path):
        spec = fast_spec(seed=61, n_intervals=4)
        cache_root = tmp_path / "cache"
        # The dead server had checkpointed two epochs in.
        session = Session(spec)
        session.advance(2 * session.epoch_ns)
        ResultCache(cache_root).put_snapshot(spec, SNAPSHOT_TAG,
                                             session.snapshot())
        dead_server_journal(
            cache_root, f"j00002-{spec.content_hash()[:8]}", "run",
            spec.content_hash(), 1, {"spec": spec.to_dict()},
            "running",
        )
        server = make_server(tmp_path)
        try:
            job = wait_job(server, f"j00002-{spec.content_hash()[:8]}")
            assert job.status == "done" and job.recovered
            assert server.recovery["resumed_from_snapshot"] == 1
            # Byte-identical to an uninterrupted run (the PR-4 proof).
            assert job.result.to_dict() == run_spec(spec).to_dict()
            # The finished run deleted its resume point.
            assert not server.cache.snapshot_path(
                spec, SNAPSHOT_TAG).exists()
        finally:
            server.close()

    def test_corrupt_snapshot_degrades_to_cold_start(self, tmp_path):
        spec = fast_spec(seed=62, n_intervals=2)
        cache_root = tmp_path / "cache"
        cache = ResultCache(cache_root)
        path = cache.snapshot_path(spec, SNAPSHOT_TAG)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{torn", encoding="utf-8")
        dead_server_journal(
            cache_root, f"j00002-{spec.content_hash()[:8]}", "run",
            spec.content_hash(), 1, {"spec": spec.to_dict()},
            "running",
        )
        server = make_server(tmp_path)
        try:
            job = wait_job(server, f"j00002-{spec.content_hash()[:8]}")
            assert job.status == "done"
            assert server.recovery["resumed_from_snapshot"] == 0
            assert job.result.to_dict() == run_spec(spec).to_dict()
        finally:
            server.close()


    def _cold_start_on(self, tmp_path, spec, snapshot):
        """Serve ``spec`` with ``snapshot`` stored as its resume point."""
        cache_root = tmp_path / "cache"
        ResultCache(cache_root).put_snapshot(spec, SNAPSHOT_TAG, snapshot)
        dead_server_journal(
            cache_root, f"j00002-{spec.content_hash()[:8]}", "run",
            spec.content_hash(), 1, {"spec": spec.to_dict()},
            "running",
        )
        server = make_server(tmp_path)
        try:
            job = wait_job(server, f"j00002-{spec.content_hash()[:8]}")
            assert job.status == "done"
            assert server.recovery["resumed_from_snapshot"] == 0
            assert job.result.to_dict() == run_spec(spec).to_dict()
        finally:
            server.close()

    def test_format2_snapshot_degrades_to_cold_start(self, tmp_path):
        """A format-2 snapshot inlined the pending streams; this build
        refuses it by version and recomputes from zero."""
        spec = fast_spec(seed=63, n_intervals=3)
        session = Session(spec)
        session.advance(2 * session.epoch_ns)
        core = session._core
        legacy = session.snapshot()
        legacy["snapshot_version"] = 2
        for field in ("interval_rng", "injections", "cursors", "digest"):
            del legacy["core"][field]
        legacy["core"]["position_ns"] = session.position_ns
        legacy["core"]["streams"] = [
            {"times": t[c:].tolist(), "rows": r[c:].tolist()}
            for (t, r), c in zip(core._streams, core._cursors)
        ]
        self._cold_start_on(tmp_path, spec, legacy)

    def test_digest_mismatched_snapshot_degrades_to_cold_start(
        self, tmp_path, monkeypatch
    ):
        """An ``interval_rng`` from another seed regenerates a different
        stream: restore fails on the digest and the server cold-starts."""
        monkeypatch.setenv("REPRO_TRACE_STORE", "0")
        spec = fast_spec(seed=64, n_intervals=3)
        session = Session(spec)
        session.advance(2 * session.epoch_ns)
        snapshot = session.snapshot()
        foreign = Session(dataclasses.replace(spec, seed=65))
        foreign.advance(2 * foreign.epoch_ns)
        snapshot["core"]["interval_rng"] = \
            foreign.snapshot()["core"]["interval_rng"]
        with pytest.raises(ValueError, match="digest"):
            Session.restore(snapshot)
        self._cold_start_on(tmp_path, spec, snapshot)


class TestDriverFaults:
    def test_retryable_driver_failure_requeues_and_converges(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "server.driver:raise")
        reset_faults()
        server = make_server(tmp_path)
        try:
            spec = fast_spec(seed=63)
            resp = server.handle(
                request("POST", "/v1/runs", {"spec": spec.to_dict()})
            )
            assert resp.status == 202
            job = wait_job(server, body_of(resp)["job"])
            assert job.status == "done"
            assert job.requeues == 1  # died once, requeued, converged
            assert job.result.to_dict() == run_spec(spec).to_dict()
        finally:
            server.close()

    def test_retryable_run_failure_requeues_and_converges(
        self, tmp_path, monkeypatch
    ):
        """An InjectedFault raised inside the running session is
        retryable: the job is requeued and the clean attempt converges."""
        spec = fast_spec(seed=66)
        expected = run_spec(spec).to_dict()  # before the fault is armed
        monkeypatch.setenv("REPRO_FAULTS", "session.advance:raise")
        reset_faults()
        server = make_server(tmp_path)
        try:
            resp = server.handle(
                request("POST", "/v1/runs", {"spec": spec.to_dict()})
            )
            job = wait_job(server, body_of(resp)["job"])
            assert job.status == "done", job.error
            assert job.requeues >= 1
            assert job.result.to_dict() == expected
        finally:
            server.close()


def _exited(pid):
    """True once ``pid`` is gone (or a zombie nobody reaped yet)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _wait_exited(pids, timeout=5):
    deadline = time.monotonic() + timeout
    while not all(_exited(pid) for pid in pids):
        assert time.monotonic() < deadline, f"still alive: {pids}"
        time.sleep(0.02)


def _children(pid):
    """The pids of ``pid``'s children (Linux ``/proc``), else skip."""
    try:
        return sorted(
            int(child)
            for task in Path(f"/proc/{pid}/task").iterdir()
            for child in (task / "children").read_text().split()
        )
    except OSError:
        pytest.skip("no /proc children lists on this host")


def _get_json(url):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return json.loads(resp.read())


def _run_served_plan(base, plan):
    """Submit ``plan`` to the server at ``base`` and wait until done."""
    req = urllib.request.Request(
        base + "/v1/plans",
        data=json.dumps({"plan": plan.to_dict()}).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=30) as resp:
        job = json.loads(resp.read())["job"]
    deadline = time.monotonic() + 120
    while _get_json(f"{base}/v1/jobs/{job}")["status"] != "done":
        assert time.monotonic() < deadline, "plan did not finish"
        time.sleep(0.1)


def _serve_process(tmp_path, *args):
    """A ``repro serve`` subprocess and its announced base URL."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(tmp_path / "cache"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, cwd=str(root),
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "serving on" in line:
            return proc, line.split("serving on ", 1)[1].split()[0]
        if not line and proc.poll() is not None:
            break
    proc.kill()
    raise AssertionError("server never announced")


class TestWorkerDeath:
    def test_killed_worker_is_replaced_and_the_run_requeued(
        self, tmp_path, monkeypatch
    ):
        """``kill-worker`` at ``session.advance`` kills the simulation
        worker, not the server: the job is requeued once onto a fresh
        worker and converges, and the server keeps serving."""
        spec, later = fast_spec(seed=67), fast_spec(seed=68)
        expected = run_spec(spec).to_dict()  # before the fault is armed
        expected_later = run_spec(later).to_dict()
        monkeypatch.setenv("REPRO_FAULTS", "session.advance:kill-worker")
        reset_faults()
        server = make_server(tmp_path)
        try:
            before = server._sim.stats()["pids"]
            resp = server.handle(
                request("POST", "/v1/runs", {"spec": spec.to_dict()})
            )
            job = wait_job(server, body_of(resp)["job"])
            assert job.status == "done", job.error
            assert job.requeues == 1
            assert job.result.to_dict() == expected
            health = body_of(server.handle(request("GET", "/v1/health")))
            assert health["sim_workers"]["replaced"] == 1
            assert health["sim_workers"]["pids"] != before
            # Still serving: a fresh run on the replacement converges.
            resp = server.handle(
                request("POST", "/v1/runs", {"spec": later.to_dict()})
            )
            job = wait_job(server, body_of(resp)["job"])
            assert job.status == "done", job.error
            assert job.result.to_dict() == expected_later
        finally:
            server.close()

    def test_replacement_worker_keeps_no_client_connection(
        self, tmp_path, monkeypatch
    ):
        """A replacement forks while a client is connected; the client
        still sees its connection end when the server closes it."""
        spec = fast_spec(seed=69)
        monkeypatch.setenv("REPRO_FAULTS", "session.advance:kill-worker")
        reset_faults()
        server = make_server(tmp_path)
        with ServerThread(server):
            client = socket.create_connection(
                ("127.0.0.1", server.bound_port), timeout=10)
            with client:
                client.sendall(b"GET /v1/health HTTP/1.1\r\nHost: t\r\n")
                time.sleep(0.2)  # the server holds the half-read request
                resp = server.handle(
                    request("POST", "/v1/runs", {"spec": spec.to_dict()})
                )
                job = wait_job(server, body_of(resp)["job"])
                assert job.status == "done" and job.requeues == 1
                client.sendall(b"\r\n")
                data = b""
                while chunk := client.recv(65536):  # EOF, not a timeout
                    data += chunk
                assert data.startswith(b"HTTP/1.1 200")

    def test_worker_that_died_idle_costs_a_run_no_requeue(self, tmp_path):
        spec = fast_spec(seed=70)
        expected = run_spec(spec).to_dict()
        server = make_server(tmp_path)
        try:
            pids = server._sim.stats()["pids"]
            os.kill(pids[0], signal.SIGKILL)
            _wait_exited(pids)
            resp = server.handle(
                request("POST", "/v1/runs", {"spec": spec.to_dict()})
            )
            job = wait_job(server, body_of(resp)["job"])
            assert job.status == "done", job.error
            assert job.requeues == 0
            assert job.result.to_dict() == expected
            assert server._sim.stats()["replaced"] == 1
        finally:
            server.close()

    def test_workers_that_died_idle_cost_a_plan_no_retry(self, tmp_path):
        plan = Plan.grid(fast_spec(), seed=[71, 72, 73])
        expected = [r.to_dict() for r in run_plan(plan)]
        server = make_server(tmp_path, workers=2)
        try:
            pids = server._sim.stats()["pids"]
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            _wait_exited(pids)
            resp = server.handle(
                request("POST", "/v1/plans", {"plan": plan.to_dict()})
            )
            job = wait_job(server, body_of(resp)["job"])
            assert job.status == "done", job.error
            assert job.report["total_attempts"] == len(plan)
            assert job.requeues == 0
            assert [r.to_dict() for r in job.results] == expected
            assert server._sim.stats()["replaced"] == 2
        finally:
            server.close()

    def test_plan_keeps_no_client_connection(self, tmp_path):
        """A plan runs while a client holds a half-read request: its
        cells run on the workers forked at startup, so the client still
        sees its connection end when the server closes it."""
        SweepPool.shutdown()  # no pool may predate the client
        server = make_server(tmp_path, workers=2)
        with ServerThread(server):
            client = socket.create_connection(
                ("127.0.0.1", server.bound_port), timeout=10)
            with client:
                client.sendall(b"GET /v1/health HTTP/1.1\r\nHost: t\r\n")
                time.sleep(0.2)  # the server holds the half-read request
                plan = Plan.grid(fast_spec(), seed=[74, 75])
                resp = server.handle(
                    request("POST", "/v1/plans", {"plan": plan.to_dict()})
                )
                job = wait_job(server, body_of(resp)["job"])
                assert job.status == "done", job.error
                assert job.report["counts"] == {"ok": 2}
                client.sendall(b"\r\n")
                data = b""
                while chunk := client.recv(65536):  # EOF, not a timeout
                    data += chunk
                assert data.startswith(b"HTTP/1.1 200")

    def test_sigterm_to_every_child_leaves_the_server_serving(
        self, tmp_path
    ):
        """After a plan, the server's children are exactly its pool's
        workers, and each dies of its SIGTERM alone: no signal reaches
        the server, which keeps serving instead of draining."""
        proc, base = _serve_process(tmp_path, "--workers", "2")
        try:
            _run_served_plan(base, Plan.grid(fast_spec(), seed=[76, 77]))
            pids = _get_json(base + "/v1/health")["sim_workers"]["pids"]
            children = _children(proc.pid)
            assert children == pids and len(pids) == 2
            for pid in children:
                os.kill(pid, signal.SIGTERM)
            _wait_exited(children)
            time.sleep(0.5)  # a forwarded SIGTERM would be draining now
            assert _get_json(base + "/v1/health")["status"] == "ok"
            assert proc.poll() is None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()

    def test_sigkilled_server_leaves_no_worker(self, tmp_path):
        """A plan runs first, on the same workers the runs use: every
        worker must notice the server's death and exit."""
        proc, base = _serve_process(tmp_path, "--workers", "2")
        pids = []
        try:
            _run_served_plan(base, Plan.grid(fast_spec(), seed=[81, 82]))
            pids = _get_json(base + "/v1/health")["sim_workers"]["pids"]
            assert len(pids) == 2
            proc.kill()
            proc.wait(timeout=30)
            _wait_exited(pids)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()
            for pid in pids:  # cleanup should an assertion fail
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)


class TestSupervision:
    class _Result:
        def to_dict(self):
            return {"fake": True}

    def test_stalled_job_is_requeued(self, tmp_path):
        clock = [0.0]
        server = ReproServer(
            ServerConfig(port=0, cache_dir=str(tmp_path / "cache"),
                         stall_timeout_s=10.0),
            clock=lambda: clock[0],
        )
        try:
            job, owner = server.jobs.submit("run", "ab" * 32, 1)
            assert owner
            finish = self._Result()

            def work(job_id, payload, generation):
                server.jobs.mark_done(job_id, generation, result=finish)

            with server._work_lock:
                server._work[job.id] = (work, None)
            server.jobs.mark_running(job.id)
            clock[0] = 5.0
            assert server.supervise_once() == []  # heartbeat still fresh
            clock[0] = 20.0
            assert server.supervise_once() == [job.id]
            final = wait_job(server, job.id)
            assert final.status == "done" and final.requeues == 1
            assert server.recovery["supervisor_requeues"] == 1
        finally:
            server.close()

    def test_stalled_run_worker_is_terminated_and_replaced(self, tmp_path):
        """A hung run cannot pin its worker: the stale generation's
        worker is terminated and a fresh one takes its place."""
        clock = [0.0]
        server = ReproServer(
            ServerConfig(port=0, workers=1, stall_timeout_s=10.0,
                         cache_dir=str(tmp_path / "cache")),
            clock=lambda: clock[0],
        )
        try:
            job, _owner = server.jobs.submit("run", "12" * 32, 1)
            server.jobs.mark_running(job.id)
            hung = server._sim.acquire((job.id, 0), timeout=5)
            clock[0] = 20.0
            assert server.supervise_once() == [job.id]
            assert not hung.process.is_alive()
            workers = server._sim.stats()
            assert workers["replaced"] == 1 and workers["busy"] == 0
            assert workers["pids"] != [hung.pid]
        finally:
            server.close()

    def test_plan_waiting_for_busy_workers_is_not_requeued(self, tmp_path):
        """A plan whose cells wait behind runs holding every worker for
        longer than ``stall_timeout_s`` heartbeats while it waits, as a
        waiting run does, so supervision leaves it alone."""
        server = make_server(tmp_path, workers=2, stall_timeout_s=1.0)
        try:
            holders = [("run-a", 0), ("run-b", 0)]
            for owner in holders:
                assert server._sim.acquire(owner, timeout=5) is not None
            plan = Plan.grid(fast_spec(), seed=[78, 79])
            resp = server.handle(
                request("POST", "/v1/plans", {"plan": plan.to_dict()})
            )
            job_id = body_of(resp)["job"]
            deadline = time.monotonic() + 2.5
            while time.monotonic() < deadline:
                assert server.supervise_once() == []
                time.sleep(0.1)
            assert server.jobs.get(job_id).status == "running"
            for owner in holders:
                server._sim.release(owner)
            job = wait_job(server, job_id)
            assert job.status == "done", job.error
            assert job.requeues == 0
            assert job.report["counts"] == {"ok": 2}
        finally:
            server.close()

    def test_stalled_job_out_of_budget_fails(self, tmp_path):
        clock = [0.0]
        server = ReproServer(
            ServerConfig(port=0, cache_dir=str(tmp_path / "cache"),
                         stall_timeout_s=10.0, max_job_requeues=0),
            clock=lambda: clock[0],
        )
        try:
            job, _owner = server.jobs.submit("run", "cd" * 32, 1)
            server.jobs.mark_running(job.id)
            clock[0] = 20.0
            assert server.supervise_once() == []
            assert server.jobs.get(job.id).status == "failed"
            assert "stalled" in server.jobs.get(job.id).error
        finally:
            server.close()

    def test_stale_generation_cannot_finish_the_job(self, tmp_path):
        server = make_server(tmp_path)
        try:
            job, _owner = server.jobs.submit("run", "ef" * 32, 1)
            server.jobs.mark_running(job.id, 0)
            new_generation = server.jobs.requeue(job.id)
            assert new_generation == 1
            # The zombie thread (generation 0) cannot stamp anything.
            assert server.jobs.mark_done(job.id, 0,
                                         result=object()) is None
            assert server.jobs.touch(job.id, 0) is False
            assert server.jobs.get(job.id).status == "queued"
            # The live generation can.
            assert server.jobs.mark_running(job.id, new_generation)
        finally:
            server.close()


class TestCooperativeStop:
    def test_stop_requires_keep_going(self):
        with pytest.raises(ValueError, match="keep_going"):
            run_plan([fast_spec(seed=71)], stop=lambda: True)

    def test_immediate_stop_leaves_everything_pending(self):
        plan = Plan.grid(fast_spec(), seed=[72, 73])
        report = run_plan(plan, keep_going=True, stop=lambda: True)
        assert report.ok is False
        assert len(report.pending) == 2
        assert all(c.status == "pending" for c in report.cells)

    def test_stop_after_first_cell_flush(self, tmp_path):
        # The serial path checks stop between cells.
        plan = Plan.grid(fast_spec(), seed=[74, 75, 76])
        cache_dir = tmp_path / "cells"

        def first_cell_landed():
            return any(cache_dir.rglob("*.json"))

        report = run_plan(plan, cache=str(cache_dir), keep_going=True,
                          stop=first_cell_landed)
        counts = report.counts()
        assert counts.get("ok") == 1
        assert counts.get("pending") == 2
        # The flushed cell is reusable: a resumed run recomputes only
        # the pending ones and matches direct execution.
        resumed = run_plan(plan, cache=str(cache_dir))
        direct = run_plan(plan)
        assert [r.to_dict() for r in resumed] == \
            [r.to_dict() for r in direct]


class TestJobListing:
    def test_state_filter_and_recovered_flag(self, tmp_path):
        spec = fast_spec(seed=77)
        cache_root = tmp_path / "cache"
        dead_server_journal(
            cache_root, f"j00009-{spec.content_hash()[:8]}", "run",
            spec.content_hash(), 1, {"spec": spec.to_dict()},
            "running", ("failed", "dead"),
        )
        server = make_server(tmp_path)
        try:
            resp = server.handle(request("GET", "/v1/jobs",
                                         query={"state": "failed"}))
            docs = body_of(resp)["jobs"]
            assert [d["recovered"] for d in docs] == [True]
            assert docs[0]["status"] == "failed"
            empty = server.handle(request("GET", "/v1/jobs",
                                          query={"state": "done"}))
            assert body_of(empty)["jobs"] == []
            bad = server.handle(request("GET", "/v1/jobs",
                                        query={"state": "bogus"}))
            assert bad.status == 422
        finally:
            server.close()

    def test_health_surfaces_journal_and_recovery(self, tmp_path):
        server = make_server(tmp_path)
        try:
            doc = body_of(server.handle(request("GET", "/v1/health")))
            assert doc["journal"]["segments"] == 0
            assert set(doc["recovery"]) >= {
                "replayed", "requeued", "restored_done",
                "resumed_from_snapshot",
            }
            assert set(doc["locks"]) == {
                "acquires", "contended", "timeouts", "stale_broken",
            }
            workers = doc["sim_workers"]
            assert set(workers) == {"size", "busy", "pids", "replaced"}
            assert workers["size"] == len(workers["pids"]) == 1
            assert workers["busy"] == workers["replaced"] == 0
            assert doc["draining"] is False
        finally:
            server.close()


class TestSigtermDrain:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """An idle server drains within the deadline on SIGTERM."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(tmp_path / "cache"),
             "--drain-deadline", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, cwd=str(Path(__file__).resolve().parents[1]),
            env={**__import__("os").environ,
                 "PYTHONPATH": str(Path(__file__).resolve().parents[1]
                                   / "src")},
        )
        try:
            deadline = time.monotonic() + 60
            announced = False
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if "serving on" in line:
                    announced = True
                    break
            assert announced, "server never announced"
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=60)
            assert returncode == 0
        finally:
            if proc.poll() is None:
                proc.kill()
