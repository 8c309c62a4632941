"""End-to-end service tests over a real socket: submit, poll, stream.

Covers the service-equivalence acceptance bar — results served over
HTTP are byte-identical to the direct ``run_spec``/``run_plan`` paths —
plus in-flight dedup, SSE delivery, and the error surface.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import Session
from repro.experiments import ExperimentSpec, Plan, SchemeSpec, run_spec
from repro.server import ReproServer, ServerConfig, ServerThread

FAST = dict(scale=128.0, n_banks=1, n_intervals=1)


def fast_spec(**overrides):
    fields = dict(scheme=SchemeSpec("drcat"), workload="libq", **FAST)
    fields.update(overrides)
    return ExperimentSpec(**fields)


def get(base, path, timeout=30):
    with urllib.request.urlopen(base + path, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def post(base, path, doc, timeout=30):
    req = urllib.request.Request(
        base + path, data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def wait_done(base, job_id, timeout=120):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _status, doc = get(base, f"/v1/jobs/{job_id}")
        if doc["status"] in ("done", "failed"):
            return doc
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


@pytest.fixture(scope="module")
def server():
    srv = ReproServer(ServerConfig(port=0, workers=1, driver_threads=2,
                                   max_body=64 * 1024))
    with ServerThread(srv) as base:
        yield srv, base


class TestHealth:
    def test_health_mirrors_the_verify_header(self, server):
        from repro._version import __version__

        _srv, base = server
        status, doc = get(base, "/v1/health")
        assert status == 200
        assert doc["service"] == "repro"
        assert doc["version"] == __version__
        assert doc["wire_version"] == 1
        # The same facts `repro verify` prints in its header line.
        assert set(doc["engines"]) == {"scalar", "batched"}
        assert "trace_store" in doc and "enabled" in doc["trace_store"]
        assert doc["result_cache"]["lock_backend"] == "flock"
        assert set(doc["jobs"]) == {"queued", "running", "done", "failed"}
        assert "faults" in doc
        # The simulation workers runs execute in (one, at --workers 1).
        workers = doc["sim_workers"]
        assert set(workers) == {"size", "busy", "pids", "replaced"}
        assert workers["size"] == len(workers["pids"]) == 1

    def test_health_reads_no_journal_segment(self, server, monkeypatch):
        """Health runs on the event loop, so its journal block is a stat
        of the segment files: a journal that cannot be read (or is
        merely long) costs it nothing."""
        from repro.server.journal import Journal

        _srv, base = server
        _status, doc = post(base, "/v1/runs",
                            {"spec": fast_spec(seed=4343).to_dict()})
        wait_done(base, doc["job"])

        def unreadable(self, path):
            raise AssertionError("health read a journal segment")

        monkeypatch.setattr(Journal, "_read_segment", unreadable)
        status, doc = get(base, "/v1/health")
        assert status == 200
        journal = doc["journal"]
        assert set(journal) == {"segments", "bytes", "writes",
                                "write_errors"}
        assert journal["segments"] >= 1 and journal["bytes"] > 0
        assert journal["writes"] >= 2


class TestRunSubmission:
    def test_submit_poll_results_equivalence(self, server):
        srv, base = server
        spec = fast_spec(seed=21)
        status, doc = post(base, "/v1/runs", {"spec": spec.to_dict()})
        assert status == 202
        assert doc["kind"] == "run" and doc["cells"] == 1
        assert doc["content_hash"] == spec.content_hash()
        final = wait_done(base, doc["job"])
        assert final["status"] == "done" and not final["cached"]
        # The acceptance bar: the served result is exactly run_spec's.
        assert final["result"] == run_spec(spec).to_dict()

    def test_resubmit_is_served_from_cache(self, server):
        srv, base = server
        spec = fast_spec(seed=22)
        _status, doc = post(base, "/v1/runs", {"spec": spec.to_dict()})
        wait_done(base, doc["job"])
        hits_before = srv.cache.hits
        status, doc2 = post(base, "/v1/runs", {"spec": spec.to_dict()})
        assert status == 200  # terminal immediately, not 202
        assert doc2["cached"] and doc2["status"] == "done"
        assert doc2["job"] != doc["job"]
        assert srv.cache.hits == hits_before + 1  # provably no rerun
        assert doc2["result"] == run_spec(spec).to_dict()

    def test_inflight_dedup_shares_one_job(self, server):
        srv, base = server
        # Saturate both driver threads so the target job stays queued
        # while the duplicate submission arrives — deterministic, no
        # timing window.
        blockers = [fast_spec(seed=31, n_intervals=4),
                    fast_spec(seed=32, n_intervals=4)]
        for blocker in blockers:
            post(base, "/v1/runs", {"spec": blocker.to_dict()})
        target = fast_spec(seed=33)
        _s1, first = post(base, "/v1/runs", {"spec": target.to_dict()})
        _s2, second = post(base, "/v1/runs", {"spec": target.to_dict()})
        assert second["job"] == first["job"]  # one simulation, two watchers
        assert second["attached"] == 1
        final = wait_done(base, first["job"])
        assert final["status"] == "done"
        assert final["result"] == run_spec(target).to_dict()

    def test_results_can_be_elided_from_status(self, server):
        _srv, base = server
        spec = fast_spec(seed=24)
        _status, doc = post(base, "/v1/runs", {"spec": spec.to_dict()})
        wait_done(base, doc["job"])
        _status, slim = get(base, f"/v1/jobs/{doc['job']}?results=0")
        assert slim["status"] == "done" and "result" not in slim

    def test_jobs_listing_contains_submissions(self, server):
        _srv, base = server
        spec = fast_spec(seed=25)
        _status, doc = post(base, "/v1/runs", {"spec": spec.to_dict()})
        wait_done(base, doc["job"])
        _status, listing = get(base, "/v1/jobs")
        assert doc["job"] in [j["job"] for j in listing["jobs"]]


class TestSubmitOffTheEventLoop:
    def test_health_answers_while_a_submission_journals(self, server, monkeypatch):
        """A slow submit journal append (its fsync) stalls only that
        submission: a concurrent health check answers before it."""
        from repro.server.journal import Journal

        _srv, base = server
        append = Journal.append

        def slow_append(self, record):
            if record.get("rec") == "submit":
                time.sleep(0.6)
            return append(self, record)

        monkeypatch.setattr(Journal, "append", slow_append)
        answered = {}

        def submit():
            status, _doc = post(base, "/v1/runs", {"spec": fast_spec(seed=4242).to_dict()})
            answered["post"] = (status, time.monotonic())

        thread = threading.Thread(target=submit)
        thread.start()
        time.sleep(0.2)
        status, _doc = get(base, "/v1/health")
        answered["health"] = (status, time.monotonic())
        thread.join(30)
        assert answered["post"][0] == 202 and answered["health"][0] == 200
        assert answered["health"][1] < answered["post"][1]


class TestPlanSubmission:
    def test_plan_equivalence_and_report(self, server):
        from repro.experiments import run_plan

        srv, base = server
        plan = Plan.grid(fast_spec(seed=41), scale=[128.0, 64.0])
        status, doc = post(base, "/v1/plans", {"plan": plan.to_dict()})
        assert status == 202
        assert doc["kind"] == "plan" and doc["cells"] == 2
        assert doc["content_hash"] == plan.content_hash()
        final = wait_done(base, doc["job"])
        assert final["status"] == "done"
        assert [c["status"] for c in final["report"]["cells"]] == \
            ["ok", "ok"]
        direct = run_plan(plan)  # the plain list-returning form
        assert final["results"] == [r.to_dict() for r in direct]

    def test_whole_plan_cache_hit_is_terminal_immediately(self, server):
        _srv, base = server
        plan = Plan.grid(fast_spec(seed=42), seed=[43, 44])
        _status, doc = post(base, "/v1/plans", {"plan": plan.to_dict()})
        wait_done(base, doc["job"])
        status, doc2 = post(base, "/v1/plans", {"plan": plan.to_dict()})
        assert status == 200
        assert doc2["cached"] and doc2["status"] == "done"
        assert len(doc2["results"]) == 2


def read_frames(base, job_id):
    """Every frame of a job's SSE stream, read until the server ends it."""
    with urllib.request.urlopen(
        base + f"/v1/jobs/{job_id}/events", timeout=60
    ) as resp:
        assert resp.headers["Content-Type"].startswith("text/event-stream")
        body = resp.read().decode()  # server closes when job ends
    frames = []
    event = {}
    for line in body.splitlines():
        if not line:
            if event:
                frames.append(event)
            event = {}
        elif line.startswith("event: "):
            event["name"] = line[7:]
        elif line.startswith("id: "):
            event["id"] = int(line[4:])
        elif line.startswith("data: "):
            event["data"] = json.loads(line[6:])
    return frames


class TestEventStream:
    def test_sse_stream_orders_and_terminates(self, server):
        _srv, base = server
        spec = fast_spec(seed=51, n_intervals=3)
        _status, doc = post(base, "/v1/runs", {"spec": spec.to_dict()})
        frames = read_frames(base, doc["job"])
        names = [f["name"] for f in frames]
        assert "status" in names and "epoch" in names
        epochs = [f["data"]["epoch"] for f in frames
                  if f["name"] == "epoch"]
        assert epochs == sorted(epochs) and epochs[-1] == 3
        ids = [f["id"] for f in frames if "id" in f and f["id"] >= 0]
        assert ids == sorted(ids)  # monotonic delivery
        assert frames[-1]["name"] == "status"
        assert frames[-1]["data"]["status"] == "done"

    def test_sse_data_equals_an_in_process_session(self, server):
        """The ``epoch`` and ``mitigation`` documents a served run
        streams are, in order, those the same taps see on an in-process
        Session of the same spec."""
        _srv, base = server
        spec = fast_spec(seed=53, n_intervals=3)
        _status, doc = post(base, "/v1/runs", {"spec": spec.to_dict()})
        job = doc["job"]
        expected = []
        session = Session(spec)
        session.on_epoch(lambda event: expected.append(("epoch", {
            "job": job, "epoch": event.epoch, "time_ns": event.time_ns,
            "delta": event.delta.to_dict(),
            "totals": event.totals.to_dict(),
        })))
        session.on_mitigation(lambda event: expected.append(("mitigation", {
            "job": job, "time_ns": event.time_ns, "bank": event.bank,
            "low": event.low, "high": event.high, "reason": event.reason,
            "rows": event.rows,
        })))
        session.result()
        streamed = [(f["name"], f["data"]) for f in read_frames(base, job)
                    if f["name"] in ("epoch", "mitigation")]
        assert any(name == "mitigation" for name, _data in streamed)
        assert streamed == [(name, json.loads(json.dumps(data)))
                            for name, data in expected]

    def test_stream_of_finished_job_replays_and_closes(self, server):
        _srv, base = server
        spec = fast_spec(seed=52)
        _status, doc = post(base, "/v1/runs", {"spec": spec.to_dict()})
        wait_done(base, doc["job"])
        with urllib.request.urlopen(
            base + f"/v1/jobs/{doc['job']}/events", timeout=30
        ) as resp:
            body = resp.read().decode()  # must not hang
        assert "event: status" in body


class TestErrorSurface:
    def test_unknown_job_is_404(self, server):
        _srv, base = server
        with pytest.raises(urllib.error.HTTPError) as err:
            get(base, "/v1/jobs/j99999-deadbeef")
        assert err.value.code == 404
        assert json.load(err.value)["error"]["code"] == "not-found"

    def test_unknown_path_is_404(self, server):
        _srv, base = server
        with pytest.raises(urllib.error.HTTPError) as err:
            get(base, "/v1/nope")
        assert err.value.code == 404

    def test_wrong_method_is_405(self, server):
        _srv, base = server
        with pytest.raises(urllib.error.HTTPError) as err:
            post(base, "/v1/health", {})
        assert err.value.code == 405

    def test_malformed_json_is_400(self, server):
        _srv, base = server
        req = urllib.request.Request(
            base + "/v1/runs", data=b"{nope",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400

    def test_invalid_spec_is_400_with_code(self, server):
        _srv, base = server
        with pytest.raises(urllib.error.HTTPError) as err:
            post(base, "/v1/runs", {"spec": {"scheme": {"kind": "nope"}}})
        assert err.value.code == 400
        assert json.load(err.value)["error"]["code"] == "invalid-spec"

    def test_oversized_body_is_413(self, server):
        _srv, base = server
        req = urllib.request.Request(
            base + "/v1/runs", data=b"x" * (64 * 1024 + 1),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 413

    def test_garbage_request_line_is_400(self, server):
        srv, base = server
        with socket.create_connection(
            ("127.0.0.1", srv.bound_port), timeout=30
        ) as sock:
            sock.sendall(b"NOT A REQUEST\r\n\r\n")
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400 ")
