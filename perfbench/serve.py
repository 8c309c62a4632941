"""The ``serve_runs`` workload: a real ``repro serve`` under a closed loop.

Two client threads share one seeded job sequence
(:func:`grids.serve_jobs`).  Each takes the next job, ``POST``s it to
``/v1/runs``, follows the job's SSE stream until it ends, fetches the
finished job document, and only then takes another job: callers wait
for their results, as the CI smoke job and plan submitters do.  One
operation is one job, timed from submit to done.  About a quarter of
the jobs repeat an earlier one and are answered from the result cache.

A round serves the first ``JOBS_PER_ROUND`` jobs of the sequence on a
freshly launched server with empty cache, journal and trace-store
directories; a run plays rounds until its time is up, so every job is
measured once per round.  Set-up time is launch to the first healthy
``/v1/health``.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import grids
import passes

#: Closed-loop clients (the box has two cores; the server is a third
#: party to them).
CLIENTS = 2

#: Jobs per round: two whole decks (see :func:`grids.serve_jobs`), so
#: every round and every seed has the same scheme mix, and 19 jobs lie
#: above the 90th percentile.
JOBS_PER_ROUND = 2 * grids.SERVE_DECK_JOBS

#: Server launches per untraced run (one per round, topped up at the
#: end); their median is ``setup_s``.
LAUNCHES = 5

#: Limits on one launch and one request, so a wedged server fails the
#: run instead of hanging it.
LAUNCH_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

ANNOUNCE = "serving on http://"


class Server:
    """One ``repro serve`` process with its own directories."""

    def __init__(self, root: Path, work: Path, name: str,
                 spans_out: Path | None = None) -> None:
        self.dir = work / name
        self.dir.mkdir(parents=True)
        args = ["--port", "0", "--cache-dir", str(self.dir / "cache")]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            cmd = [sys.executable, str(root / "perfbench" / "serve_traced.py"),
                   str(spans_out), *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["REPRO_TRACE_STORE_DIR"] = str(self.dir / "traces")
        self._out = open(self.dir / "stdout.log", "w+", encoding="utf-8")
        self._err = open(self.dir / "stderr.log", "w", encoding="utf-8")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdout=self._out, stderr=self._err)
        try:
            self.port = self._wait_port(start)
            self._wait_healthy(start)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_port(self, start: float) -> int:
        while time.perf_counter() - start < LAUNCH_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            self._out.seek(0)
            for line in self._out.read().splitlines():
                if ANNOUNCE in line:
                    address = line.split(ANNOUNCE, 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
            time.sleep(0.002)
        raise RuntimeError("server did not announce its port")

    def _wait_healthy(self, start: float) -> None:
        while time.perf_counter() - start < LAUNCH_TIMEOUT_S:
            try:
                status, _ = self.request("GET", "/v1/health")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("server never answered /v1/health")

    def request(self, method: str, path: str, body: dict | None = None,
                raw: bool = False):
        """One request on a fresh connection: ``(status, doc or bytes)``."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            payload = None if body is None else json.dumps(body).encode()
            headers = {} if body is None else {
                "Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        return response.status, (data if raw else json.loads(data))

    def peak_rss_mb(self) -> float:
        """The process's peak resident set (``VmHWM``), in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._out.close()
        self._err.close()


class JobFeed:
    """The first ``jobs`` of the sequence, shared by the clients; a
    repeat waits until its original is done."""

    def __init__(self, seed: int, jobs: int) -> None:
        self._jobs = itertools.islice(grids.serve_jobs(seed), jobs)
        self._lock = threading.Lock()
        self._done: dict[int, threading.Event] = {}
        self._position = 0

    def take(self):
        """``(position, spec, repeat_of)``, or None when all are taken."""
        with self._lock:
            job = next(self._jobs, None)
            if job is None:
                return None
            position = self._position
            self._position += 1
            self._done[position] = threading.Event()
        spec, repeat_of = job
        if repeat_of is not None:
            self._done[repeat_of].wait(REQUEST_TIMEOUT_S)
        return position, spec, repeat_of

    def finish(self, position: int) -> None:
        self._done[position].set()


def _submit_and_wait(server: Server, spec) -> dict:
    """Submit one run; follow its events to the end; fetch the result."""
    status, doc = server.request("POST", "/v1/runs",
                                 {"spec": spec.to_dict()})
    if status == 202:
        job = doc["job"]
        events, _ = server.request("GET", f"/v1/jobs/{job}/events", raw=True)
        if events != 200:
            raise RuntimeError(f"events stream answered {events}")
        status, doc = server.request("GET", f"/v1/jobs/{job}")
    if status != 200 or doc.get("status") != "done":
        raise RuntimeError(f"job ended with HTTP {status}: "
                           f"{doc.get('status') or doc.get('error')}")
    return doc


def _client(server: Server, feed: JobFeed, records: list) -> None:
    while (job := feed.take()) is not None:
        position, spec, repeat_of = job
        start = time.perf_counter()
        record = {"position": position, "spec": spec, "repeat_of": repeat_of}
        try:
            record["doc"] = _submit_and_wait(server, spec)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["start"] = start
        record["end"] = time.perf_counter()
        records.append(record)
        feed.finish(position)


def drive(server: Server, seed: int, jobs: int) -> tuple[list, float]:
    """Serve the first ``jobs`` jobs; returns (records by position, wall)."""
    feed = JobFeed(seed, jobs)
    records: list = []
    threads = [threading.Thread(target=_client, args=(server, feed, records))
               for _ in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return sorted(records, key=lambda r: r["position"]), wall


def play_round(root: Path, work: Path, name: str, seed: int,
               spans_out: Path | None = None):
    """One round on a fresh server: ``(wall, round data)``."""
    server = Server(root, work, name, spans_out)
    try:
        warm = warm_up(server)
        records, wall = drive(server, seed, JOBS_PER_ROUND)
        peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    return wall, {"records": records, "setup_s": server.setup_s,
                  "peak_rss_mb": peak_rss_mb, "warm": warm}


def warm_up(server: Server) -> int:
    """Serve a few tiny jobs of each scheme, untimed (the server imports
    the simulation stack on its first run); returns how many."""
    from repro.experiments import ExperimentSpec, SchemeSpec

    kinds = ("pra", "sca", "ccache")
    for kind in kinds:
        _submit_and_wait(server, ExperimentSpec(
            scheme=SchemeSpec(kind), workload="libq", seed=1, scale=192.0,
            n_banks=1, n_intervals=3))
    return len(kinds)


def reference(records: list, work: Path) -> dict[str, str]:
    """In-process ``run_spec`` result bytes of every distinct job spec,
    by content hash."""
    specs = {}
    for record in records:
        specs.setdefault(record["spec"].content_hash(), record["spec"])
    return dict(zip(specs, check.reference_results(specs.values(), work)))


def score(rounds: list, expected: dict[str, str]) -> dict:
    """Check every served result against ``expected`` (from
    :func:`reference`) and derive the end-to-end numbers.

    ``rounds`` is the :func:`passes.repeat` list of :func:`play_round`
    results.  Each percentile is taken over one round's jobs, and the
    reported value is its median over the untraced rounds; the round
    time is the median round's wall time.  (Unlike a sweep cell, a job's
    latency depends on the job the other client runs beside it, so the
    fastest of a job's repeats is the round where it happened to run
    alone, which varies from run to run.)
    """
    records = [r for run in rounds for r in run[2]["records"]]
    failed = sum(
        1 for r in records
        if "doc" not in r or check.doc_bytes(r["doc"]["result"])
        != expected[r["spec"].content_hash()]
    )
    plain = [run for run in rounds if not run[0]]
    latencies = [[1000.0 * (r["end"] - r["start"]) for r in run[2]["records"]]
                 for run in plain]
    wall = statistics.median(run[1] for run in plain)
    by_position = {r["position"]: r for r in records if "doc" in r}
    accesses = sum(r["doc"]["result"]["totals"]["accesses"]
                   for r in by_position.values())
    return {
        "attempted": len(records),
        "failed": failed,
        "self_check": _self_check(records),
        "end_to_end": {
            "accesses_per_s": accesses / wall,
            "jobs_per_s": JOBS_PER_ROUND / wall,
            "op_p50_ms": statistics.median(
                passes.quantile(round_ms, 0.5) for round_ms in latencies),
            "op_p90_ms": statistics.median(
                passes.quantile(round_ms, 0.9) for round_ms in latencies),
            "op_samples": f"{JOBS_PER_ROUND} jobs x {len(plain)} rounds",
            "peak_rss_mb": statistics.median(
                run[2]["peak_rss_mb"] for run in plain),
        },
    }


def server_stats(records: list) -> dict:
    """Medians over simulated (not cached) jobs of the job documents'
    queueing and execution times, the rest of submit-to-done, and the
    share of jobs answered from the cache."""
    ok = [r for r in records if "doc" in r]
    simulated = [r for r in ok if not r["doc"]["cached"]]
    return {
        "queue_ms": 1000.0 * statistics.median(
            r["doc"]["queued_s"] for r in simulated),
        "exec_ms": 1000.0 * statistics.median(
            r["doc"]["elapsed_s"] for r in simulated),
        "overhead_ms": 1000.0 * statistics.median(
            r["end"] - r["start"] - r["doc"]["queued_s"]
            - r["doc"]["elapsed_s"] for r in simulated),
        "cached_ratio": (len(ok) - len(simulated)) / len(records),
    }


def _self_check(records: list) -> bool:
    """The byte comparison flags a one-count change in a served result."""
    from repro.sim.metrics import SimulationResult

    for record in records:
        if "doc" in record:
            served = SimulationResult.from_dict(record["doc"]["result"])
            return check.catches_perturbation(served)
    return False
