"""The ``repro serve`` application: routes → experiment layer.

:class:`ReproServer` owns the job table, the SSE hub, a
:class:`ResultCache` shared by every job, and a small thread pool that
*drives* jobs.  The simulation itself runs in the ``workers`` worker
processes of the process-wide :class:`~repro.experiments.SweepPool`
(:mod:`~repro.experiments.pool`): a single run executes a streaming
:class:`~repro.api.Session` in one worker, which drives it to the end
on one ``run`` command while the driving thread publishes its
per-epoch events, and a plan sends chunks of its cells to idle workers
through the fault-tolerant :func:`run_plan` scheduler.

Deduplication happens at two layers, both keyed by content hash:

* **completed** work — the submit handlers consult the result cache
  first; a full hit becomes a job that is born ``done`` (zero
  simulation, provable via the cache hit/miss counters);
* **in-flight** work — the job table attaches concurrent identical
  submissions to the one job already executing.

Every handler is synchronous and pure enough to call directly from
tests (``server.handle(Request(...)) -> Response``); only the SSE
endpoint returns a streaming response, whose generator bridges the
job's :class:`~repro.server.hub.EventHub` channel onto the socket.

Crash safety
------------
The server is restart-transparent: every accepted submission is
journaled (:mod:`repro.server.journal`) before work starts, and
:meth:`ReproServer.__init__` replays the journal from the previous
incarnation — finished jobs reload their results from the
:class:`ResultCache`, unfinished jobs are re-enqueued (plans recompute
only the cells the cache does not already hold; runs resume from the
periodic ``"serve"`` session snapshot the run's worker checkpoints
every ``checkpoint_epochs`` epochs).  Recovered results are
byte-identical to an uninterrupted run: cells by per-cell seeding,
sessions by the session layer's snapshot/restore equivalence proof.

SIGTERM/SIGINT trigger a *graceful drain* (see :meth:`drain`): new
submissions get 503 + Retry-After while status reads stay live, running
sessions checkpoint and stop at the next epoch boundary, running plans
stop cooperatively at the next cell boundary, the journal flushes, and
the process exits within ``drain_deadline_s``.  Each job has one
driver thread at a time.  A run whose worker dies, or sends nothing for
``stall_timeout_s``, is requeued on a fresh worker by its own driver,
and admission control sheds load (429) when the queue is full.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import logging
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro._version import __version__
from repro.errors import CellTimeout, RemoteError, describe, is_retryable
from repro.experiments.cache import ResultCache, code_fingerprint
from repro.experiments.pool import SNAPSHOT_TAG, SweepPool, WorkerDied
from repro.experiments.run import run_plan
from repro.locking import lock_stats
from repro.report.config import RunContext
from repro.server import wire
from repro.server.http import (
    HttpError,
    Request,
    Response,
    read_request,
    write_response,
)
from repro.server.hub import EventHub
from repro.server.journal import JOURNAL_DIR, Journal, JournaledJob
from repro.server.jobs import JOB_STATES, Job, JobTable
from repro.server.routes import match
from repro.testing.faults import fault_point

logger = logging.getLogger(__name__)

#: How long one connection may take to send its request head + body.
_REQUEST_TIMEOUT_S = 30.0


@dataclass
class ServerConfig:
    """Tunables of one server instance (all CLI-exposed ones first)."""

    host: str = "127.0.0.1"
    port: int = 8765
    #: worker processes: run jobs execute one per worker, and plans
    #: send chunks of cells to the idle ones
    workers: int = 2
    #: result-cache directory; None = a private temp dir per server
    cache_dir: str | None = None
    #: job-driving threads (concurrent runs and plans)
    driver_threads: int = 4
    max_jobs: int = 256
    job_ttl_s: float = 3600.0
    #: per-job SSE event ring size (older events age out for late/slow
    #: subscribers; publishers never block on it)
    event_backlog: int = 512
    #: SSE keep-alive comment cadence
    keepalive_s: float = 15.0
    max_body: int = wire.MAX_BODY_BYTES
    #: plan-cell retry budget / timeout, passed through to run_plan
    max_retries: int = 2
    cell_timeout: float | None = None
    #: run jobs checkpoint a session snapshot every this many epochs
    #: (0 disables periodic checkpoints; drain still checkpoints)
    checkpoint_epochs: int = 2
    #: graceful-drain budget: running work gets this long to checkpoint
    #: and stop before the process exits anyway
    drain_deadline_s: float = 20.0
    #: a run whose worker sends no message for this long is presumed
    #: hung: the worker is replaced and the job requeued
    stall_timeout_s: float = 120.0
    #: admission control: reject (429) when this many jobs are queued
    max_queued: int = 64
    #: how many times a job may be requeued (a silent worker or another
    #: retryable driver failure) before it is marked failed
    max_job_requeues: int = 2


class ReproServer:
    """The asyncio HTTP service over the experiment layer."""

    def __init__(self, config: ServerConfig | None = None, *,
                 clock=time.monotonic) -> None:
        self.config = config or ServerConfig()
        #: the settings every job runs under, parsed once at start-up
        self.context = RunContext.from_env(cache_dir=self.config.cache_dir)
        # Fork before any file opens or thread starts here (see
        # repro.experiments.pool): the process-wide pool, freshly.  The
        # workers write run results and checkpoints into this process's
        # cache partition, so they inherit its code fingerprint.
        code_fingerprint()
        SweepPool.shutdown()
        self._sim = SweepPool.get(self.config.workers)
        self.hub = EventHub(backlog=self.config.event_backlog)
        if self.config.cache_dir is None:
            # A private cache lives as long as this server: close()
            # removes it, so no restart can find (and recover) it.
            self._cache_root = tempfile.mkdtemp(prefix="repro-serve-cache-")
        else:
            self._cache_root = self.config.cache_dir
        self.cache = ResultCache(self._cache_root)
        self.journal = Journal(Path(self._cache_root) / JOURNAL_DIR)
        self.jobs = JobTable(
            self.hub, clock=clock,
            max_jobs=self.config.max_jobs, ttl_s=self.config.job_ttl_s,
            journal=self.journal,
        )
        self._drivers = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.driver_threads,
            thread_name_prefix="repro-job",
        )
        self._draining = threading.Event()
        #: driver threads currently executing a job (drain waits on 0)
        self._active_drivers = 0
        self._active_lock = threading.Lock()
        #: what startup recovery did (surfaced in /v1/health)
        self.recovery = {
            "replayed": 0, "requeued": 0, "restored_done": 0,
            "restored_failed": 0, "resumed_from_snapshot": 0,
            "skipped": 0, "supervisor_requeues": 0,
        }
        self.started_unix = time.time()
        self.bound_port: int | None = None
        self._recover()

    # -- startup recovery --------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal of a previous incarnation (if any).

        Recovery matrix, per replayed job state:

        ========== =====================================================
        queued     re-enqueue (re-parse the journaled document); run
                   jobs resume from their ``"serve"`` snapshot, plan
                   jobs recompute only uncached cells
        running    the same (only older journals hold this record)
        done       reload results from the ResultCache — or re-enqueue
                   when the cache no longer holds them
        failed     restore as failed (``recovered=true``)
        ========== =====================================================

        Terminal jobs older than ``job_ttl_s`` are skipped (the table
        would GC them immediately anyway).  After the fold the journal
        is compacted to one fresh segment holding exactly the surviving
        jobs, so restart chains never re-read dead history.
        """
        replayed = self.journal.replay()
        if not replayed:
            return
        survivors: list[JournaledJob] = []
        relaunch: list[tuple[Job, object, object]] = []
        now = time.time()
        for entry in replayed.values():
            self.recovery["replayed"] += 1
            if entry.finished and entry.finished_unix is not None and \
                    now - entry.finished_unix >= self.config.job_ttl_s:
                self.recovery["skipped"] += 1
                continue
            job = Job(
                id=entry.id, kind=entry.kind,
                content_hash=entry.content_hash, n_cells=entry.n_cells,
                created_unix=entry.submitted_unix,
                created_s=self.jobs._clock(),
            )
            if entry.status == "failed":
                job.status = "failed"
                job.error = entry.error
                job.started_s = job.finished_s = job.created_s
                self.jobs.adopt(job)
                self.recovery["restored_failed"] += 1
                survivors.append(entry)
                continue
            try:
                payload, execute = self._parse_recovered(entry)
            except Exception as exc:  # noqa: BLE001 - corrupt doc
                job.status = "failed"
                job.error = f"recovery: unreadable document " \
                            f"({type(exc).__name__}: {exc})"
                job.started_s = job.finished_s = job.created_s
                self.jobs.adopt(job)
                entry.status, entry.error = "failed", job.error
                self.recovery["restored_failed"] += 1
                survivors.append(entry)
                continue
            if entry.status == "done":
                results = self._cached_results(entry.kind, payload)
                if results is not None:
                    job.status = "done"
                    job.cached = True
                    job.started_s = job.finished_s = job.created_s
                    for key, value in results.items():
                        setattr(job, key, value)
                    self.jobs.adopt(job)
                    self.recovery["restored_done"] += 1
                    survivors.append(entry)
                    continue
                # The cache lost the results (cleared, or a code edit
                # moved the partition): the job must earn "done" again.
            job.status = "queued"
            entry.status, entry.error, entry.finished_unix = \
                "queued", None, None
            if self.jobs.adopt(job):
                relaunch.append((job, payload, execute))
                self.recovery["requeued"] += 1
            survivors.append(entry)
        # Compact *before* relaunching: post-compaction appends land in
        # the fresh segment; records written into doomed segments first
        # would be deleted out from under the jobs that wrote them.
        try:
            self.journal.compact(survivors)
        except OSError:
            logger.exception("journal compaction failed; recovering "
                             "on the uncompacted journal")
        for job, payload, execute in relaunch:
            self._launch(job.id, execute, payload)

    def _parse_recovered(self, entry: JournaledJob):
        """(payload, execute fn) for one journaled document."""
        if entry.kind == "run":
            spec = wire.parse_run_request(entry.doc)
            return spec, self._execute_run
        plan = wire.parse_plan_request(entry.doc)
        return plan, self._execute_plan

    def _cached_results(self, kind: str, payload) -> dict | None:
        """A done job's results out of the cache, or None if any are
        missing (the job then re-executes instead)."""
        if kind == "run":
            result = self.cache.get(payload)
            return None if result is None else {"result": result}
        hits = [self.cache.get(spec) for spec in payload.specs]
        if any(hit is None for hit in hits):
            return None
        return {"results": hits}

    # -- request dispatch --------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Route one request; never raises (errors become envelopes)."""
        try:
            found, params, path_known = match(request.method, request.path)
            if found is None:
                if path_known:
                    raise wire.WireError(
                        f"method {request.method} is not allowed on "
                        f"{request.path}", status=405,
                        code="method-not-allowed",
                    )
                raise wire.WireError(f"no such endpoint: {request.path}",
                                     status=404, code="not-found")
            handler = getattr(self, f"_h_{found.handler}")
            return handler(request, params)
        except wire.WireError as exc:
            headers = {}
            if exc.retry_after is not None:
                headers["Retry-After"] = str(int(exc.retry_after))
            return Response(exc.status, wire.dump(wire.error_doc(exc)),
                            headers=headers)
        except Exception as exc:  # noqa: BLE001 - the 500 boundary
            logger.exception("unhandled error serving %s %s",
                             request.method, request.path)
            return Response(500, wire.dump(wire.error_doc(exc)))

    # -- endpoint handlers -------------------------------------------------

    def _h_health(self, request: Request, params: dict) -> Response:
        """``GET /v1/health`` — the ``repro verify`` header, as JSON."""
        from repro.sim.engine import ENGINES

        self.jobs.gc()
        doc = wire.envelope({
            "service": "repro",
            "version": __version__,
            "status": "draining" if self._draining.is_set() else "ok",
            "uptime_s": round(time.time() - self.started_unix, 3),
            "engines": {name: "available" for name in ENGINES},
            "trace_store": {
                "enabled": self.context.trace_store is not None,
                "root": self.context.trace_store,
            },
            "result_cache": {
                "root": str(self.cache.root),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "lock_backend": "flock",
            },
            "faults": self.context.faults or "off",
            "jobs": self.jobs.counts(),
            "dedup": self.jobs.dedup(),
            "workers": self.config.workers,
            "sim_workers": self._sim.stats(),
            "journal": self.journal.usage(),
            "recovery": dict(self.recovery),
            "locks": lock_stats(),
            "draining": self._draining.is_set(),
        })
        return Response(200, wire.dump(doc))

    def _admit(self) -> None:
        """Admission control for submissions (reads stay open).

        Draining → 503 (come back after the restart); queue saturated →
        429 (back off and retry).  Both carry ``Retry-After``.
        """
        if self._draining.is_set():
            raise wire.WireError(
                "server is draining; resubmit after restart",
                status=503, code="draining", retry_after=5,
            )
        if self.jobs.counts()["queued"] >= self.config.max_queued:
            raise wire.WireError(
                f"job queue is full ({self.config.max_queued} queued)",
                status=429, code="queue-full", retry_after=2,
            )

    def _job_response(self, job, status: int = 200,
                      include_results: bool = True) -> Response:
        doc = job.to_dict(include_results=include_results)
        doc["events_url"] = f"/v1/jobs/{job.id}/events"
        doc["events"] = self.hub.channel_stats(job.id)
        return Response(status, wire.dump(wire.envelope(doc)))

    def _h_submit_run(self, request: Request, params: dict) -> Response:
        """``POST /v1/runs`` — one spec; dedup by content hash."""
        doc = wire.parse_json_body(request.body)
        spec = wire.parse_run_request(doc)
        self.jobs.gc()
        content_hash = spec.content_hash()
        cached = self.cache.get(spec)
        if cached is not None:
            job = self.jobs.add_finished("run", content_hash, 1,
                                         result=cached)
            return self._job_response(job, status=200)
        self._admit()
        job, owner = self.jobs.submit("run", content_hash, 1, doc=doc)
        if owner:
            self._launch(job.id, self._execute_run, spec)
        return self._job_response(job, status=202, include_results=False)

    def _h_submit_plan(self, request: Request, params: dict) -> Response:
        """``POST /v1/plans`` — a cell grid onto the sweep scheduler."""
        doc = wire.parse_json_body(request.body)
        plan = wire.parse_plan_request(doc)
        if len(plan) == 0:
            raise wire.WireError("plan expands to zero cells",
                                 status=422, code="empty-plan")
        self.jobs.gc()
        content_hash = plan.content_hash()
        hits = [self.cache.get(spec) for spec in plan.specs]
        if all(hit is not None for hit in hits):
            job = self.jobs.add_finished("plan", content_hash, len(plan),
                                         results=hits)
            return self._job_response(job, status=200)
        self._admit()
        job, owner = self.jobs.submit("plan", content_hash, len(plan),
                                      doc=doc)
        if owner:
            self._launch(job.id, self._execute_plan, plan)
        return self._job_response(job, status=202, include_results=False)

    def _h_list_jobs(self, request: Request, params: dict) -> Response:
        """``GET /v1/jobs`` — every live job, oldest first.

        ``?state=queued|running|done|failed`` filters; recovered jobs
        carry ``recovered: true`` in their documents.
        """
        self.jobs.gc()
        state = request.query.get("state")
        if state is not None and state not in JOB_STATES:
            raise wire.WireError(
                f"unknown state filter {state!r}: expected one of "
                f"{', '.join(JOB_STATES)}", status=422, code="bad-state",
            )
        doc = wire.envelope({
            "jobs": [job.to_dict(include_results=False)
                     for job in self.jobs.jobs(state)],
        })
        return Response(200, wire.dump(doc))

    def _get_job(self, params: dict):
        job = self.jobs.get(params["id"])
        if job is None:
            raise wire.WireError(f"no such job: {params['id']}",
                                 status=404, code="not-found")
        return job

    def _h_job_status(self, request: Request, params: dict) -> Response:
        """``GET /v1/jobs/<id>`` — status + results once terminal."""
        job = self._get_job(params)
        include = request.query.get("results", "1") != "0"
        return self._job_response(job, include_results=include)

    def _h_job_events(self, request: Request, params: dict) -> Response:
        """``GET /v1/jobs/<id>/events`` — the job's SSE stream.

        Replays the retained event ring, then streams live events until
        the job finishes, one socket write per batch the hub hands over.
        A slow consumer only loses *its own* oldest events (reported via
        a ``dropped`` frame); it never slows the simulation or other
        subscribers.
        """
        job = self._get_job(params)
        subscription = self.hub.subscribe(job.id)
        keepalive = self.config.keepalive_s

        async def stream():
            reported_drops = 0
            try:
                yield wire.sse_comment(f"repro {__version__} job {job.id}")
                while True:
                    batch, done = await subscription.next_batch(keepalive)
                    frames = []
                    if subscription.dropped > reported_drops:
                        frames.append(wire.sse_event("dropped", -1, {
                            "job": job.id,
                            "dropped": subscription.dropped,
                        }))
                        reported_drops = subscription.dropped
                    frames += [wire.sse_event(event.name, event.id,
                                              event.data)
                               for event in batch]
                    if frames:
                        yield b"".join(frames)
                    if done:
                        return
                    if not batch:
                        yield wire.sse_comment("keep-alive")
            finally:
                subscription.close()

        return Response(
            200,
            content_type="text/event-stream; charset=utf-8",
            headers={"Cache-Control": "no-cache"},
            stream=stream(),
        )

    # -- job execution (driver threads) ------------------------------------

    def _launch(self, job_id: str, fn, payload) -> None:
        """Hand a job to a driver thread: its one driver at a time."""

        def run() -> None:
            with self._active_lock:
                self._active_drivers += 1
            try:
                fault_point("server.driver")
                fn(job_id, payload)
            except Exception as exc:  # noqa: BLE001 - job boundary
                self._driver_failed(job_id, fn, payload, exc)
            finally:
                with self._active_lock:
                    self._active_drivers -= 1

        self._drivers.submit(run)

    def _driver_failed(self, job_id: str, fn, payload,
                       exc: Exception) -> None:
        """A driver raised: requeue and relaunch retryably, else fail.

        A silent worker (:class:`CellTimeout`) was reclaimed by the run's
        driver; its requeue is counted as ``supervisor_requeues``.
        """
        logger.exception("job %s died in the driver", job_id)
        job = self.jobs.get(job_id)
        if (
            job is not None and not job.finished
            and is_retryable(exc)
            and job.requeues < self.config.max_job_requeues
            and not self._draining.is_set()
            and self.jobs.requeue(job_id)
        ):
            if isinstance(exc, CellTimeout):
                self.recovery["supervisor_requeues"] += 1
            self._launch(job_id, fn, payload)
            return
        with contextlib.suppress(Exception):
            self.jobs.mark_failed(job_id, describe(exc))

    def _execute_run(self, job_id: str, spec) -> None:
        """Run one spec's Session in a pool worker with one ``run`` command.

        The worker's session is the one ``run_spec`` drives, so a served
        run returns exactly what ``run_spec`` would.  The worker drives
        it to the end without waiting for this thread: it checkpoints a
        resumable ``"serve"`` snapshot every ``checkpoint_epochs``
        epochs, puts the result in the cache, and sends one message per
        epoch with that epoch's event documents, which this thread
        publishes to the hub as one batch.  When a drain begins, this
        thread sends ``stop``: the worker checkpoints and ends at the
        next epoch boundary.  A worker that sends nothing for
        ``stall_timeout_s`` raises :class:`CellTimeout` and is
        reclaimed.  A stored ``"serve"`` snapshot (from a killed,
        drained or silent ancestor) is resumed instead of restarting
        from zero — byte-identical either way by the snapshot/restore
        equivalence proof.  Errors go to :meth:`_driver_failed`:
        retryable ones (a dead or silent worker among them) requeue the
        job, others fail it.
        """
        if not self.jobs.mark_running(job_id):
            return
        # More concurrent jobs than workers: wait, honouring a drain.
        while (worker := self._sim.acquire(job_id, timeout=0.25)) is None:
            if self._draining.is_set() or self._sim.closed:
                return  # journaled as submitted → restart resumes
        try:
            result = self._drive_run(job_id, spec, worker)
        except WorkerDied:
            if self._draining.is_set():
                return  # the closing server stopped it: restart resumes
            raise
        except RemoteError:
            raise  # the worker answered, so it is idle again
        except Exception:
            self._sim.reclaim(job_id)  # its run may still be in flight
            raise
        finally:
            self._sim.release(job_id)
        if result is not None and self.jobs.mark_done(job_id,
                                                      result=result):
            # The run is terminal and cached; its resume point is dead
            # weight (and must not shadow a future identical spec).
            self.cache.delete_snapshot(spec, SNAPSHOT_TAG)

    def _drive_run(self, job_id: str, spec, worker):
        """Publish a ``run`` command's messages; its result, or None when
        a drain stopped it."""
        stored = self.cache.get_snapshot(spec, SNAPSHOT_TAG)
        worker.send("run", job_id, spec, stored,
                    self.jobs.get(job_id).requeues, self._cache_root,
                    self.config.checkpoint_epochs, self.context)
        draining = self._draining.is_set
        budget = self.config.stall_timeout_s
        if worker.receive(draining, budget):
            self.recovery["resumed_from_snapshot"] += 1
        elif stored is not None:
            logger.warning("job %s: stored snapshot unusable; "
                           "cold-starting", job_id)
        while True:
            kind, events, result = worker.receive(draining, budget)
            self.hub.publish_batch(job_id, events)
            if kind != "epoch":
                return result  # None when stopped: restart resumes

    def _execute_plan(self, job_id: str, plan) -> None:
        """Run a plan on the worker pool via the retry scheduler.

        Every round goes to the pool, a one-cell round on a one-worker
        server included, so no cell simulates on this thread.  Plans run
        side by side, each round under the server's context at its own
        fault round.

        The scheduler's cooperative ``stop`` hook is wired to the drain
        flag: a drain stops the plan at the next cell boundary with all
        completed cells already flushed to the cache, and the restarted
        server, which re-enqueues the unfinished job, recomputes only
        what is missing.  Each cell stays bounded by ``cell_timeout``.
        """
        if not self.jobs.mark_running(job_id):
            return
        eventing = _EventingCache(self._cache_root, self.hub, job_id)
        try:
            report = run_plan(
                plan,
                workers=self.config.workers,
                cache=eventing,
                keep_going=True,
                max_retries=self.config.max_retries,
                cell_timeout=self.config.cell_timeout,
                stop=self._draining.is_set,
                pool=self._sim,
                ctx=self.context,
            )
        except Exception as exc:  # noqa: BLE001 - job boundary
            logger.exception("plan job %s failed", job_id)
            self.jobs.mark_failed(job_id, f"{type(exc).__name__}: {exc}")
            return
        if report.pending:
            # A drain stopped the plan mid-flight: leave the job
            # unfinished in the journal for the next incarnation.
            return
        payload = {"results": report.results, "report": report.to_dict()}
        if report.ok:
            self.jobs.mark_done(job_id, **payload)
        else:
            failed = len(report.failed)
            self.jobs.mark_failed(
                job_id, f"{failed} cell(s) permanently failed")
            with contextlib.suppress(Exception):
                job = self.jobs.get(job_id)
                if job is not None:
                    job.results = report.results
                    job.report = report.to_dict()

    # -- serving -----------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    read_request(reader, self.config.max_body),
                    timeout=_REQUEST_TIMEOUT_S,
                )
            except HttpError as exc:
                error = wire.WireError(str(exc), status=exc.status)
                response = Response(exc.status,
                                    wire.dump(wire.error_doc(error)))
            except asyncio.TimeoutError:
                error = wire.WireError("request timed out", status=408,
                                       code="timeout")
                response = Response(408, wire.dump(wire.error_doc(error)))
            else:
                if request is None:
                    return
                found, _, _ = match(request.method, request.path)
                if found is not None and found.handler.startswith("submit_"):
                    # A submission journals (and fsyncs) before it answers;
                    # a worker thread keeps that off the event loop.
                    response = await asyncio.to_thread(self.handle, request)
                else:
                    response = self.handle(request)
            with contextlib.suppress(ConnectionError,
                                     asyncio.CancelledError):
                await write_response(writer, response)
        finally:
            with contextlib.suppress(Exception):
                writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def serve(self, *, ready: "threading.Event | None" = None,
                    announce: bool = False,
                    handle_signals: bool = False) -> bool:
        """Bind and serve until cancelled (or, with signals, drained.)

        ``ready`` (a threading.Event) is set once the socket is bound
        and :attr:`bound_port` is valid — the hook thread-based
        embedders and the test harness synchronize on.

        With ``handle_signals`` (the ``repro serve`` CLI path), SIGTERM
        and SIGINT trigger a graceful drain: submissions 503 while
        status reads stay live, running work checkpoints, and this
        coroutine returns — True for a clean drain, False when the
        deadline expired with drivers still running (the CLI then
        hard-exits; the journal has everything).
        """
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
        )
        self.bound_port = server.sockets[0].getsockname()[1]
        # Signal handlers must be live before the announce/ready gate:
        # supervisors send SIGTERM as soon as they see either, and a
        # not-yet-replaced default disposition would kill the process.
        stop = asyncio.Event()
        if handle_signals:
            import signal

            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(signum, stop.set)
        if announce:
            print(f"repro {__version__} serving on "
                  f"http://{self.config.host}:{self.bound_port} "
                  f"(workers: {self.config.workers}, cache: "
                  f"{self._cache_root})", flush=True)
        if ready is not None:
            ready.set()
        async with server:
            if not handle_signals:
                await server.serve_forever()
                return True  # pragma: no cover - cancelled instead
            await stop.wait()
            if announce:
                print("repro serve: draining "
                      f"(deadline {self.config.drain_deadline_s:.0f}s)",
                      flush=True)
            clean = await asyncio.to_thread(self.drain)
            if announce:
                print("repro serve: drained cleanly" if clean else
                      "repro serve: drain deadline expired; "
                      "journal is flushed, exiting hard", flush=True)
            return clean

    # -- drain & teardown --------------------------------------------------

    def begin_drain(self) -> None:
        """Flip the drain flag: submissions 503, drivers start stopping."""
        self._draining.set()

    def drain(self, deadline_s: float | None = None) -> bool:
        """Gracefully stop job execution; True when drivers got idle.

        Sequence: set the drain flag (submissions now 503 + Retry-After
        while status/results reads stay live), cancel queued driver
        tasks (their jobs are journaled ``queued`` and will re-enqueue
        on restart), wait up to the deadline for running drivers to
        stop cooperatively (a run driver sends its worker ``stop``, and
        the worker checkpoints), terminate the worker pool, then flush
        and close the journal.  Even on a missed
        deadline the on-disk state is fully resumable — every journal
        append was already fsync'd, and a run whose worker is stopped
        under it stays unfinished in the journal.
        """
        self.begin_drain()
        deadline = time.monotonic() + (
            self.config.drain_deadline_s if deadline_s is None
            else deadline_s
        )
        self._drivers.shutdown(wait=False, cancel_futures=True)
        while time.monotonic() < deadline:
            with self._active_lock:
                active = self._active_drivers
            if active == 0:
                break
            time.sleep(0.05)
        with self._active_lock:
            clean = self._active_drivers == 0
        self._sim.close()
        self.journal.close()
        return clean

    def close(self) -> None:
        """Stop accepting job work: driver threads wind down, and the
        worker pool is terminated.  A private cache directory (no
        ``cache_dir`` configured) is removed with everything in it."""
        self._draining.set()
        self._drivers.shutdown(wait=False, cancel_futures=True)
        self._sim.close()
        self.journal.close()
        if self.config.cache_dir is None:
            shutil.rmtree(self._cache_root, ignore_errors=True)


class ServerThread:
    """Run a :class:`ReproServer` on a daemon thread (tests, notebooks).

    ::

        with ServerThread(ReproServer(config)) as base_url:
            urllib.request.urlopen(base_url + "/v1/health")
    """

    def __init__(self, server: ReproServer) -> None:
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    def __enter__(self) -> str:
        ready = threading.Event()

        def main() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            try:
                loop.run_until_complete(self.server.serve(ready=ready))
            except asyncio.CancelledError:
                pass
            finally:
                with contextlib.suppress(Exception):
                    loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=main, name="repro-serve", daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout=30):
            raise RuntimeError("server failed to bind within 30s")
        host = self.server.config.host
        return f"http://{host}:{self.server.bound_port}"

    def __exit__(self, *exc_info) -> None:
        loop = self._loop
        if loop is not None:

            def cancel_all() -> None:
                for task in asyncio.all_tasks(loop):
                    task.cancel()

            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(cancel_all)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.server.close()


class _EventingCache(ResultCache):
    """A ResultCache that narrates plan progress onto the job stream.

    :func:`run_plan` flushes each completed cell through ``put`` as it
    lands and consults ``get`` per cell up front, which makes the cache
    the natural (and only parent-side) per-cell progress seam — no
    scheduler changes needed.  Events carry the spec hash so clients
    can correlate cells with the submitted plan.
    """

    def __init__(self, root: str, hub: EventHub, job_id: str) -> None:
        super().__init__(root)
        self._hub = hub
        self._job_id = job_id

    def _cell(self, spec, status: str) -> None:
        self._hub.publish(self._job_id, "cell", {
            "job": self._job_id, "spec_hash": spec.content_hash(),
            "status": status,
        })

    def get(self, spec):
        hit = super().get(spec)
        if hit is not None:
            self._cell(spec, "cached")
        return hit

    def put(self, spec, result):
        path = super().put(spec, result)
        self._cell(spec, "done")
        return path


__all__ = ["ReproServer", "ServerConfig", "ServerThread"]
