"""The server's job table: submissions, lifecycle, dedup, and GC.

A *job* is one accepted submission — a single spec (``POST /v1/runs``)
or a whole plan (``POST /v1/plans``) — moving through ``queued`` →
``running`` → ``done``/``failed``.  The table is the single source of
truth the status endpoint reads and the executor writes, guarded by one
lock because readers (asyncio handlers) and writers (worker threads)
live on different threads.

**Content-hash dedup**: while a hash is in flight, every further
submission of the same hash is attached to the existing job — one
simulation, many watchers.  The in-flight map lives under the table's
own lock, so claiming a hash and inserting its job are one step and two
identical submissions can never both own it.  (Completed work is the
:class:`ResultCache`'s department: the executor consults it before
simulating, so re-submitting finished work costs a cache read, not a
run.)

**GC** keeps the table bounded: finished jobs are evicted after
``ttl_s`` seconds, and the oldest finished jobs are evicted early when
the table exceeds ``max_jobs``.  Queued/running jobs are never evicted.
The injected ``clock`` makes eviction deterministic under test.

**Durability** is delegated: when the table is built with a
:class:`~repro.server.journal.Journal`, every submission and terminal
transition is journaled *before* it is acted on, and on restart the
server replays the journal and re-inserts the survivors via
:meth:`JobTable.adopt` (which re-claims the dedup hash for live jobs
and flags them ``recovered``).  ``running`` and requeues are not
journaled: recovery re-enqueues a running job exactly as a queued one.
A job has one driver at a time; :meth:`requeue` sends a retryably
failed job back to ``queued`` for that driver to launch again.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

#: Job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass
class Job:
    """One accepted submission and everything known about it."""

    id: str
    kind: str  # "run" | "plan"
    content_hash: str
    n_cells: int
    status: str = "queued"
    #: wall-clock submission time (display only; GC uses the table clock)
    created_unix: float = field(default_factory=time.time)
    created_s: float = 0.0  # table-clock stamps
    started_s: float | None = None
    finished_s: float | None = None
    #: True when the whole job was served from the ResultCache with
    #: zero simulation (the "completed submissions are free" path).
    cached: bool = False
    #: submissions attached to this job beyond the first (dedup hits)
    attached: int = 0
    error: str | None = None
    #: True when this job was rebuilt from the journal after a restart.
    recovered: bool = False
    #: how many times this job went running → queued (a silent worker
    #: or another retryable failure); a served run's fault round
    requeues: int = 0
    #: run jobs: the SimulationResult; plan jobs: list (None per failed
    #: cell).  Held as live objects; serialized on demand.
    result: object | None = None
    results: list | None = None
    #: plan jobs: the SweepReport dict (per-cell status/attempts/failures)
    report: dict | None = None

    @property
    def finished(self) -> bool:
        """True in a terminal state (done or failed)."""
        return self.status in ("done", "failed")

    def to_dict(self, include_results: bool = True) -> dict:
        """The job-status document ``GET /v1/jobs/<id>`` serves."""
        doc = {
            "job": self.id,
            "kind": self.kind,
            "status": self.status,
            "content_hash": self.content_hash,
            "cells": self.n_cells,
            "created_unix": self.created_unix,
            "cached": self.cached,
            "attached": self.attached,
            "error": self.error,
            "recovered": self.recovered,
            "requeues": self.requeues,
        }
        if self.started_s is not None:
            doc["queued_s"] = round(self.started_s - self.created_s, 6)
        if self.finished_s is not None and self.started_s is not None:
            doc["elapsed_s"] = round(self.finished_s - self.started_s, 6)
        if self.report is not None:
            doc["report"] = self.report
        if include_results and self.status == "done":
            if self.kind == "run":
                doc["result"] = self.result.to_dict()
            else:
                doc["results"] = [
                    (r.to_dict() if r is not None else None)
                    for r in self.results
                ]
        return doc


class JobTable:
    """Thread-safe job registry with in-flight dedup and bounded GC."""

    def __init__(self, hub, *, clock=time.monotonic,
                 max_jobs: int = 256, ttl_s: float = 3600.0,
                 journal=None) -> None:
        self._hub = hub
        self._clock = clock
        self.max_jobs = max_jobs
        self.ttl_s = ttl_s
        self.journal = journal
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._seq = 0
        #: content hash → id of the live job that owns it
        self._inflight: dict[str, str] = {}
        #: submissions attached to an in-flight job (zero new work)
        self._shared = 0

    def _journal_state(self, job: Job) -> None:
        if self.journal is not None:
            self.journal.record_state(job.id, job.status, error=job.error,
                                      cached=job.cached)

    # -- submission --------------------------------------------------------

    def submit(self, kind: str, content_hash: str,
               n_cells: int, doc: dict | None = None) -> tuple[Job, bool]:
        """Register one submission; returns ``(job, owner?)``.

        The first submission of an in-flight hash creates the job and
        returns ``owner=True`` — that caller must execute it and
        eventually :meth:`mark_done`/:meth:`mark_failed`.  Concurrent
        identical submissions get the same job back with
        ``owner=False`` (and bump its ``attached`` count): exactly one
        simulation is in flight per content hash.

        ``doc`` is the submission's wire document (spec or plan); when
        the table has a journal, owner submissions are journaled with
        it *before* this returns, so a crash at any later point can
        re-execute the job from the document alone.
        """
        with self._lock:
            owner_id = self._inflight.get(content_hash)
            if owner_id is not None:
                job = self._jobs[owner_id]
                job.attached += 1
                self._shared += 1
                attached = job.attached
            else:
                self._seq += 1
                job = Job(
                    id=f"j{self._seq:05d}-{content_hash[:8]}", kind=kind,
                    content_hash=content_hash, n_cells=n_cells,
                    created_s=self._clock(),
                )
                self._jobs[job.id] = job
                self._inflight[content_hash] = job.id
                self._hub.open(job.id)
        if owner_id is not None:
            self._hub.publish(job.id, "attached",
                              {"job": job.id, "attached": attached})
            return job, False
        if self.journal is not None and doc is not None:
            self.journal.record_submit(job.id, kind, content_hash,
                                       n_cells, doc)
        self._publish_status(job)
        return job, True

    def add_finished(self, kind: str, content_hash: str, n_cells: int,
                     **payload) -> Job:
        """Register a job born terminal (a cache-served submission)."""
        with self._lock:
            self._seq += 1
            job = Job(
                id=f"j{self._seq:05d}-{content_hash[:8]}",
                kind=kind, content_hash=content_hash, n_cells=n_cells,
                status="done", cached=True, created_s=self._clock(),
            )
            job.started_s = job.finished_s = job.created_s
            for key, value in payload.items():
                setattr(job, key, value)
            self._jobs[job.id] = job
        self._hub.open(job.id)
        self._publish_status(job)
        self._hub.close(job.id)
        return job

    # -- lifecycle ---------------------------------------------------------

    def mark_running(self, job_id: str) -> bool:
        """queued → running (a driver thread picked the job up); False
        when the job is gone or already terminal.

        Not journaled: recovery re-enqueues a running job exactly as a
        queued one.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.finished:
                return False
            job.status = "running"
            job.started_s = self._clock()
        self._publish_status(job)
        return True

    def _finish(self, job_id: str, status: str, **payload) -> Job | None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.finished:
                return None
            job.status = status
            job.finished_s = self._clock()
            for key, value in payload.items():
                setattr(job, key, value)
            del self._inflight[job.content_hash]  # every live job owns it
        self._journal_state(job)
        self._publish_status(job)
        self._hub.close(job_id)
        return job

    def mark_done(self, job_id: str, **payload) -> Job | None:
        """running → done; releases the dedup claim, closes the stream."""
        return self._finish(job_id, "done", **payload)

    def mark_failed(self, job_id: str, error: str) -> Job | None:
        """running → failed; later identical submissions start fresh."""
        return self._finish(job_id, "failed", error=error)

    def requeue(self, job_id: str) -> bool:
        """Send a live job back to ``queued`` for another attempt.

        The dedup claim is *kept* — the job still owns its hash.  Not
        journaled, like ``running``.  False when the job is gone or
        already terminal.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.finished:
                return False
            job.status = "queued"
            job.requeues += 1
            job.started_s = None
        self._publish_status(job)
        return True

    def adopt(self, job: Job) -> bool:
        """Insert a journal-recovered job; returns whether it is viable.

        Flags the job ``recovered``, floors the id sequence past it (so
        fresh submissions never collide with replayed ids), re-claims
        the dedup hash for live jobs, and opens/replays its event
        channel.  A live job whose hash is somehow already owned — a
        state no legitimate journal produces — is adopted as ``failed``
        rather than left to shadow the owner, and False is returned.
        """
        job.recovered = True
        viable = True
        with self._lock:
            if not job.finished and self._inflight.setdefault(
                    job.content_hash, job.id) != job.id:
                job.status = "failed"
                job.error = "recovery: content hash already owned"
                job.finished_s = self._clock()
                viable = False
            try:
                seq = int(job.id[1:].split("-", 1)[0])
            except ValueError:
                seq = 0
            self._seq = max(self._seq, seq)
            self._jobs[job.id] = job
        self._hub.open(job.id)
        self._publish_status(job)
        if job.finished:
            self._hub.close(job.id)
        return viable

    def _publish_status(self, job: Job) -> None:
        self._hub.publish(job.id, "status", {
            "job": job.id, "status": job.status, "kind": job.kind,
            "cells": job.n_cells, "cached": job.cached,
            "error": job.error,
        })

    # -- reads -------------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        """The job record, or None."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self, state: str | None = None) -> list[Job]:
        """All live jobs, oldest first (optionally filtered by state)."""
        with self._lock:
            selected = [
                job for job in self._jobs.values()
                if state is None or job.status == state
            ]
        return sorted(selected, key=lambda j: j.created_s)

    def counts(self) -> dict[str, int]:
        """Job counts by status (health surface)."""
        out = dict.fromkeys(JOB_STATES, 0)
        with self._lock:
            for job in self._jobs.values():
                out[job.status] = out.get(job.status, 0) + 1
        return out

    def dedup(self) -> dict[str, int]:
        """In-flight hashes and attached submissions (health surface)."""
        with self._lock:
            return {"inflight": len(self._inflight), "shared": self._shared}

    # -- GC ----------------------------------------------------------------

    def gc(self) -> list[str]:
        """Evict expired/excess *finished* jobs; returns evicted ids.

        Two triggers: a finished job older than ``ttl_s`` (by the table
        clock) expires, and when the table still exceeds ``max_jobs``
        the oldest finished jobs go first.  Live jobs are never
        evicted, so a table full of running work simply stays large.
        """
        now = self._clock()
        evicted: list[str] = []
        with self._lock:
            finished = sorted(
                (j for j in self._jobs.values() if j.finished),
                key=lambda j: j.finished_s,
            )
            for job in finished:
                if now - job.finished_s >= self.ttl_s:
                    del self._jobs[job.id]
                    evicted.append(job.id)
            overflow = len(self._jobs) - self.max_jobs
            if overflow > 0:
                for job in finished:
                    if overflow <= 0:
                        break
                    if job.id in self._jobs:
                        del self._jobs[job.id]
                        evicted.append(job.id)
                        overflow -= 1
        for job_id in evicted:
            self._hub.drop(job_id)
        return evicted


__all__ = ["JOB_STATES", "Job", "JobTable"]
