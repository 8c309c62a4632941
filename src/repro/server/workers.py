"""Simulation worker processes: where served runs execute.

A run job's :class:`~repro.api.Session` lives in one of a few
persistent worker processes, one job per worker at a time, so
concurrent runs use separate cores instead of taking turns on the
server's GIL with HTTP and SSE.  The job's driver thread keeps
everything it owns — journal transitions, the per-epoch heartbeat and
drain check, checkpoint writes, the result-cache put and hub
publishing — and drives the session over a pipe whose commands mirror
the :class:`~repro.api.Session` calls it makes:

============  =========================================================
``open``      build the session from the spec, or restore it from the
              stored ``"serve"`` snapshot (a cold start when that does
              not restore); returns whether it resumed
``advance``   serve to an epoch boundary; returns the ``epoch`` and
              ``mitigation`` event documents of the way, in order
``snapshot``  the session's checkpoint document
``result``    finish the run; returns its last events and the result
============  =========================================================

Workers are forked: a child that inherits an imported ``repro.api`` is
ready in about 0.01 s, against about 0.5 s for the spawn and
forkserver start methods.  The pool forks its first workers before the
server opens a file or starts a thread.  A replacement forks from the
running, threaded server, so the child runs nothing but the worker
loop: it ignores SIGINT, restores the default SIGTERM, drops its
copies of the server's sockets and leaves through ``os._exit``, so no
inherited atexit hook runs.  It exits when its pipe reaches EOF or its
parent is gone, so a SIGKILLed server leaves no worker behind.

A worker that dies mid-command raises :class:`WorkerDied` in its driver
(a :class:`~repro.errors.RetryableError`, so the job is requeued), and
the pool forks a replacement.  An exception raised inside a worker
crosses the pipe as its type name, message and
:func:`~repro.errors.is_retryable` verdict, and is re-raised as a
:class:`~repro.errors.RemoteError`.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import stat
import threading

from repro.api import Session
from repro.errors import RemoteError, RetryableError, is_retryable
from repro.testing.faults import ROUND_VAR

#: How often a waiting driver checks that its worker lives, and an idle
#: worker that its server does.
_POLL_S = 0.5

#: How long a stopped worker gets to exit before it is SIGKILLed.
_STOP_TIMEOUT_S = 2.0


class WorkerDied(RetryableError):
    """A simulation worker exited before it answered its command."""


# -- the worker side ---------------------------------------------------------


def _worker_main(conn, server_pid: int) -> None:
    """A worker's whole life: answer commands until the pipe closes."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        _drop_inherited_sockets(keep=conn.fileno())
        _serve(conn, server_pid)
    finally:
        os._exit(0)


def _drop_inherited_sockets(keep: int) -> None:
    """Point every inherited socket but ``keep`` at ``/dev/null``.

    Left open, a worker's copies of the server's client connections and
    listening socket would keep them alive after the server closes them
    (an SSE client would never see its stream end), and its copies of
    other workers' pipes would hide the server's death from them.
    ``dup2`` rather than ``close`` keeps each descriptor number taken, so
    a stale socket object collected in the worker closes ``/dev/null``,
    never a file the worker opened since.
    """
    try:
        fds = [int(name) for name in os.listdir("/dev/fd")]
    except OSError:
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            if fd in (keep, null):
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:
                pass  # the listdir handle itself, already closed
    finally:
        os.close(null)


def _serve(conn, server_pid: int) -> None:
    """The command loop over one pipe (see the module docstring)."""
    session = None
    events: list[tuple[str, dict]] = []
    while True:
        while not conn.poll(_POLL_S):
            if os.getppid() != server_pid:
                return
        try:
            command, args = conn.recv()
        except EOFError:
            return
        try:
            if command == "open":
                session, resumed = _open(events, *args)
                reply = (session.epoch_ns, session.position_ns,
                         session.done, resumed)
            elif command == "advance":
                session.advance(*args)
                reply = (_take(events), session.position_ns, session.done)
            elif command == "snapshot":
                reply = session.snapshot()
            else:
                reply = (session.result(), _take(events))
                session = None
            answer = ("ok", reply)
        except Exception as exc:  # noqa: BLE001 - crosses the pipe
            answer = ("error", (type(exc).__name__, str(exc),
                                is_retryable(exc)))
        conn.send(answer)


def _open(events: list, job_id: str, spec, stored: dict | None,
          fault_round: int) -> tuple[Session, bool]:
    """``(session, resumed?)`` for one attempt at a job, its taps feeding
    ``events``.

    ``fault_round`` (the job's requeue count) becomes
    ``REPRO_FAULTS_ROUND``, so requeued attempts run clean, as
    ``run_plan``'s recovery rounds do.
    """
    os.environ[ROUND_VAR] = str(fault_round)
    events.clear()
    session = None
    if stored is not None:
        try:
            session = Session.restore(stored)
        except Exception:  # noqa: BLE001 - corrupt snapshot: cold start
            session = None
    resumed = session is not None
    if session is None:
        session = Session(spec)

    @session.on_epoch
    def _epoch(event) -> None:
        events.append(("epoch", {
            "job": job_id,
            "epoch": event.epoch,
            "time_ns": event.time_ns,
            "delta": event.delta.to_dict(),
            "totals": event.totals.to_dict(),
        }))

    @session.on_mitigation
    def _mitigation(event) -> None:
        events.append(("mitigation", {
            "job": job_id,
            "time_ns": event.time_ns,
            "bank": event.bank,
            "low": event.low,
            "high": event.high,
            "reason": event.reason,
            "rows": event.rows,
        }))

    return session, resumed


def _take(events: list) -> list:
    """The events collected so far, leaving the list empty."""
    taken = events[:]
    events.clear()
    return taken


# -- the server side ---------------------------------------------------------


class SimWorker:
    """The driver's handle on one worker process and the session in it.

    Its methods mirror the :class:`~repro.api.Session` calls a run
    driver makes; ``epoch_ns``, ``position_ns`` and ``done`` track the
    worker's session after each command.
    """

    def __init__(self, process, conn) -> None:
        self.process = process
        self.pid = process.pid
        self._conn = conn
        self.alive = True
        self.epoch_ns = 0.0
        self.position_ns = 0.0
        self.done = False

    def _call(self, command: str, *args):
        try:
            self._conn.send((command, args))
            while not self._conn.poll(_POLL_S):
                if not self.process.is_alive():
                    raise EOFError
            status, reply = self._conn.recv()
        except (EOFError, OSError):
            self.alive = False
            self.process.join(_STOP_TIMEOUT_S)
            raise WorkerDied(
                f"simulation worker {self.pid} died (exit code "
                f"{self.process.exitcode})"
            ) from None
        if status == "error":
            raise RemoteError(*reply)
        return reply

    def open(self, job_id: str, spec, stored: dict | None,
             fault_round: int) -> bool:
        """Start the job's session; True when ``stored`` restored."""
        self.epoch_ns, self.position_ns, self.done, resumed = self._call(
            "open", job_id, spec, stored, fault_round)
        return resumed

    def advance(self, until_ns: float) -> list[tuple[str, dict]]:
        """Serve to ``until_ns``; the ``(name, document)`` events."""
        events, self.position_ns, self.done = self._call("advance", until_ns)
        return events

    def snapshot(self) -> dict:
        """The session's checkpoint document."""
        return self._call("snapshot")

    def result(self):
        """Finish the run: ``(SimulationResult, last events)``."""
        return self._call("result")

    def stop(self) -> None:
        """Terminate the process and reap it."""
        self.alive = False
        self.process.terminate()
        self.process.join(_STOP_TIMEOUT_S)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()


class SimWorkerPool:
    """``size`` persistent :class:`SimWorker` processes, one job each.

    A driver holds a worker under an owner key — its ``(job id,
    generation)`` — from :meth:`acquire` to :meth:`release`; a worker
    found dead on release, or reclaimed from a stalled generation, is
    replaced by a fresh fork.
    """

    def __init__(self, size: int) -> None:
        self.size = max(1, size)
        #: workers forked to replace dead or reclaimed ones
        self.replaced = 0
        self._context = multiprocessing.get_context("fork")
        self._cond = threading.Condition()
        self._idle = [self._fork() for _ in range(self.size)]
        self._held: dict[object, SimWorker] = {}
        self._closed = False

    def _fork(self) -> SimWorker:
        conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main, args=(child_conn, os.getpid()),
            name="repro-sim", daemon=True,
        )
        process.start()
        child_conn.close()
        return SimWorker(process, conn)

    def _replace(self, worker: SimWorker) -> SimWorker:
        worker.stop()
        self.replaced += 1
        return self._fork()

    def acquire(self, owner, timeout: float) -> SimWorker | None:
        """An idle worker, held for ``owner``; None after ``timeout``."""
        with self._cond:
            if not self._idle and not self._closed:
                self._cond.wait(timeout)
            if self._closed or not self._idle:
                return None
            worker = self._held[owner] = self._idle.pop()
            return worker

    def release(self, owner) -> None:
        """Take back ``owner``'s worker, replacing it if it died."""
        with self._cond:
            worker = self._held.pop(owner, None)
            if worker is None or self._closed:
                return
            if not (worker.alive and worker.process.is_alive()):
                worker = self._replace(worker)
            self._idle.append(worker)
            self._cond.notify()

    def reclaim(self, owner) -> bool:
        """Terminate the worker ``owner`` holds and fork its replacement.

        Supervision calls this for a stalled generation: the hung
        session dies with its worker, and the stale driver's next
        command raises :class:`WorkerDied`.
        """
        with self._cond:
            worker = self._held.pop(owner, None)
            if worker is None or self._closed:
                return False
            self._idle.append(self._replace(worker))
            self._cond.notify()
            return True

    def stats(self) -> dict:
        """``{size, busy, pids, replaced}`` for ``/v1/health``."""
        with self._cond:
            workers = self._idle + list(self._held.values())
            return {
                "size": self.size,
                "busy": len(self._held),
                "pids": sorted(worker.pid for worker in workers),
                "replaced": self.replaced,
            }

    def close(self) -> None:
        """Terminate and join every worker; acquires return None after."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            workers = self._idle + list(self._held.values())
            self._idle.clear()
            self._held.clear()
            self._cond.notify_all()
        for worker in workers:
            worker.stop()


__all__ = ["SimWorker", "SimWorkerPool", "WorkerDied"]
