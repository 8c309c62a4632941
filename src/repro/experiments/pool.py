"""Worker processes: where pooled plan cells and served runs execute.

One pool of forked worker processes runs every piece of simulation
that leaves the calling process:

* :func:`~repro.experiments.run.run_plan`'s pooled rounds send chunks
  of cells to idle workers and wait on all of them at once;
* ``repro serve`` runs each run job's :class:`~repro.api.Session` in
  one worker, one job per worker at a time, so concurrent runs use
  separate cores instead of taking turns on the server's GIL with
  HTTP and SSE.  The job's driver thread keeps everything it owns —
  journal transitions, the per-epoch heartbeat and drain check,
  checkpoint writes, the result-cache put and hub publishing — and
  drives the session with commands that mirror the
  :class:`~repro.api.Session` calls it makes.

A caller holds a worker from :meth:`SweepPool.acquire` to
:meth:`SweepPool.release` and speaks to it over a pipe, one command
at a time:

============  =========================================================
``cells``     run one chunk of plan cells
              (:func:`~repro.experiments.run._pool_run_chunk`: the
              parent's environment applied, every cell isolated);
              returns one outcome dict per cell
``open``      build the session from the spec, or restore it from the
              stored ``"serve"`` snapshot (a cold start when that does
              not restore); returns whether it resumed
``advance``   serve to an epoch boundary; returns the ``epoch`` and
              ``mitigation`` event documents of the way, in order
``snapshot``  the session's checkpoint document
``result``    finish the run; returns its last events and the result
============  =========================================================

Workers are forked: a child that inherits the imported simulation
stack is ready in about 0.01 s, against about 0.5 s for the spawn and
forkserver start methods, so ``run_plan(workers > 1)`` and
``repro serve`` need a POSIX host.  ``repro serve`` forks its pool
before it opens a file or starts a thread.  A replacement, or a worker
added when a wider plan grows the pool, may fork from a running,
threaded process, so every child runs nothing but the worker loop: it
ignores SIGINT, restores the default SIGTERM and drops the signal
wake-up fd, points its copies of the parent's sockets at
``/dev/null`` and leaves through ``os._exit``, so no inherited atexit
hook runs.  It exits when its pipe reaches EOF or its parent is gone,
so a SIGKILLed parent leaves no worker behind.

A worker that dies mid-command raises :class:`WorkerDied` in its caller
(a :class:`~repro.errors.RetryableError`: a plan chunk is retried, a
served run requeued), and the pool forks a replacement.  An exception
raised inside a worker crosses the pipe as its type name, message and
:func:`~repro.errors.is_retryable` verdict, and is re-raised as a
:class:`~repro.errors.RemoteError`.
"""

from __future__ import annotations

import atexit
import os
import signal
import stat
import threading

from repro.errors import RemoteError, RetryableError, is_retryable
from repro.testing.faults import ROUND_VAR

#: How often a waiting caller checks that its worker lives, and an idle
#: worker that its parent does.
_POLL_S = 0.5

#: How long a stopped worker gets to exit before it is SIGKILLed.
_STOP_TIMEOUT_S = 2.0


class WorkerDied(RetryableError):
    """A worker process exited before it answered its command."""


# -- the worker side ---------------------------------------------------------


def _worker_main(conn, parent_pid: int) -> None:
    """A worker's whole life: answer commands until the pipe closes."""
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        _drop_inherited_sockets(keep=conn.fileno())
        _serve(conn, parent_pid)
    finally:
        os._exit(0)


def _drop_inherited_sockets(keep: int) -> None:
    """Point every inherited socket but ``keep`` at ``/dev/null``.

    Left open, a worker's copies of a server's client connections and
    listening socket would keep them alive after the server closes them
    (a client would never see its response end), and its copies of
    other workers' pipes would hide the parent's death from them.
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


def _serve(conn, parent_pid: int) -> None:
    """The command loop over one pipe (see the module docstring)."""
    session = None
    events: list[tuple[str, dict]] = []
    while True:
        while not conn.poll(_POLL_S):
            if os.getppid() != parent_pid:
                return
        try:
            command, args = conn.recv()
        except EOFError:
            return
        try:
            if command == "cells":
                from repro.experiments.run import _pool_run_chunk

                reply = _pool_run_chunk(*args)
            elif command == "open":
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
          fault_round: int):
    """``(session, resumed?)`` for one attempt at a job, its taps feeding
    ``events``.

    ``fault_round`` (the job's requeue count) becomes
    ``REPRO_FAULTS_ROUND``, so requeued attempts run clean, as
    ``run_plan``'s recovery rounds do.
    """
    from repro.api import Session

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


# -- the caller side ---------------------------------------------------------


class Worker:
    """A caller's handle on one worker process and the session in it.

    :meth:`send` starts a command and :meth:`receive` waits for its
    answer, so one thread can keep many workers busy; the other methods
    mirror the :class:`~repro.api.Session` calls a run driver makes,
    and ``epoch_ns``, ``position_ns`` and ``done`` track the worker's
    session after each of them.
    """

    def __init__(self, process, conn) -> None:
        self.process = process
        self.pid = process.pid
        self.conn = conn
        self.alive = True
        self.epoch_ns = 0.0
        self.position_ns = 0.0
        self.done = False

    def send(self, command: str, *args) -> None:
        """Start ``command`` in the worker; :meth:`receive` answers it."""
        try:
            self.conn.send((command, args))
        except OSError:
            pass  # a dead worker's broken pipe surfaces in receive()

    def receive(self):
        """The answer to the last command sent, once it lands."""
        try:
            while not self.conn.poll(_POLL_S):
                if not self.process.is_alive():
                    raise EOFError
            status, reply = self.conn.recv()
        except (EOFError, OSError):
            self.alive = False
            self.process.join(_STOP_TIMEOUT_S)
            raise WorkerDied(
                f"worker {self.pid} died (exit code "
                f"{self.process.exitcode})"
            ) from None
        if status == "error":
            raise RemoteError(*reply)
        return reply

    def _call(self, command: str, *args):
        self.send(command, *args)
        return self.receive()

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


class SweepPool:
    """Persistent forked :class:`Worker` processes, one holder each.

    ``run_plan`` and ``repro serve`` share one process-wide pool
    (:meth:`get`): it is forked on first use, grows in place when a
    wider plan asks, is reused by every later plan in the process, and
    :func:`atexit` closes it.  Forked workers share one OS page-cache
    copy of every trace-store memmap.

    A caller holds a worker under an owner key — a served run's ``(job
    id, generation)``, a plan chunk's own token — from :meth:`acquire`
    to :meth:`release`; a worker found dead on acquire or release, or
    reclaimed from its holder, is replaced by a fresh fork.
    """

    #: the process-wide pool behind :meth:`get`
    _shared: SweepPool | None = None
    _shared_lock = threading.Lock()

    def __init__(self, size: int) -> None:
        self.size = 0
        #: workers forked to replace dead or reclaimed ones
        self.replaced = 0
        self._cond = threading.Condition()
        self._idle: list[Worker] = []
        self._held: dict[object, Worker] = {}
        self.closed = False
        self.grow(max(1, size))

    @classmethod
    def get(cls, width: int) -> SweepPool:
        """The process-wide pool, at least ``width`` workers wide."""
        with cls._shared_lock:
            pool = cls._shared
            if pool is None or pool.closed:
                pool = cls._shared = cls(width)
            else:
                pool.grow(width)
            return pool

    @classmethod
    def width(cls) -> int:
        """The process-wide pool's size (0 = none forked)."""
        pool = cls._shared
        return 0 if pool is None or pool.closed else pool.size

    @classmethod
    def shutdown(cls) -> None:
        """Close the process-wide pool; the next :meth:`get` forks anew."""
        with cls._shared_lock:
            pool, cls._shared = cls._shared, None
        if pool is not None:
            pool.close()

    def _fork(self) -> Worker:
        import multiprocessing

        context = multiprocessing.get_context("fork")
        conn, child_conn = context.Pipe()
        process = context.Process(
            target=_worker_main, args=(child_conn, os.getpid()),
            name="repro-worker", daemon=True,
        )
        process.start()
        child_conn.close()
        return Worker(process, conn)

    def _replace(self, worker: Worker) -> Worker:
        worker.stop()
        self.replaced += 1
        return self._fork()

    def grow(self, width: int) -> None:
        """Fork workers until the pool is ``width`` wide."""
        with self._cond:
            while self.size < width and not self.closed:
                self._idle.append(self._fork())
                self.size += 1
            self._cond.notify_all()

    def acquire(self, owner, timeout: float) -> Worker | None:
        """An idle worker, held for ``owner``; None after ``timeout``.

        A worker that died while idle is replaced here, so its death
        costs its next holder nothing.
        """
        with self._cond:
            if not self._idle and not self.closed:
                self._cond.wait(timeout)
            if self.closed or not self._idle:
                return None
            worker = self._idle.pop()
            if not worker.process.is_alive():
                worker = self._replace(worker)
            self._held[owner] = worker
            return worker

    def release(self, owner) -> None:
        """Take back ``owner``'s worker, replacing it if it died."""
        with self._cond:
            worker = self._held.pop(owner, None)
            if worker is None or self.closed:
                return
            if not (worker.alive and worker.process.is_alive()):
                worker = self._replace(worker)
            self._idle.append(worker)
            self._cond.notify()

    def reclaim(self, owner) -> bool:
        """Terminate the worker ``owner`` holds and fork its replacement.

        For a stalled served run or a hung plan chunk: the stuck work
        dies with its worker, and the stale holder's next command raises
        :class:`WorkerDied`.
        """
        with self._cond:
            worker = self._held.pop(owner, None)
            if worker is None or self.closed:
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
            if self.closed:
                return
            self.closed = True
            workers = self._idle + list(self._held.values())
            self._idle.clear()
            self._held.clear()
            self._cond.notify_all()
        for worker in workers:
            worker.stop()


atexit.register(SweepPool.shutdown)


__all__ = ["SweepPool", "Worker", "WorkerDied"]
