"""Worker processes: where pooled plan cells and served runs execute.

One pool of forked worker processes runs every piece of simulation
that leaves the calling process:

* :func:`~repro.experiments.run.run_plan`'s pooled rounds send chunks
  of cells to idle workers and wait on all of them at once;
* ``repro serve`` runs each run job's :class:`~repro.api.Session` in
  one worker, one job per worker at a time, so concurrent runs use
  separate cores instead of taking turns on the server's GIL with
  HTTP and SSE.  The worker drives the session to its end without
  waiting for the server: it writes the run's ``"serve"`` checkpoints
  and its result-cache entry itself and sends one message per epoch.
  The job's driver thread keeps journal transitions, the drain
  decision, the bound on a silent worker, hub publishing and the
  deletion of the resume point.

A caller holds a worker from :meth:`SweepPool.acquire` to
:meth:`SweepPool.release` and speaks to it over a pipe, one command
at a time:

=========  ===========================================================
``cells``  run one chunk of plan cells
           (:func:`~repro.experiments.run._pool_run_chunk`: under the
           plan's :class:`~repro.report.config.RunContext`, every cell
           isolated); answers one outcome dict per cell
``run``    drive one served run under the server's
           :class:`~repro.report.config.RunContext`: build the session
           from the spec, or
           restore it from the stored ``"serve"`` snapshot (a cold
           start when that does not restore), and answer whether it
           resumed; skip the epochs already served, advance epoch by
           epoch, send ``("epoch", events, None)`` after each but the
           last, and checkpoint every ``checkpoint_epochs`` epochs;
           finish with ``result()`` and the result-cache put, and
           answer ``("done", events, result)``, the final synthetic
           epoch event included
``stop``   sent while a ``run`` is in flight: the worker checkpoints at
           the next epoch boundary and answers
           ``("stopped", events, None)``; the command loop ignores a
           ``stop`` that arrives after its run ended
=========  ===========================================================

Each message of a ``run`` carries the ``epoch`` and ``mitigation``
event documents of its stretch in order, and each becomes one hub
batch in the server.

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
hook runs.  It exits when its pipe reaches EOF or its parent is gone
(a worker in a run notices at its next epoch boundary), so a SIGKILLed
parent leaves no worker behind.

A worker that dies mid-command raises :class:`WorkerDied` in its caller
(a :class:`~repro.errors.RetryableError`: a plan chunk is retried, a
served run requeued), and the pool forks a replacement.  A worker
that sends nothing within its caller's budget raises
:class:`~repro.errors.CellTimeout` (retryable too), and its caller
reclaims it.  An exception raised inside a worker crosses the pipe as
its type name, message and :func:`~repro.errors.is_retryable` verdict,
and is re-raised as a :class:`~repro.errors.RemoteError`.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import signal
import stat
import threading
import time

from repro.errors import CellTimeout, RemoteError, RetryableError, is_retryable
from repro.testing.faults import fault_scope

#: How often an idle worker checks that its parent lives.
_POLL_S = 0.5

#: How often a caller waiting for its worker's next message checks that
#: the worker lives and polls its ``stop`` callback (the server's drain
#: flag), so a drain stops a served run within the epoch in flight.
_WAIT_POLL_S = 0.05

#: How long a stopped worker gets to exit before it is SIGKILLed.
_STOP_TIMEOUT_S = 2.0

#: The result-cache tag a served run's checkpoints are stored under.
SNAPSHOT_TAG = "serve"


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
    while True:
        while not conn.poll(_POLL_S):
            if os.getppid() != parent_pid:
                return
        try:
            command, args = conn.recv()
        except EOFError:
            return
        if command == "stop":
            continue  # it crossed its run's last message: nothing to stop
        try:
            if command == "cells":
                from repro.experiments.run import _pool_run_chunk

                reply = _pool_run_chunk(*args)
            else:
                reply = _run(conn, *args)
            answer = ("ok", reply)
        except EOFError:
            return  # the parent closed the pipe mid-run
        except Exception as exc:  # noqa: BLE001 - crosses the pipe
            answer = ("error", (type(exc).__name__, str(exc),
                                is_retryable(exc)))
        conn.send(answer)


def _run(conn, job_id: str, spec, stored: dict | None, requeues: int,
         cache_root: str, checkpoint_epochs: int, ctx):
    """Drive one served run to its end, or to a ``stop``; the last message.

    The run's fault round is the job's requeue count, so requeued
    attempts run clean, as ``run_plan``'s recovery rounds do.  A
    checkpoint or result-cache write that fails only costs a longer
    recompute or a later cache miss, so neither fails the run.
    """
    from repro.experiments.cache import ResultCache

    cache = ResultCache(cache_root)
    events: list[tuple[str, dict]] = []
    with fault_scope(ctx.faults, requeues):
        session, resumed = _open(events, job_id, spec, stored, ctx)
        conn.send(("ok", resumed))

        def checkpoint() -> None:
            with contextlib.suppress(Exception):
                cache.put_snapshot(spec, SNAPSHOT_TAG, session.snapshot())

        n, epoch_ns = spec.n_intervals, session.epoch_ns
        for k in range(1, n + 1):
            # Epochs an ancestor already served are no-ops: advance
            # serves arrivals strictly before the boundary, and the
            # restored position is already past it.
            if session.position_ns >= k * epoch_ns:
                continue
            if conn.poll():  # mid-run, the parent sends nothing but stop
                conn.recv()
                checkpoint()
                return ("stopped", _take(events), None)
            session.advance(k * epoch_ns)
            if k < n:
                conn.send(("ok", ("epoch", _take(events), None)))
            if checkpoint_epochs and k % checkpoint_epochs == 0 \
                    and not session.done:
                checkpoint()
        result = session.result()
        with contextlib.suppress(Exception):
            cache.put(spec, result)
    return ("done", _take(events), result)


def _open(events: list, job_id: str, spec, stored: dict | None, ctx):
    """``(session, resumed?)`` for one attempt at a job, its taps feeding
    ``events``."""
    from repro.api import Session

    session = None
    if stored is not None:
        try:
            session = Session.restore(stored, ctx)
        except Exception:  # noqa: BLE001 - corrupt snapshot: cold start
            session = None
    resumed = session is not None
    if session is None:
        session = Session(spec, ctx)

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
    """A caller's handle on one worker process.

    :meth:`send` starts a command and :meth:`receive` takes the worker's
    messages about it, so one thread can keep many workers busy.
    """

    def __init__(self, process, conn) -> None:
        self.process = process
        self.pid = process.pid
        self.conn = conn
        self.alive = True

    def send(self, command: str, *args) -> None:
        """Start ``command`` in the worker; :meth:`receive` answers it."""
        try:
            self.conn.send((command, args))
        except OSError:
            pass  # a dead worker's broken pipe surfaces in receive()

    def receive(self, stop=None, timeout: float | None = None):
        """The worker's next message about the command in flight.

        ``stop`` (a zero-argument callable) is polled while waiting;
        once it returns true the worker is sent ``stop``, and a served
        run ends at its next epoch boundary.  A ``stop`` that crosses
        the run's last message is ignored by the worker.  No message
        within ``timeout`` seconds raises :class:`CellTimeout`; the
        worker may still be busy, so the caller reclaims it.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            while True:
                if stop is not None and stop():
                    self.send("stop")
                    stop = None
                if self.conn.poll(_WAIT_POLL_S):
                    break
                if not self.process.is_alive():
                    raise EOFError
                if deadline is not None and time.monotonic() >= deadline:
                    raise CellTimeout(
                        f"worker {self.pid} sent nothing for {timeout:g}s")
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

    A caller holds a worker under an owner key — a served run's job id,
    a plan chunk's own token — from :meth:`acquire` to :meth:`release`;
    a worker found dead on acquire or release, or reclaimed from its
    holder, is replaced by a fresh fork.
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

        For a served run whose worker went silent or a plan chunk past
        its budget: the stuck work dies with its worker.
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


__all__ = ["SNAPSHOT_TAG", "SweepPool", "Worker", "WorkerDied"]
