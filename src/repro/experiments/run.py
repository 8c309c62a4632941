"""Executing specs and plans, with caching, fan-out and fault tolerance.

Every spec runs through one path: :func:`run_spec` opens a
:class:`repro.api.Session` and drives it to completion.
``REPRO_SESSION_MODE`` only decides whether that run is cut once:

* ``direct`` (default) — run straight through;
* ``checkpoint`` — run half the simulated horizon, snapshot, round-trip
  the snapshot through JSON, restore into a *fresh* session, and finish
  (proves checkpoint/resume bit-identity; ``repro verify --session
  checkpoint`` gates the whole figure suite through this path).

Both modes are bit-identical by construction; the knob exists so CI can
prove it stays that way.  The sweep-cell result cache is bypassed in
``checkpoint`` mode — a cache hit would silently skip the very code path
being exercised.

Pool fan-out goes through the process-wide :class:`SweepPool`
(:mod:`repro.experiments.pool`: forked on first use, grown in place,
reused by every plan in the process, shared with ``repro serve``'s
run jobs) with chunked cell scheduling; each chunk carries the
parent's current session/trace/cache/fault environment so a long-lived
pool never acts on stale worker-side settings.

Fault tolerance
---------------
:func:`run_plan` is built to survive operational failure without
corrupting results:

* **Per-cell isolation** — every cell runs under its own try/except,
  in workers and in the serial path alike; one poisoned cell produces a
  structured :class:`~repro.errors.CellFailure` instead of taking its
  chunk (or the plan) down with it.
* **Bounded retries** — cells whose failure is classified retryable
  (:func:`repro.errors.is_retryable`) are re-run with exponential
  backoff plus deterministic jitter, up to ``max_retries`` extra
  attempts.  Deterministic failures are never retried.
* **Worker recovery** — a worker that dies (an OOM kill, a crash)
  fails only the chunk it was running, retryably, and the pool forks
  its replacement; every other chunk's results stand.  A chunk that
  exceeds its ``cell_timeout`` budget fails the same way, its worker
  terminated and replaced.
* **Crash-safe resume** — completed cells flush to the
  :class:`ResultCache` *as they land*, so a killed sweep re-run against
  the same cache recomputes only the missing/failed cells.  SIGINT and
  SIGTERM drain already-completed futures into the cache before the
  pool is torn down.
* **keep_going** — ``run_plan(..., keep_going=True)`` returns a
  :class:`SweepReport` (per-cell status, attempts, timings, failures)
  instead of raising on the first permanently failed cell.

The deterministic fault-injection harness
(:mod:`repro.testing.faults`, armed via ``REPRO_FAULTS``) drives each
of these paths on demand; the fault-injection test suite asserts sweeps
converge to bit-identical results with the harness armed.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import (
    CellExecutionError,
    CellFailure,
    CellStatus,
    CellTimeout,
    RemoteError,
)
from repro.experiments.cache import ResultCache
from repro.experiments.plan import Plan
from repro.experiments.pool import SweepPool, WorkerDied
from repro.experiments.spec import ExperimentSpec
from repro.report.config import SESSION_MODES, env_choice
from repro.testing.faults import ENV_VAR as FAULTS_ENV_VAR
from repro.testing.faults import ROUND_VAR as FAULTS_ROUND_VAR
from repro.testing.faults import fault_point


def session_mode() -> str:
    """The validated ``REPRO_SESSION_MODE`` execution path."""
    return env_choice(os.environ, "REPRO_SESSION_MODE",
                      default="direct", choices=SESSION_MODES)


def run_spec(spec: ExperimentSpec):
    """Run one experiment; returns a
    :class:`~repro.sim.metrics.SimulationResult`."""
    from repro.api import Session

    mode = session_mode()
    session = Session(spec)
    if mode == "checkpoint":
        # Mid-run cut: half the simulated horizon — mid-interval for
        # single-interval runs, the interior boundary region otherwise.
        session.advance(session.total_ns / 2.0)
        doc = json.loads(json.dumps(session.snapshot()))
        session = Session.restore(doc)
    return session.result()


def _pool_cell(spec: ExperimentSpec):
    """Module-level for pickling into worker processes."""
    return run_spec(spec)


#: Environment knobs a worker must re-read per chunk: a *persistent*
#: pool outlives environment changes in the parent (``repro verify``
#: scopes REPRO_SESSION_MODE per run; benches toggle the trace store;
#: the scheduler advances the fault-injection round), so every chunk
#: carries the parent's current values instead of trusting whatever the
#: worker inherited at spawn time.
_POOL_ENV_KEYS = (
    "REPRO_SESSION_MODE",
    "REPRO_TRACE_STORE",
    "REPRO_TRACE_STORE_DIR",
    "REPRO_BENCH_CACHE_DIR",
    FAULTS_ENV_VAR,
    FAULTS_ROUND_VAR,
)

#: Target chunks per worker: large enough to amortize per-task spec
#: pickling and IPC, small enough to keep the pool load-balanced.
_CHUNKS_PER_WORKER = 4

#: Retry backoff: ``base * 2**(round-1)`` seconds, capped, with a
#: deterministic jitter factor in [0.5, 1.5).
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 2.0

#: Grace added to ``cell_timeout * chunk_size`` before a chunk is
#: declared hung (covers result IPC).
_TIMEOUT_GRACE_S = 5.0


def _pool_env() -> dict[str, str | None]:
    """The parent-side values of :data:`_POOL_ENV_KEYS` (None = unset)."""
    return {key: os.environ.get(key) for key in _POOL_ENV_KEYS}


def _pool_run_chunk(specs: list, env: dict, attempt: int = 1) -> list[dict]:
    """Worker-side: apply the parent's env, run one chunk cell by cell.

    Each cell is isolated: the return value is one outcome dict per
    spec — ``{"ok": True, "result": ...}`` or ``{"ok": False,
    "failure": <CellFailure dict>}`` — so a poisoned cell cannot void
    its chunk-mates' completed work.  Failures travel as plain dicts
    (tracebacks captured worker-side) because exception objects pickle
    unreliably.
    """
    for key, value in env.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    outcomes: list[dict] = []
    for spec in specs:
        try:
            fault_point("pool.worker")
            outcomes.append({"ok": True, "result": run_spec(spec)})
        except Exception as exc:
            outcomes.append({
                "ok": False,
                "failure": CellFailure.from_exception(
                    spec, attempt, exc
                ).to_dict(),
            })
    return outcomes


@dataclass
class SweepReport:
    """What one fault-tolerant sweep actually did, cell by cell.

    ``results`` holds the per-cell
    :class:`~repro.sim.metrics.SimulationResult` objects in plan order
    (``None`` for permanently failed cells); ``cells`` carries the
    matching :class:`~repro.errors.CellStatus` records (status,
    attempts, wall time, failure history).
    """

    cells: list[CellStatus] = field(default_factory=list)
    results: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every cell completed (simulated or cached)."""
        return not self.failed and not self.pending

    @property
    def failed(self) -> list[CellStatus]:
        """Cells whose retry budget ran out."""
        return [c for c in self.cells if c.status == "failed"]

    @property
    def pending(self) -> list[CellStatus]:
        """Cells a cooperative stop left untouched (resumable work)."""
        return [c for c in self.cells if c.status == "pending"]

    def counts(self) -> dict[str, int]:
        """Cell counts by final status."""
        out: dict[str, int] = {}
        for cell in self.cells:
            out[cell.status] = out.get(cell.status, 0) + 1
        return out

    def total_attempts(self) -> int:
        """Execution attempts summed over all cells (retries included)."""
        return sum(c.attempts for c in self.cells)

    def to_dict(self) -> dict:
        """JSON-able execution record (results travel separately)."""
        return {
            "kind": "repro-sweep-report",
            "report_version": 1,
            "ok": self.ok,
            "counts": self.counts(),
            "total_attempts": self.total_attempts(),
            "cells": [c.to_dict() for c in self.cells],
        }

    def failure_rows(self) -> list[dict]:
        """Failed-cell summary rows for CLI tables."""
        rows = []
        for cell in self.failed:
            last = cell.failures[-1] if cell.failures else None
            rows.append({
                "cell": cell.index,
                "label": cell.label,
                "attempts": cell.attempts,
                "error": last.error_type if last else "?",
                "message": (last.message[:60] if last else ""),
            })
        return rows


def _backoff_s(round_no: int, salt: int = 0) -> float:
    """Exponential backoff with deterministic jitter for one round."""
    base = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2 ** (round_no - 1)))
    jitter = random.Random((round_no << 16) ^ salt).random()
    return base * (0.5 + jitter)


def _backoff_wait(round_no: int, salt: int, stop) -> bool:
    """Sleep one retry backoff; True when ``stop`` cut it short."""
    deadline = time.monotonic() + _backoff_s(round_no, salt=salt)
    while True:
        if stop is not None and stop():
            return True
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        time.sleep(remaining if stop is None
                   else min(remaining, _STOP_POLL_S))


def _flush_cell(cache: ResultCache | None, spec, result) -> bool:
    """Persist one completed cell immediately (crash-safe resume).

    A failed write is retried once (covers transient store trouble and
    the injected ``cache.put`` fault) and then dropped: the in-memory
    result is intact either way, the cache is an optimization.
    """
    if cache is None:
        return True
    for attempt in range(2):
        try:
            cache.put(spec, result)
            return True
        except Exception:
            if attempt:
                return False
            time.sleep(0.01)
    return False


@contextlib.contextmanager
def _sigterm_as_interrupt():
    """Deliver SIGTERM as KeyboardInterrupt for the scheduler's scope.

    Both signals then share one drain path: completed cells are already
    in the cache, the chunks still running are reclaimed, and the
    interrupt propagates.  Outside the main thread (or without signal
    support) this is a no-op.
    """
    import signal
    import threading

    installed = False
    previous = None
    owner_pid = os.getpid()
    if threading.current_thread() is threading.main_thread():
        def _handler(signum, frame):
            if os.getpid() != owner_pid:
                # A pool worker forked inside this scope runs this
                # handler until its loop restores SIG_DFL; a reclaim's
                # SIGTERM in that window must kill it, not raise a
                # KeyboardInterrupt there.  Die like SIG_DFL instead.
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                os.kill(os.getpid(), signal.SIGTERM)
                return
            raise KeyboardInterrupt("SIGTERM")

        try:
            previous = signal.getsignal(signal.SIGTERM)
            signal.signal(signal.SIGTERM, _handler)
            installed = True
        except (ValueError, OSError):
            installed = False
    try:
        yield
    finally:
        if installed:
            signal.signal(signal.SIGTERM, previous)


class _StopRequested(Exception):
    """Internal: a ``run_plan(stop=...)`` callback asked for a drain."""


#: How often a pooled wait re-checks its ``stop`` callback.
_STOP_POLL_S = 0.25


def _run_round_serial(specs, pending, attempt, on_ok, on_fail,
                      stop=None) -> None:
    """One retry round, in-process: per-cell isolation, no pool.

    A truthy ``stop`` between cells ends the round early; untouched
    cells keep their ``pending`` status and resume on the next run.
    """
    for i in pending:
        if stop is not None and stop():
            return
        t0 = time.perf_counter()
        try:
            result = _pool_cell(specs[i])
        except Exception as exc:
            on_fail(
                i,
                CellFailure.from_exception(specs[i], attempt, exc),
                time.perf_counter() - t0,
            )
        else:
            on_ok(i, result, time.perf_counter() - t0)


def _run_round_pooled(
    specs, pending, workers, cell_timeout, attempt, on_ok, on_fail,
    stop=None,
) -> None:
    """One retry round on the worker pool, chunked.

    The calling thread sends chunks to idle workers and delivers each
    chunk's outcomes as it lands.  Every pending index receives exactly
    one ``on_ok``/``on_fail`` callback unless a stop or an interrupt
    ends the round first.  A worker that dies fails only its own chunk
    (:class:`WorkerDied`, retryable) and is replaced; a chunk past its
    time budget, counted from dispatch, fails with :class:`CellTimeout`
    and its worker is terminated and replaced.  A closed pool fails
    the chunks it can no longer run.  A truthy ``stop`` (polled while
    waiting) reclaims the running chunks, as an interrupt does, but
    raises :class:`_StopRequested` for the scheduler to absorb instead
    of propagating to the caller.
    """
    from multiprocessing.connection import wait

    width = min(workers, len(pending))
    pool = SweepPool.get(width)
    size = max(1, math.ceil(len(pending) / (width * _CHUNKS_PER_WORKER)))
    chunks = [pending[j:j + size] for j in range(0, len(pending), size)]
    chunks.reverse()  # so pop() dispatches them in plan order
    env = _pool_env()
    #: worker → (owner token, chunk, dispatch time, time budget)
    running: dict = {}

    def fail(chunk, exc, elapsed) -> None:
        for i in chunk:
            on_fail(i, CellFailure.from_exception(specs[i], attempt, exc),
                    elapsed / len(chunk))

    def land(worker) -> None:
        owner, chunk, started, _budget = running.pop(worker)
        try:
            outcomes = worker.receive()
        except (WorkerDied, RemoteError) as exc:
            fail(chunk, exc, time.monotonic() - started)
            return
        finally:
            pool.release(owner)
        per = (time.monotonic() - started) / len(chunk)
        for i, outcome in zip(chunk, outcomes):
            if outcome["ok"]:
                on_ok(i, outcome["result"], per)
            else:
                on_fail(i, CellFailure.from_dict(outcome["failure"]), per)

    try:
        while chunks or running:
            if stop is not None and stop():
                raise _StopRequested
            while chunks:
                owner = object()
                worker = pool.acquire(
                    owner, timeout=0 if running else _STOP_POLL_S)
                if worker is None:
                    break
                chunk = chunks.pop()
                budget = math.inf if cell_timeout is None \
                    else cell_timeout * len(chunk) + _TIMEOUT_GRACE_S
                running[worker] = (owner, chunk, time.monotonic(), budget)
                worker.send("cells", [specs[i] for i in chunk], env, attempt)
            if not running:
                if pool.closed:
                    break
                continue
            now = time.monotonic()
            timeout = min([_STOP_POLL_S] + [
                started + budget - now
                for _owner, _chunk, started, budget in running.values()
            ])
            ready = wait([w.conn for w in running]
                         + [w.process.sentinel for w in running],
                         max(0.0, timeout))
            for worker in [w for w in running
                           if w.conn in ready or w.process.sentinel in ready]:
                land(worker)
            now = time.monotonic()
            for worker, (owner, chunk, started, budget) in list(
                    running.items()):
                if now - started >= budget:
                    del running[worker]
                    pool.reclaim(owner)
                    fail(chunk, CellTimeout(
                        f"chunk exceeded its {budget:.1f}s budget "
                        f"({cell_timeout}s/cell)"
                    ), now - started)
    except (KeyboardInterrupt, SystemExit, _StopRequested):
        # Cells that landed are already flushed; terminate the chunks
        # still running (mid-write kills are safe — every store
        # publish is an atomic rename) and let the interrupt propagate.
        for owner, _chunk, _started, _budget in running.values():
            pool.reclaim(owner)
        raise
    for chunk in chunks:
        fail(chunk, WorkerDied("the worker pool was closed"), 0.0)


def run_plan(
    plan: Plan | Iterable[ExperimentSpec],
    *,
    workers: int = 1,
    cache: "ResultCache | str | None" = None,
    keep_going: bool = False,
    max_retries: int = 2,
    cell_timeout: float | None = None,
    stop=None,
):
    """Run every cell of a plan, fault-tolerantly; results in plan order.

    ``cache`` (a :class:`ResultCache`, a directory path, or None) is
    consulted per cell by spec content hash: hits skip the simulation
    entirely, misses run — serially, or on the forked workers of the
    :class:`SweepPool` when ``workers > 1`` (POSIX only) — and flush
    back *as each cell completes*, so a killed sweep resumes from its
    completed cells.  Per-cell seeding makes results identical at any
    worker count, any hit/miss split, and any retry history.

    ``max_retries`` bounds the *extra* attempts a retryably failing
    cell gets (exponential backoff + deterministic jitter between
    rounds); deterministic failures are never retried.
    ``cell_timeout`` (seconds per cell) bounds each pooled chunk's wall
    time from dispatch; a hung chunk fails retryably and its worker is
    terminated and replaced.

    Returns the list of per-cell results.  On a permanent cell failure
    this raises :class:`~repro.errors.CellExecutionError` (carrying the
    failure records and the partial :class:`SweepReport`) — unless
    ``keep_going=True``, in which case the full :class:`SweepReport`
    is returned instead, with ``None`` results for failed cells.

    ``stop`` (a zero-argument callable, polled between cells and while
    waiting on pooled chunks) requests a cooperative drain: completed
    cells flush to the cache as usual, untouched cells stay ``pending``
    in the report, and the call returns promptly instead of finishing
    the plan.  Because a stopped report is inherently partial, ``stop``
    requires ``keep_going=True`` — the ``repro serve`` graceful-drain
    path is the intended caller, and it resumes the job from the cache
    after restart.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if stop is not None and not keep_going:
        raise ValueError("stop= requires keep_going=True: a stopped "
                         "plan yields a partial report, not results")
    specs = tuple(plan.specs if isinstance(plan, Plan) else plan)
    cache = ResultCache.coerce(cache)
    if cache is not None and session_mode() == "checkpoint":
        # A cache hit would skip the checkpoint path entirely,
        # making the equivalence gate vacuous; always simulate.
        cache = None
    cells = [
        CellStatus(
            index=i,
            spec_hash=spec.content_hash(),
            label=f"{spec.workload_label}/{spec.scheme.display_label}",
            status="pending",
        )
        for i, spec in enumerate(specs)
    ]
    results: list = [None] * len(specs)
    pending: list[int] = []
    for i, spec in enumerate(specs):
        if cache is not None:
            hit = cache.get(spec)
            if hit is not None:
                results[i] = hit
                cells[i].status = "cached"
                continue
        pending.append(i)

    def on_ok(i: int, result, elapsed: float) -> None:
        results[i] = result
        cells[i].status = "ok"
        cells[i].elapsed_s += elapsed
        _flush_cell(cache, specs[i], result)

    faults_on = bool(os.environ.get(FAULTS_ENV_VAR))
    saved_round = os.environ.get(FAULTS_ROUND_VAR)
    try:
        with _sigterm_as_interrupt():
            round_no = 0
            while pending and round_no <= max_retries:
                if stop is not None and stop():
                    break
                if round_no and _backoff_wait(round_no, len(pending), stop):
                    break
                if faults_on:
                    # Injected faults hold fire past round zero so every
                    # armed failure is transient by construction; the
                    # chunk env threads the round to pool workers.
                    os.environ[FAULTS_ROUND_VAR] = str(round_no)
                attempt = round_no + 1
                retry_budget_left = round_no < max_retries
                next_pending: list[int] = []

                def on_fail(i: int, failure: CellFailure,
                            elapsed: float) -> None:
                    cells[i].failures.append(failure)
                    cells[i].elapsed_s += elapsed
                    if failure.retryable and retry_budget_left:
                        next_pending.append(i)
                    else:
                        cells[i].status = "failed"

                def tick(i: int) -> None:
                    cells[i].attempts = attempt

                for i in pending:
                    tick(i)
                try:
                    if workers > 1 and len(pending) > 1:
                        _run_round_pooled(
                            specs, pending, workers, cell_timeout,
                            attempt, on_ok, on_fail, stop=stop,
                        )
                    else:
                        _run_round_serial(
                            specs, pending, attempt, on_ok, on_fail,
                            stop=stop,
                        )
                except _StopRequested:
                    pending = next_pending
                    break
                pending = next_pending
                round_no += 1
    finally:
        if saved_round is None:
            os.environ.pop(FAULTS_ROUND_VAR, None)
        else:
            os.environ[FAULTS_ROUND_VAR] = saved_round

    report = SweepReport(cells=cells, results=results)
    if keep_going:
        return report
    failed = report.failed
    if failed:
        raise CellExecutionError(
            [c.failures[-1] for c in failed if c.failures], report
        )
    return results
