"""Cross-process advisory file locks for store publishes.

Every on-disk store in the stack (the sweep-cell :class:`ResultCache`,
its session snapshots, the trace store's sidecars) publishes entries
through :func:`repro.experiments.cache.publish` (temp file → write →
``os.replace``), which makes each *individual* publish atomic.  The
service layer adds a second hazard: many writer *processes* hammering
one store directory concurrently — ``repro serve`` pool workers,
parallel sweeps, and a user's ad-hoc CLI run can all target the same
entry at once.  :func:`advisory_lock` serializes the publish critical
section per store root so two writers can never interleave their
publishes (or a future multi-file publish) and readers never observe
a half-published entry set.

The lock is ``fcntl.flock`` on a ``.lock`` file beside the resource: a
kernel advisory lock, released automatically if the holder dies, so a
crashed writer can never wedge the store.  POSIX is required anyway —
pooled plans and ``repro serve`` fork their workers.

Locks are *advisory*: they protect cooperating ``repro`` writers from
each other, nothing else — exactly the contract the stores need, with
zero behavior change for single-process use beyond one cheap syscall.
"""

from __future__ import annotations

import contextlib
import errno
import fcntl
import os
import threading
import time
from pathlib import Path

#: Suffix of the lock file placed next to the protected resource.
LOCK_SUFFIX = ".lock"

#: Spin interval while waiting on a held lock.
_SPIN_S = 0.005

#: Process-wide lock accounting, surfaced by ``/v1/health`` so lock
#: pressure on a shared store is observable instead of silently eaten
#: as latency.  ``contended`` counts acquires that had to wait at least
#: one spin.
_STATS_LOCK = threading.Lock()
_STATS = {"acquires": 0, "contended": 0, "timeouts": 0}


def _count(key: str) -> None:
    with _STATS_LOCK:
        _STATS[key] += 1


def lock_stats() -> dict:
    """A snapshot of the process-wide lock counters."""
    with _STATS_LOCK:
        return dict(_STATS)


def reset_lock_stats() -> None:
    """Zero the lock counters (test isolation)."""
    with _STATS_LOCK:
        for key in _STATS:
            _STATS[key] = 0


class LockTimeout(OSError):
    """An advisory lock could not be acquired within its timeout."""


def _acquire(path: Path, timeout: float) -> int:
    """flock an open fd (auto-released on process death)."""
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    deadline = time.monotonic() + timeout
    waited = False
    try:
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                _count("acquires")
                return fd
            except OSError as exc:
                if exc.errno not in (errno.EAGAIN, errno.EACCES):
                    raise
                if not waited:
                    waited = True
                    _count("contended")
                if time.monotonic() >= deadline:
                    _count("timeouts")
                    raise LockTimeout(
                        f"timed out after {timeout:.1f}s waiting for {path}"
                    ) from None
                time.sleep(_SPIN_S)
    except BaseException:
        os.close(fd)
        raise


@contextlib.contextmanager
def advisory_lock(target: "Path | str", timeout: float = 30.0):
    """Hold the cross-process advisory lock guarding ``target``.

    ``target`` names the resource (a file or directory); the lock
    itself lives at ``<target>.lock`` beside it.  Reentrant use from
    one process is *not* supported — the critical sections in this
    codebase are leaf-level and short.

    Raises :class:`LockTimeout` when the lock stays contended past
    ``timeout`` seconds — callers treat that like any other publish
    failure (the stores degrade to recompute, never corrupt).
    """
    target = Path(target)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd = _acquire(target.parent / (target.name + LOCK_SUFFIX), timeout)
    try:
        yield
    finally:
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)


__all__ = [
    "LOCK_SUFFIX",
    "LockTimeout",
    "advisory_lock",
    "lock_stats",
    "reset_lock_stats",
]
