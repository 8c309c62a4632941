"""Durable job journal: crash-safe record of every accepted submission.

The job table (:mod:`repro.server.jobs`) is in-memory; a killed
``repro serve`` process historically forgot every queued and running
job.  The journal fixes that with the standard write-ahead discipline:
every accepted submission and every terminal transition is appended —
as one CRC-framed, fsync'd record — to a segment file under
``<cache-dir>/journal/`` (:data:`JOURNAL_DIR`) *before* the transition
is acted on, and on startup the server replays the journal to rebuild
the table and re-enqueue unfinished work (see ``ReproServer._recover``).
A job that never reached a terminal record is unfinished, whether it
was queued, running or requeued, so those transitions are not written.

Framing
-------
A segment (``seg-<n>.wal``) is a flat sequence of frames::

    [length: u32 LE][crc32(payload): u32 LE][payload: UTF-8 JSON]

The first frame is a segment header (``kind: repro-journal-segment``)
carrying the journal version; every later frame is one record.  A
record is a JSON object with a ``rec`` discriminator:

* ``{"rec": "submit", "job", "kind", "hash", "cells", "doc", "unix"}``
  — one accepted submission, ``doc`` being the exact wire document
  (spec or plan) needed to re-execute it;
* ``{"rec": "state", "job", "status", "unix", ["error"], ["cached"]}``
  — one terminal transition (``done``/``failed``).  Journals written
  before those were the only ones also hold ``running`` and ``queued``
  (requeue) records; replay still folds them.

Torn tails
----------
Appends are atomic *enough* — a crash mid-append leaves a truncated or
garbled final frame, never a misframed earlier one.  The reader treats
any undecodable frame (short header, impossible length, CRC mismatch,
non-JSON payload) as the end of that segment: recovery degrades to the
last good frame, losing at most the record being written at the moment
of death.  Since records are written *before* their effect (and the
effects — enqueue, execute — are idempotent under replay), a lost tail
record means a little recomputation, never a wrong result.

Replay idempotency
------------------
:func:`replay_records` is a pure fold with absorbing terminal states:
duplicate ``submit`` records are ignored, transitions out of ``done``/
``failed`` are ignored, and state records for unknown jobs (their
submit segment was unreadable) are dropped.  Replaying a journal
twice — or replaying the concatenation of a journal with itself —
yields an identical job table, which is what makes startup recovery
safe to re-run after *its own* crash.

Compaction
----------
Appends go to one segment; nothing rotates it.  On startup the server
folds the surviving jobs into one fresh segment (written atomically and
fsync'd, see :func:`~repro.experiments.cache.publish`) and deletes the
old ones, so restart chains never accumulate unbounded history.  A
crash between that rename and the deletes leaves two segments, which
is why replay reads every segment, oldest first: the fold is
idempotent, so the history the old segment repeats changes nothing.
``repro cache stats`` reports the journal (:meth:`Journal.stats`) and
``repro cache clear`` deletes it (:meth:`Journal.clear`).

The ``server.journal.write`` fault site fires in :meth:`Journal.append`
(``raise`` = failed append, counted and survived; ``corrupt`` = a
garbled record the next replay must absorb), and segment reads pass
through the ``server.journal.read`` ``corrupt`` site so CI can tear
the tail on demand.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.cache import publish
from repro.testing.faults import corrupting, fault_point

logger = logging.getLogger(__name__)

#: Bump on incompatible frame/record layout changes; replay skips
#: segments stamped with other versions (they are unreadable, not
#: wrong — recovery degrades to recompute).
JOURNAL_VERSION = 1

SEGMENT_KIND = "repro-journal-segment"

#: The journal's directory under the cache root (beside the
#: fingerprint-salted result partitions, so code edits that move the
#: partition never orphan the journal).
JOURNAL_DIR = "journal"

#: Frame header: payload length + CRC32 of the payload, little-endian.
_FRAME = struct.Struct("<II")

#: Upper bound on one record's payload; anything larger in a header is
#: torn-frame garbage, not a record (plan documents are a few KiB).
MAX_RECORD_BYTES = 8 * 2**20

#: Terminal job states: absorbing under replay.
TERMINAL = ("done", "failed")


@dataclass
class JournaledJob:
    """One job as reconstructed by replay."""

    id: str
    kind: str
    content_hash: str
    n_cells: int
    doc: dict
    submitted_unix: float
    status: str = "queued"
    error: str | None = None
    cached: bool = False
    finished_unix: float | None = None

    @property
    def finished(self) -> bool:
        """True in a terminal (done/failed) state."""
        return self.status in TERMINAL


def replay_records(records) -> "dict[str, JournaledJob]":
    """Fold journal records into a job table (idempotent, see module doc).

    Returns jobs keyed by id, in first-submission order (dict order).
    """
    jobs: dict[str, JournaledJob] = {}
    for record in records:
        rec = record.get("rec")
        if rec == "submit":
            job_id = record.get("job")
            if not job_id or job_id in jobs:
                continue
            doc = record.get("doc")
            if not isinstance(doc, dict):
                continue
            jobs[job_id] = JournaledJob(
                id=job_id,
                kind=str(record.get("kind", "run")),
                content_hash=str(record.get("hash", "")),
                n_cells=int(record.get("cells", 1)),
                doc=doc,
                submitted_unix=float(record.get("unix", 0.0)),
            )
        elif rec == "state":
            job = jobs.get(record.get("job"))
            status = record.get("status")
            if job is None or job.finished or status not in (
                "queued", "running", "done", "failed"
            ):
                continue
            job.status = status
            if status in TERMINAL:
                job.error = record.get("error")
                job.cached = bool(record.get("cached", False))
                job.finished_unix = float(record.get("unix", 0.0))
    return jobs


def _frames(data: bytes):
    """Decode frames until the first undecodable one (torn tail)."""
    offset = 0
    while offset + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        if length > MAX_RECORD_BYTES or start + length > len(data):
            return
        payload = data[start:start + length]
        if zlib.crc32(payload) != crc:
            return
        try:
            doc = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return
        if not isinstance(doc, dict):
            return
        yield doc
        offset = start + length


def _frame_bytes(doc: dict) -> bytes:
    payload = json.dumps(doc, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _segment_header(index: int) -> dict:
    return {"kind": SEGMENT_KIND, "journal_version": JOURNAL_VERSION,
            "segment": index}


class Journal:
    """Append-only, fsync'd, CRC-framed job journal in one directory.

    Thread-safe: submissions append from the asyncio handler thread
    while drivers append state transitions.  Appends are best-effort
    durable — an ``OSError`` (disk full, fault injection) is counted
    and logged, never raised, because losing one journal record only
    weakens recovery for that job; taking the service down would lose
    everything.
    """

    def __init__(self, root: "Path | str", *, fsync: bool = True) -> None:
        self.root = Path(root)
        self.fsync = fsync
        self.writes = 0
        self.write_errors = 0
        self._lock = threading.Lock()
        self._fh = None

    # -- segment files ------------------------------------------------------

    def segments(self) -> list[Path]:
        """Segment files, oldest first."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("seg-*.wal"))

    @staticmethod
    def _segment_index_of(path: Path) -> int:
        try:
            return int(path.stem.split("-", 1)[1])
        except (IndexError, ValueError):
            return 0

    def _segment_path(self, index: int) -> Path:
        return self.root / f"seg-{index:08d}.wal"

    def _open_segment(self, index: int) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._segment_path(index)
        fresh = not path.exists()
        self._fh = open(path, "ab")
        if fresh:
            self._fh.write(_frame_bytes(_segment_header(index)))
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())

    def _ensure_open(self) -> None:
        if self._fh is not None:
            return
        existing = self.segments()
        index = (self._segment_index_of(existing[-1]) if existing else 1)
        self._open_segment(max(1, index))

    # -- writing ------------------------------------------------------------

    def append(self, record: dict) -> bool:
        """Durably append one record; returns whether it was persisted.

        The ``server.journal.write`` fault site fires here: ``raise``
        makes this append fail (counted, survived), ``corrupt`` garbles
        the payload so the *next replay* must stop at the frame before
        it — exactly the torn-tail discipline a real partial write
        exercises.
        """
        try:
            fault_point("server.journal.write")
            with self._lock:
                self._ensure_open()
                payload = json.dumps(record, sort_keys=True,
                                     separators=(",", ":")).encode("utf-8")
                payload = corrupting("server.journal.write", payload)
                frame = _FRAME.pack(len(payload), zlib.crc32(payload)) \
                    + payload
                self._fh.write(frame)
                self._fh.flush()
                if self.fsync:
                    os.fsync(self._fh.fileno())
            self.writes += 1
            return True
        except Exception:
            self.write_errors += 1
            logger.exception("journal append failed (record %r dropped)",
                             record.get("rec"))
            return False

    def record_submit(self, job_id: str, kind: str, content_hash: str,
                      n_cells: int, doc: dict) -> bool:
        """Append one accepted-submission record."""
        return self.append({
            "rec": "submit", "job": job_id, "kind": kind,
            "hash": content_hash, "cells": n_cells, "doc": doc,
            "unix": time.time(),
        })

    def record_state(self, job_id: str, status: str, *,
                     error: str | None = None,
                     cached: bool = False) -> bool:
        """Append one lifecycle-transition record."""
        record: dict = {"rec": "state", "job": job_id, "status": status,
                        "unix": time.time()}
        if error is not None:
            record["error"] = error
        if cached:
            record["cached"] = True
        return self.append(record)

    def close(self) -> None:
        """Flush and close the active segment (drain/final teardown)."""
        with self._lock:
            if self._fh is not None:
                with contextlib.suppress(Exception):
                    self._fh.flush()
                    if self.fsync:
                        os.fsync(self._fh.fileno())
                with contextlib.suppress(Exception):
                    self._fh.close()
                self._fh = None

    # -- reading ------------------------------------------------------------

    def _read_segment(self, path: Path) -> list[dict]:
        """One segment's decodable records (header frame stripped)."""
        try:
            data = path.read_bytes()
        except OSError:
            return []
        data = corrupting("server.journal.read", data)
        frames = list(_frames(data))
        if not frames:
            return []
        head = frames[0]
        if head.get("kind") != SEGMENT_KIND or \
                head.get("journal_version") != JOURNAL_VERSION:
            logger.warning("journal segment %s has an unreadable header; "
                           "skipping it", path.name)
            return []
        return frames[1:]

    def records(self) -> list[dict]:
        """Every decodable record across all segments, oldest first."""
        out: list[dict] = []
        for path in self.segments():
            out.extend(self._read_segment(path))
        return out

    def replay(self) -> "dict[str, JournaledJob]":
        """Rebuild the job table from disk (see :func:`replay_records`)."""
        return replay_records(self.records())

    # -- compaction ---------------------------------------------------------

    def compact(self, jobs: "list[JournaledJob]") -> None:
        """Rewrite the journal as one fresh segment holding ``jobs``.

        Called at startup after replay: the surviving jobs (and nothing
        else) are folded into a new segment — published atomically, so
        a crash mid-compaction leaves either the old segments or the
        complete new one, never a half journal.  Old segments are
        deleted only after the rename lands.
        """
        existing = self.segments()
        index = (self._segment_index_of(existing[-1]) + 1) if existing else 1
        self.close()
        self.root.mkdir(parents=True, exist_ok=True)
        blob = _frame_bytes(_segment_header(index))
        for job in jobs:
            blob += _frame_bytes({
                "rec": "submit", "job": job.id, "kind": job.kind,
                "hash": job.content_hash, "cells": job.n_cells,
                "doc": job.doc, "unix": job.submitted_unix,
            })
            if job.status != "queued":
                record: dict = {"rec": "state", "job": job.id,
                                "status": job.status,
                                "unix": job.finished_unix or time.time()}
                if job.error is not None:
                    record["error"] = job.error
                if job.cached:
                    record["cached"] = True
                blob += _frame_bytes(record)
        publish(self._segment_path(index),
                lambda handle: handle.write(blob), fsync=self.fsync)
        for path in existing:
            with contextlib.suppress(OSError):
                path.unlink()

    # -- stats --------------------------------------------------------------

    def usage(self) -> dict:
        """Segments, bytes and append counters: a stat of each segment
        file, no read, so ``/v1/health`` costs the same however long
        the journal grew."""
        segments = self.segments()
        size = 0
        for path in segments:
            with contextlib.suppress(OSError):
                size += path.stat().st_size
        return {"segments": len(segments), "bytes": size,
                "writes": self.writes, "write_errors": self.write_errors}

    def stats(self) -> dict:
        """:meth:`usage` plus the records and the live and finished
        jobs, for ``repro cache stats``; reads and folds every segment.

        Also deletes, and counts as ``tmp_removed``, the ``*.tmp``
        residue of a compaction killed before its rename.
        """
        tmp_removed = 0
        for path in self.root.glob("*.tmp"):
            with contextlib.suppress(OSError):
                path.unlink()
                tmp_removed += 1
        records = self.records()
        jobs = replay_records(records).values()
        finished = sum(job.finished for job in jobs)
        return {"root": str(self.root), **self.usage(),
                "entries": len(records), "live_jobs": len(jobs) - finished,
                "finished_jobs": finished, "tmp_removed": tmp_removed}

    def clear(self) -> int:
        """Delete every segment; returns the records they held."""
        removed = len(self.records())
        self.close()
        for path in self.segments():
            with contextlib.suppress(OSError):
                path.unlink()
        return removed


__all__ = [
    "JOURNAL_DIR",
    "JOURNAL_VERSION",
    "MAX_RECORD_BYTES",
    "SEGMENT_KIND",
    "TERMINAL",
    "Journal",
    "JournaledJob",
    "replay_records",
]
