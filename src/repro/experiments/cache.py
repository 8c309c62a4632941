"""On-disk sweep-cell result cache keyed by spec content hash.

Each cache entry is one (spec, result) pair stored as JSON under
``<root>/<salt>/<spec-hash>.json``.  The salt partition combines a
manually bumped :data:`CACHE_VERSION` with a fingerprint of the
installed ``repro`` source tree, so *any* code change automatically
invalidates cached results — a stale cache can therefore never mask a
numerics regression in ``repro verify``.  Re-running a bench after an
unrelated edit outside ``src/repro`` (or with no edit at all) hits the
warm cache and skips the simulation entirely.

Entries store the producing spec alongside the result; a hash collision
or hand-edited file is detected and treated as a miss.  Corrupt entries
are likewise misses, never errors.

Publishes are atomic (:func:`publish`: temp file + ``os.replace``)
*and* serialized across processes by a per-store advisory lock (see
:mod:`repro.locking`), so any number of concurrent writers — ``repro
serve`` workers, parallel sweeps, ad-hoc CLI runs — can share one store
directory without ever interleaving partial entries.

This module also holds what every store shares: :func:`publish`, the
one atomic file write, and :class:`PartitionedStore`, the partition
layout the result cache and the trace store both use.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

from repro.experiments.spec import ExperimentSpec
from repro.locking import advisory_lock
from repro.testing.faults import corrupting, fault_point

#: Manual salt: bump when cached-result semantics change in a way the
#: code fingerprint cannot see (e.g. an external data file).
CACHE_VERSION = "v1"

#: A partition's name: ``CACHE_VERSION-<code fingerprint>``.  Any
#: version matches, so partitions older code wrote count as stale.
PARTITION_NAME = re.compile(r"v\d+-[0-9a-f]{16}")


def source_files(package_root: Path) -> list[Path]:
    """Every source the package runs: its Python modules and the C
    kernel the batched engine compiles (``sim/kernel.c``)."""
    return sorted([*package_root.rglob("*.py"), *package_root.rglob("*.c")])


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of every ``repro`` source file (content + relative path).

    Computed once per process (~1 ms for the ~40-file tree).  Any edit
    under ``src/repro`` changes the fingerprint and thereby the cache
    partition, guaranteeing cached results always came from the exact
    code that is running.
    """
    package_root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in source_files(package_root):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def publish(path: Path, write, *, fsync: bool = False) -> Path:
    """Atomically replace ``path`` with what ``write`` writes.

    ``write(handle)`` fills a binary temp file beside ``path`` (so a
    trace array goes straight from its buffer to the file), which is
    then renamed over ``path``: a reader sees the old file or the
    complete new one, never a torn one.  ``fsync`` makes the content
    durable before the rename (the journal's compaction needs that;
    the caches do not).  On any failure the temp file is removed and
    the error propagates; a writer killed mid-write leaves ``*.tmp``
    residue, which the owning store's ``stats()`` deletes.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem,
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


class PartitionedStore:
    """A store whose entries live in code-fingerprint partitions.

    ``parent`` holds one partition per code version that wrote to it,
    each named ``CACHE_VERSION-<fingerprint>`` (:data:`PARTITION_NAME`);
    ``root`` is the running code's.  :meth:`stats` and :meth:`clear`
    touch only directories so named, so the stores can share a parent
    with each other and with anything else.
    """

    def __init__(self, parent: str | Path) -> None:
        self.parent = Path(parent)
        self.root = self.parent / f"{CACHE_VERSION}-{code_fingerprint()}"
        self.hits = 0
        self.misses = 0

    def _partitions(self) -> list[Path]:
        try:
            return [path for path in self.parent.iterdir()
                    if path.is_dir() and PARTITION_NAME.fullmatch(path.name)]
        except OSError:
            return []

    def _count(self, names: list[str]) -> dict:
        """Entry counts of the active partition, from its file names."""
        raise NotImplementedError

    def stats(self) -> dict:
        """Entries of the active partition; partitions and bytes of all.

        Deletes, and counts as ``tmp_removed``, the ``*.tmp`` residue
        of writes killed before their rename (:func:`publish`) in those
        partitions.  A live writer that loses its temp file only fails
        its rename, which every store treats as a dropped write.
        """
        stats = {"root": str(self.parent), "partitions": 0,
                 "stale_partitions": 0, "bytes": 0, "tmp_removed": 0}
        names: list[str] = []
        for partition in self._partitions():
            files = []
            for path in partition.iterdir():
                if path.suffix != ".tmp":
                    files.append(path)
                    continue
                with contextlib.suppress(OSError):
                    path.unlink()
                    stats["tmp_removed"] += 1
            stats["partitions"] += 1
            if partition.name == self.root.name:
                names = [path.name for path in files]
            else:
                stats["stale_partitions"] += 1
            for path in files:
                with contextlib.suppress(OSError):
                    stats["bytes"] += path.stat().st_size
        stats.update(self._count(names))
        return stats

    def clear(self) -> int:
        """Delete every partition; returns the active one's entries."""
        removed = self.stats()["entries"]
        for partition in self._partitions():
            shutil.rmtree(partition, ignore_errors=True)
        return removed


class ResultCache(PartitionedStore):
    """Filesystem-backed (spec → SimulationResult) store."""

    @classmethod
    def coerce(cls, cache) -> "ResultCache | None":
        """None passes through; paths become caches; caches are caches."""
        if cache is None or isinstance(cache, ResultCache):
            return cache
        return cls(cache)

    def path_for(self, spec: ExperimentSpec) -> Path:
        """The store path for ``spec`` (keyed by its content hash)."""
        return self.root / f"{spec.content_hash()}.json"

    def _read(self, path: Path, spec: ExperimentSpec, decode):
        """``decode(doc)`` of the entry at ``path`` if it holds ``spec``;
        None on a miss.  A corrupt or colliding entry is dropped (and
        missed), so the caller recomputes it."""
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            stored = doc.get("spec")
            # Compare label-stripped forms: the display label is not
            # part of the hash, so differently labelled writers of the
            # same experiment must hit each other's entries.
            if not isinstance(stored, dict) or ExperimentSpec.from_dict(
                stored
            ).canonical_dict() != spec.canonical_dict():
                raise ValueError("cache entry spec mismatch")
            value = decode(doc)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError):
            with contextlib.suppress(OSError):
                path.unlink()
            self.misses += 1
            return None
        self.hits += 1
        return value

    def get(self, spec: ExperimentSpec):
        """The cached result for ``spec``, or None (miss)."""
        from repro.sim.metrics import SimulationResult

        return self._read(self.path_for(spec), spec,
                          lambda doc: SimulationResult.from_dict(doc["result"]))

    def put(self, spec: ExperimentSpec, result) -> Path:
        """Persist one result (atomic rename; concurrent writers safe).

        Instrumented as the ``cache.put`` fault-injection site: the
        ``raise`` kind fails the write (the sweep scheduler retries
        it), the ``corrupt`` kind tears the stored document so a later
        :meth:`get` must detect it and recompute.
        """
        fault_point("cache.put")
        doc = {"spec": spec.to_dict(), "result": result.to_dict()}
        return self._write(self.path_for(spec), doc,
                           corrupt_site="cache.put")

    def _write(self, path: Path, doc: dict,
               corrupt_site: str | None = None) -> Path:
        """Publish one entry: advisory lock + :func:`publish`.

        The rename alone makes a single publish atomic; the per-store
        advisory lock (:func:`repro.locking.advisory_lock`) additionally
        serializes concurrent multi-process writers — ``repro serve``
        pool workers, parallel sweeps, and ad-hoc CLI runs can all
        target one store — so interleaved publishes of the same entry
        resolve to exactly one winner and partial entries can never be
        observed.  Lock trouble (timeout, unwritable lock path) is an
        ``OSError`` like any other failed write; every caller already
        treats a failed put as a droppable optimization.

        Entries are compact JSON, as :meth:`repro.api.Session.save`
        writes: indenting would force the pure-Python encoder, which
        makes a scheme-state snapshot ~7x slower to encode.
        """
        text = json.dumps(doc, separators=(",", ":"))
        if corrupt_site is not None:
            text = corrupting(corrupt_site, text)
        data = text.encode("utf-8")
        # The lock file lives in the partition, so taking the lock
        # creates the partition directory.
        with advisory_lock(self.root / ".publish"):
            return publish(path, lambda handle: handle.write(data))

    def _count(self, names: list[str]) -> dict:
        entries = [name for name in names if name.endswith(".json")]
        snapshots = sum(".snap-" in name for name in entries)
        return {"entries": len(entries) - snapshots, "snapshots": snapshots}

    # -- partial runs (session snapshots) --------------------------------
    #
    # Warm-started sweeps: a checkpointed prefix of a run is reusable by
    # any experiment sharing the spec's semantic content — e.g. sweep
    # cells re-based on a longer horizon, or interactive what-if forks.
    # Snapshots are keyed by (spec content hash, position tag) in the
    # same fingerprint-salted partition as results, so stale code can
    # never resume into new numerics.

    def snapshot_path(self, spec: ExperimentSpec, tag: str | int) -> Path:
        """Where a partial-run snapshot of ``spec`` at ``tag`` lives."""
        return self.root / f"{spec.content_hash()}.snap-{tag}.json"

    def get_snapshot(self, spec: ExperimentSpec, tag: str | int):
        """The stored session-snapshot document, or None (miss)."""
        return self._read(self.snapshot_path(spec, tag), spec,
                          lambda doc: doc["snapshot"])

    def put_snapshot(
        self, spec: ExperimentSpec, tag: str | int, snapshot: dict
    ) -> Path:
        """Persist one partial-run snapshot (atomic, like :meth:`put`).

        Instrumented as the ``server.checkpoint`` fault-injection site:
        ``raise`` fails the write (callers treat a checkpoint as a
        droppable optimization), ``corrupt`` tears the stored document
        so a later :meth:`get_snapshot` must detect it and degrade to a
        cold start.
        """
        fault_point("server.checkpoint")
        doc = {"spec": spec.to_dict(), "snapshot": snapshot}
        return self._write(self.snapshot_path(spec, tag), doc,
                           corrupt_site="server.checkpoint")

    def delete_snapshot(self, spec: ExperimentSpec, tag: str | int) -> bool:
        """Drop a stored snapshot (a finished run no longer needs its
        resume point); returns whether a file was removed."""
        try:
            self.snapshot_path(spec, tag).unlink()
            return True
        except OSError:
            return False
