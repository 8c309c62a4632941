"""Content-addressed activation-trace store: generate once, mmap everywhere.

Stream *generation* — drawing each bank-interval's row ids and Poisson
arrival times — is a pure function of a small set of spec fields (the
workload model, attack mix, seed, scale, bank count and bank geometry)
and is completely independent of the mitigation scheme, the refresh
threshold, and the engine.  A scheme-axis figure grid therefore re-runs
the *identical* generation pass for every one of its N cells.  This
module de-duplicates that work:

* Every unique stream is identified by a **stream key**: the SHA-256 of
  the canonical JSON of its generation-relevant fields
  (:func:`stream_key_doc`).  Scheme, threshold and engine are excluded
  by construction, so all cells of a scheme/threshold axis share one
  key — and so do the batched and scalar engines.
* Each generated interval persists as a memory-mapped ``.npy`` pair
  (all banks' quantized arrival times concatenated, likewise the row
  ids) plus a small JSON sidecar carrying the per-bank offsets, the
  full key document (hash-collision guard), and the arrival RNG's
  **post-generation state**.  Consumers receive zero-copy views of the
  memmaps; across processes the OS page cache backs them all with one
  physical copy.
* Entries live under a ``CACHE_VERSION + code-fingerprint`` partition —
  the exact salt the sweep-cell :class:`~repro.experiments.cache.ResultCache`
  uses — so *any* edit under ``src/repro`` automatically invalidates
  every stored stream.  A stale stream can never leak into new numerics.

**Exactness.**  A stored interval is the byte-exact array the generator
produced (float64 quarter-ns grid times, int64 rows), so serving it back
cannot change any result.  The one subtlety is the arrival RNG: the
historical loop consumes it sequentially (per bank, in bank order, per
interval), so skipping generation must still leave the generator where
generation would have left it — which is why each entry records the
post-generation ``bit_generator`` state and a store hit *restores* it.
The RNG state before interval ``k`` is itself a pure function of the
stream key (intervals are always consumed in order), so the recorded
chain is consistent no matter which process wrote which interval.

**Robustness.**  A truncated, corrupt, or colliding entry is detected
(meta/array shape, dtype and key-document checks; ``np.load`` failures)
and treated as a miss — the stream regenerates and the entry is
rewritten.  Writes are atomic (:func:`~repro.experiments.cache.publish`),
with the meta sidecar written last so its presence implies complete
arrays.  An unwritable store degrades to a no-op, never an error.

A run's :class:`~repro.report.config.RunContext` selects the store:
``REPRO_TRACE_STORE=0`` disables it entirely; ``REPRO_TRACE_STORE_DIR``
overrides its location (default: ``traces/`` inside the sweep-cell
result-cache directory — the command's ``--cache-dir`` when it has
one — see :func:`~repro.report.config.store_roots`, so CI cache keys
covering the result cache cover the streams too).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.experiments.cache import PartitionedStore, publish
from repro.report.config import RunContext
from repro.sim.simulator import simulated_banks
from repro.testing.faults import corrupting, fault_point

#: On-disk entry layout version (bump on incompatible changes; part of
#: every stream key, so old entries simply stop matching).
STORE_VERSION = 1

#: Per-process cap on memoized entries (views of the memmaps — the
#: resident cost is page cache, not heap); grids touch few distinct
#: streams, so a small bound suffices.
RAM_CACHE_ENTRIES = 64


#: Per-process singletons keyed by root, so every SessionCore pointing
#: at one root shares one in-process entry cache.
_STORES: dict[str, "TraceStore"] = {}


def open_store(context: RunContext | None = None) -> "TraceStore | None":
    """The store ``context`` selects (default: the environment's), or
    None when the store is off."""
    root = (context or RunContext.from_env()).trace_store
    if root is None:
        return None
    store = _STORES.get(root)
    if store is None:
        store = _STORES[root] = TraceStore(root)
    return store


def stream_key_doc(spec) -> dict:
    """The generation-relevant identity of one spec's streams.

    Describes what :func:`~repro.sim.simulator.stream_plan` generates.
    Scheme, refresh threshold and engine are deliberately absent — they
    cannot influence generation — and so is ``n_intervals``: interval
    ``k``'s content (and RNG chain) does not depend on how many
    intervals follow it, so runs of different lengths share entries.
    """
    from dataclasses import asdict

    doc: dict = {
        "store_version": STORE_VERSION,
        "kind": "workload",
        "rows_per_bank": spec.resolve_system().rows_per_bank,
        "scale": spec.scale,
        "n_banks": simulated_banks(spec),
        "seed": spec.seed,
    }
    if spec.kind == "attack":
        doc["kind"] = "attack"
        doc["attack"] = {
            "kernel": spec.attack_kernel,
            "mode": spec.attack_mode,
        }
    doc["workload"] = asdict(spec.resolve_workload_model())
    return doc


def stream_key(doc: dict) -> str:
    """Stable 16-hex-digit digest of a :func:`stream_key_doc`."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class TraceStore(PartitionedStore):
    """Filesystem-backed, memory-mapped (stream key, interval) → streams.

    One entry holds every bank's quantized ``(times, rows)`` arrays of
    one refresh interval, concatenated, plus the per-bank offsets and
    the arrival RNG's post-generation state.  :meth:`get` returns
    zero-copy read-only views; :meth:`put` is atomic and concurrent-
    writer safe (identical bytes, last rename wins).
    """

    def __init__(self, parent: str | Path) -> None:
        super().__init__(parent)
        #: (key, interval) → (per_bank, rng_after, key_doc); the key
        #: document rides along so even RAM hits collision-check.
        self._ram: dict[tuple[str, int], tuple[list, dict, dict]] = {}

    # -- paths -----------------------------------------------------------

    def _times_path(self, key: str, interval: int) -> Path:
        return self.root / f"{key}-i{interval}.times.npy"

    def _rows_path(self, key: str, interval: int) -> Path:
        return self.root / f"{key}-i{interval}.rows.npy"

    def _meta_path(self, key: str, interval: int) -> Path:
        return self.root / f"{key}-i{interval}.meta.json"

    # -- read ------------------------------------------------------------

    def get(self, key: str, key_doc: dict, interval: int, n_banks: int):
        """Stored ``(per_bank, rng_state_after)`` for one interval, or None.

        ``per_bank`` is a list of ``n_banks`` read-only ``(times, rows)``
        memmap views.  Any inconsistency — missing files, truncated
        arrays, wrong dtype/shape, an offsets/array mismatch, or a key
        document that does not match ``key_doc`` (hash collision or
        hand-edited entry) — drops the entry and reports a miss.
        """
        fault_point("tracestore.read")
        cached = self._ram.get((key, interval))
        if cached is not None:
            per_bank, rng_state, cached_doc = cached
            if cached_doc == key_doc:
                self.hits += 1
                return per_bank, rng_state
            # In-process hash collision: fall through to the disk path,
            # which re-validates and drops the entry.
            self._ram.pop((key, interval), None)
        meta_path = self._meta_path(key, interval)
        try:
            # The injected ``corrupt`` fault garbles the loaded sidecar
            # exactly like a torn concurrent read would; the checks
            # below must degrade it to a regenerating miss.
            meta = json.loads(
                corrupting("tracestore.read",
                           meta_path.read_text(encoding="utf-8"))
            )
            if meta["key"] != key_doc:
                raise ValueError("trace entry key mismatch")
            offsets = meta["offsets"]
            rng_state = meta["rng_after"]
            if (
                len(offsets) != n_banks + 1
                or offsets[0] != 0
                or any(not isinstance(o, int) for o in offsets)
                or any(a > b for a, b in zip(offsets, offsets[1:]))
            ):
                # Non-monotonic offsets would silently mis-split the
                # per-bank streams (numpy slicing clamps instead of
                # raising) — corrupt, not merely odd.
                raise ValueError("trace entry bank layout mismatch")
            if (
                not isinstance(rng_state, dict)
                or rng_state.get("bit_generator") != "PCG64"
                or not isinstance(rng_state.get("state"), dict)
            ):
                raise ValueError("trace entry RNG state mismatch")
            times = np.load(self._times_path(key, interval), mmap_mode="r")
            rows = np.load(self._rows_path(key, interval), mmap_mode="r")
            total = int(offsets[-1])
            if (
                times.dtype != np.float64
                or rows.dtype != np.int64
                or times.shape != (total,)
                or rows.shape != (total,)
            ):
                raise ValueError("trace entry array mismatch")
            per_bank = [
                (times[offsets[b]:offsets[b + 1]],
                 rows[offsets[b]:offsets[b + 1]])
                for b in range(n_banks)
            ]
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError):
            # Corrupt, truncated, or colliding entry: drop and recompute.
            self.drop(key, interval)
            self.misses += 1
            return None
        self.hits += 1
        self._remember(key, interval, (per_bank, rng_state, key_doc))
        return per_bank, rng_state

    # -- write -----------------------------------------------------------

    def put(
        self,
        key: str,
        key_doc: dict,
        interval: int,
        per_bank: list,
        rng_state_after: dict,
    ) -> None:
        """Persist one freshly generated interval (atomic, best-effort).

        Array files are written before the meta sidecar, so a readable
        meta implies complete arrays.  An unwritable store (read-only
        CI cache, full disk) is silently a no-op — the store is an
        optimization, never a requirement.
        """
        fault_point("tracestore.write")
        offsets = [0]
        for times, _ in per_bank:
            offsets.append(offsets[-1] + len(times))
        all_times = (
            np.concatenate([t for t, _ in per_bank])
            if per_bank else np.empty(0, dtype=np.float64)
        )
        all_rows = (
            np.concatenate(
                [r.astype(np.int64, copy=False) for _, r in per_bank]
            )
            if per_bank else np.empty(0, dtype=np.int64)
        )
        meta = {
            "key": key_doc,
            "offsets": offsets,
            "rng_after": rng_state_after,
        }
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            publish(self._times_path(key, interval),
                    lambda handle: np.save(
                        handle, all_times.astype(np.float64, copy=False)))
            publish(self._rows_path(key, interval),
                    lambda handle: np.save(handle, all_rows))
            meta_bytes = corrupting("tracestore.write",
                                    json.dumps(meta)).encode("utf-8")
            publish(self._meta_path(key, interval),
                    lambda handle: handle.write(meta_bytes))
        except OSError:
            return
        self._remember(key, interval,
                       (per_bank, rng_state_after, key_doc))

    def _remember(self, key: str, interval: int, entry) -> None:
        if len(self._ram) >= RAM_CACHE_ENTRIES:
            # Grids revisit a handful of streams many times; dropping
            # the oldest insertion is plenty (no LRU bookkeeping).
            self._ram.pop(next(iter(self._ram)))
        self._ram[(key, interval)] = entry

    # -- maintenance -----------------------------------------------------

    def drop(self, key: str, interval: int) -> None:
        """Remove one entry's files (best-effort) and forget it."""
        self._ram.pop((key, interval), None)
        for path in (
            self._meta_path(key, interval),
            self._times_path(key, interval),
            self._rows_path(key, interval),
        ):
            try:
                path.unlink()
            except OSError:
                pass

    def _count(self, names: list[str]) -> dict:
        return {"entries": sum(name.endswith(".meta.json")
                               for name in names)}

    def clear(self) -> int:
        """Delete every partition; returns the active one's entries."""
        self._ram.clear()
        return super().clear()
