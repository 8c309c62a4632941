"""Shared machinery for the exact batched (vectorized) scheme fast path.

The batched simulation engine (:mod:`repro.sim.engine`) replaces the
per-activation Python loop with numpy chunk processing while remaining
*event-exact*: it must emit the identical refresh-command sequence — at
the identical stream positions — as the scalar loop, and leave every
counter, statistic, and tree structure in the identical state.

The core idea is *headroom bisection*.  Counting schemes (SCA and the
CAT family) only change externally observable state when some counter
crosses a threshold: a refresh, a split, or a DRCAT harvest attempt.
Between such events, processing a chunk of activations is a pure
per-counter accumulation, which vectorizes as an ``np.bincount``.  Each
active counter therefore exposes a *headroom*: the number of further
hits it can absorb before its next event.  A window whose per-counter
hit counts all stay below the headroom is applied wholesale; otherwise
the loop in :func:`counter_scheme_access_batch` locates the exact first
crossing position (the ``headroom[c]``-th remaining occurrence of a
crossing counter ``c``), the prefix is applied in bulk, and the single
event access is replayed through the scheme's scalar ``access`` — which
stays the oracle for all tree mutations (split, harvest/merge, weight
updates, epoch resets).

An event costs only what it changed.  A crossing counter's located
position is kept across events while its headroom only loses the hits
the prefix took from it and its ids in the rest of the window do not
move; after a split or merge only the rest of the window is
re-gathered (DESIGN.md, "Each event costs only what it changed").

Headroom may be *conservative* (too small) without breaking exactness:
a flagged position whose scalar replay turns out not to be an event
simply costs one extra scalar call.  It must never be optimistic, with
one deliberate, exact exception: a DRCAT harvest attempt that provably
fails is not replayed.  Its only effect is the requester's blocked
flag, so :meth:`~repro.core.counter_tree.CounterTree._headroom` gives
that counter refresh-only headroom and reports the attempt, and
:meth:`~repro.core.counter_tree.CounterTree.apply_bulk_counts` sets the
flag once a bulk batch reaches it (DESIGN.md, "Batched engine").

Schemes whose counters are independent and never restructure — SCA's
groups and the counter cache's per-row counts — need no bisection:
:func:`threshold_crossings` computes every event of a batch up front.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import MitigationScheme, RefreshCommand

#: Window size for chunked batch processing.  Bounds the re-scan cost
#: after an event (one occurrence scan of at most this many ids) while
#: keeping the per-window Python overhead negligible.
BATCH_WINDOW = 2048


def check_rows(rows: np.ndarray, n_rows: int) -> None:
    """Vectorized equivalent of the scalar per-access row range check."""
    if len(rows) and (int(rows.min()) < 0 or int(rows.max()) >= n_rows):
        bad = rows[(rows < 0) | (rows >= n_rows)][0]
        raise ValueError(f"row {int(bad)} out of range for bank with {n_rows} rows")


def threshold_crossings(
    ids: np.ndarray, start: np.ndarray, hits: np.ndarray, threshold: int
) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """Every threshold crossing of independent counters over one batch.

    Counter ``c`` starts at ``start[c]`` (below ``threshold``) and takes
    ``hits[c]`` hits, at the positions where ``ids == c``; it resets to
    zero each time it reaches the threshold.  So it crosses
    ``k = (s + h) // T`` times, at its ``(T - s)``-th, ``(2T - s)``-th,
    … hit, and ends at ``s + h - kT``.  Returns the end counts and a
    ``(counter, positions)`` pair per crossing counter; only crossing
    counters pay an occurrence scan (once per counter, not per event).
    """
    total = start + hits
    crossings = total // threshold
    fired = []
    for c in np.flatnonzero(crossings).tolist():
        occurrences = np.flatnonzero(ids == c)
        first = threshold - int(start[c])  # 1-based hit index
        fired.append((c, occurrences[first - 1 :: threshold]))
    return total - crossings * threshold, fired


def counter_scheme_access_batch(
    scheme: "MitigationScheme", rows: np.ndarray
) -> list[tuple[int, list["RefreshCommand"]]]:
    """Exact batched access for tree-based schemes (PRCAT / DRCAT).

    Processes windows of accesses against the tree's row-block index
    map, maintaining the window's per-counter hit counts incrementally:
    event-free remainders apply wholesale via
    :meth:`CounterTree.apply_bulk_counts`, and each event access replays
    through the scheme's scalar ``access`` (the oracle).  Returns
    ``(position, commands)`` pairs for every access that emitted
    commands, in stream order.
    """
    n = len(rows)
    if n == 0:
        return []
    check_rows(rows, scheme.n_rows)
    tree = scheme.tree
    n_bins = tree.n_counters
    events: list[tuple[int, list["RefreshCommand"]]] = []
    scalar_calls = 0
    base = 0
    while base < n:
        chunk = rows[base : base + BATCH_WINDOW]
        # Gather once per window; after a structural mutation bumps the
        # map version, re-gather (and re-count) only the rest of it.
        ids = tree.map_rows_to_counters(chunk)
        version = tree._map_version
        counts = np.bincount(ids, minlength=n_bins)
        # located[c] is the event position found for crossing counter c;
        # it stays exact while c's headroom equals assumed[c] (0, never
        # a headroom, marks a counter to scan).
        located = np.zeros(n_bins, dtype=np.int64)
        assumed = np.zeros(n_bins, dtype=np.int64)
        start = 0
        while True:
            # harvest_at marks DRCAT harvest attempts that provably fail:
            # the bulk applies set their blocked flags instead of replays.
            headroom, harvest_at = tree._headroom(counts)
            crossing = counts >= headroom
            if not crossing.any():
                # No event left in the window: apply the remainder.
                tree.apply_bulk_counts(counts, harvest_at)
                break
            # Counter c triggers at its headroom[c]-th remaining
            # occurrence; the earliest such position is the event.
            for c in (crossing & (headroom != assumed)).nonzero()[0].tolist():
                occurrences = (ids[start:] == c).nonzero()[0]
                located[c] = start + occurrences[headroom[c] - 1]
            position = int(located[crossing].min())
            if position < start:
                # Only a stale cached position can lie behind the cursor.
                raise RuntimeError("stale cached event position")
            prefix_counts = np.bincount(ids[start:position], minlength=n_bins)
            tree.apply_bulk_counts(prefix_counts, harvest_at)
            event_counter = int(ids[position])
            cmds = scheme.access(int(chunk[position]))
            scalar_calls += 1
            if cmds:
                events.append((base + position, cmds))
            start = position + 1
            if start >= len(chunk):
                break
            # The prefix held exactly prefix_counts[c] hits of every other
            # counter, so c's located position is still its event if its
            # next headroom has only lost those hits (and its ids in the
            # rest of the window did not move).
            assumed = np.where(crossing, headroom - prefix_counts, 0)
            assumed[event_counter] = 0
            if tree._map_version != version:
                rest = tree.map_rows_to_counters(chunk[start:])
                moved = rest != ids[start:]
                assumed[ids[start:][moved]] = 0
                assumed[rest[moved]] = 0
                ids[start:] = rest
                version = tree._map_version
                counts = np.bincount(rest, minlength=n_bins)
            else:
                counts -= prefix_counts
                counts[event_counter] -= 1
        base += len(chunk)
    # Scalar replays already counted their own activations.
    scheme.stats.activations += n - scalar_calls
    return events
