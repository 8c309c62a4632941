"""Shared helpers of the exact batched scheme paths.

The batched simulation engine (:mod:`repro.sim.engine`) serves SCA,
PRA, PRCAT and DRCAT bank segments in the compiled kernel
(:mod:`repro.sim.kernel`), which follows the scalar oracle access by
access.  Schemes it does not serve batch through their own
``access_batch``: the counter cache computes its events with
:func:`threshold_crossings`, and a registrant without a fast path
inherits the per-access default of
:meth:`~repro.core.base.MitigationScheme.access_batch`.  Any batch must
emit the identical refresh-command sequence, at the identical stream
positions, and leave the scheme in the identical state as per-access
``access`` calls.

Schemes whose counters are independent and never restructure, such as
the counter cache's per-row counts, need no replay:
:func:`threshold_crossings` computes every event of a batch up front.
"""

from __future__ import annotations

import numpy as np


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
