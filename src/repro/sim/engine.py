"""The batched (vectorized) simulation engine.

:func:`run_batched` drives a :class:`~repro.dram.memory_system.MemorySystem`
through a merged ``(time, bank, row)`` activation stream exactly as the
scalar loop ``for t, b, r: memory.access(t, b, r)`` would — same refresh
commands at the same stream positions, same bank stall accounting, same
scheme statistics — but in numpy chunks instead of per-event Python.

Exactness rests on three facts (argued in DESIGN.md, "Batched engine"):

1. **Scheme events are rare and localized.**  Between threshold
   crossings a counting scheme is a pure per-counter accumulator, so
   event-free stretches vectorize (``MitigationScheme.access_batch``),
   and each event replays through the scalar oracle.
2. **Banks only couple through epoch boundaries.**  Within one epoch
   segment each bank's (scheme, timing) evolution depends only on its
   own sub-stream, so banks process independently; the only global
   state, ``last_completion_ns``, is a running max and commutes.
3. **Quantized time makes float arithmetic exact.**  All arrival times
   are floored to the quarter-nanosecond grid (:data:`TIME_QUANTUM_NS`),
   on which every timing expression is exactly representable in
   float64; vectorized re-association therefore changes nothing.
"""

from __future__ import annotations

import numpy as np

from repro.dram.memory_system import MemorySystem
from repro.report.config import ENGINE_NAMES

#: Simulation time quantum (ns).  1/4 ns is a negative power of two, so
#: every multiple is exactly representable in float64 — as are all the
#: DDR3 timing constants (multiples of 1.25 ns = 5 quanta).
TIME_QUANTUM_NS = 0.25

#: Engines selectable on the simulator / runner / CLI (defined once, in
#: :data:`repro.report.config.ENGINE_NAMES`).
ENGINES = ENGINE_NAMES


def quantize_times_ns(times: np.ndarray) -> np.ndarray:
    """Floor timestamps to the quarter-nanosecond simulation grid.

    ``t * 4`` and ``x * 0.25`` are exact float64 operations (powers of
    two only shift the exponent), so the result is the largest grid
    point ``<= t`` with no rounding anywhere.
    """
    return np.floor(times * 4.0) * TIME_QUANTUM_NS


def run_batched(
    memory: MemorySystem,
    times: np.ndarray,
    banks: np.ndarray,
    rows: np.ndarray,
) -> None:
    """Drive ``memory`` through a merged stream, bit-exactly, in chunks.

    ``times`` must be sorted (quarter-ns grid), ``banks``/``rows`` int64.
    Equivalent to ``for t, b, r in zip(...): memory.access(t, b, r)``.
    """
    n = len(times)
    start = 0
    while start < n:
        # The scalar loop advances epochs *before* serving the first
        # access at/after each boundary; segment the stream accordingly.
        boundary = memory._next_epoch_ns
        end = start + int(np.searchsorted(times[start:], boundary, side="left"))
        if end == start:
            memory._advance_epochs(float(times[start]))
            continue
        # Group the chunk by bank with one stable argsort: equal keys
        # keep their (time-sorted) order, so each bank's gathered
        # sub-stream is exactly the per-bank mask of before — without a
        # full-chunk boolean scan per present bank.
        segment_banks = banks[start:end]
        order = np.argsort(segment_banks, kind="stable")
        grouped = segment_banks[order]
        present = np.unique(grouped)
        starts = np.searchsorted(grouped, present, side="left")
        ends = np.append(starts[1:], len(grouped))
        seg_times = times[start:end]
        seg_rows = rows[start:end]
        for bank, lo, hi in zip(
            present.tolist(), starts.tolist(), ends.tolist()
        ):
            picks = order[lo:hi]
            _run_bank_segment(
                memory, bank, seg_times[picks], seg_rows[picks]
            )
        start = end


def run_batched_streams(
    memory: MemorySystem,
    streams: list[tuple[np.ndarray, np.ndarray]],
) -> None:
    """Drive ``memory`` through per-bank (times, rows) streams.

    Equivalent to merging the streams in global time order and calling
    :func:`run_batched` — the merged order only ever mattered for epoch
    advancement, and epochs advance here between segments exactly as
    the first crossing access would trigger them — but skips the merge
    sort and the per-bank re-extraction entirely.  ``streams[bank]``
    holds that bank's sorted (quarter-ns grid) arrival times and rows.
    """
    advance_batched_streams(memory, streams, [0] * len(streams))


def advance_batched_streams(
    memory: MemorySystem,
    streams: list[tuple[np.ndarray, np.ndarray]],
    cursors: list[int],
    *,
    until_ns: float | None = None,
    max_accesses: int | None = None,
) -> int:
    """Re-entrant core of :func:`run_batched_streams`.

    Serves stream accesses starting from the per-bank ``cursors``
    (mutated in place) until the streams are exhausted, until the next
    pending access would arrive at or after ``until_ns``, or until
    ``max_accesses`` accesses have been served — whichever comes first.
    Returns the number of accesses served.

    Pausing and resuming at *any* cut leaves the final state
    bit-identical to an uninterrupted run: within one epoch segment the
    banks are independent (the only shared state, the running
    completion max and the aggregate totals, commutes), and an epoch
    boundary is only crossed here when the next access to be served
    lies beyond it — exactly when the scalar loop would cross it.  The
    session layer (:mod:`repro.api`) is built on this property.
    """
    served = 0
    while True:
        boundary = memory._next_epoch_ns
        next_time: float | None = None
        for bank, (times, rows) in enumerate(streams):
            i = cursors[bank]
            if i >= len(times):
                continue
            j = i + int(np.searchsorted(times[i:], boundary, side="left"))
            if until_ns is not None and until_ns < boundary:
                j = min(
                    j,
                    i + int(np.searchsorted(times[i:], until_ns, side="left")),
                )
            if max_accesses is not None:
                j = min(j, i + (max_accesses - served))
            if j > i:
                _run_bank_segment(memory, bank, times[i:j], rows[i:j])
                cursors[bank] = j
                served += j - i
            if j < len(times) and (next_time is None or times[j] < next_time):
                next_time = float(times[j])
        if next_time is None:
            return served
        if max_accesses is not None and served >= max_accesses:
            return served
        if until_ns is not None and next_time >= until_ns:
            return served
        # The next pending access lies beyond the epoch boundary; cross
        # it exactly as serving that access would.
        memory._advance_epochs(next_time)


def _run_bank_segment(
    memory: MemorySystem,
    bank: int,
    times: np.ndarray,
    rows: np.ndarray,
) -> None:
    """Process one bank's accesses of one epoch segment."""
    bank_state = memory.banks[bank]
    scheme = memory.schemes[bank]
    events = [] if scheme is None else scheme.access_batch(rows)
    prev = 0
    for position, commands in events:
        bank_state.serve_accesses_batch(times[prev:position])
        done = bank_state.serve_access(float(times[position]))
        for cmd in commands:
            memory.apply_refresh(bank_state, done, cmd, bank=bank)
        prev = position + 1
    bank_state.serve_accesses_batch(times[prev:])
    memory.last_completion_ns = max(
        memory.last_completion_ns, bank_state.free_at_ns
    )
