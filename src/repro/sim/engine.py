"""The two stream drivers: the scalar oracle and the batched engine.

Both drivers share one signature and one contract.  Each serves
per-bank ``(times, rows)`` activation streams from per-bank cursors
(mutated in place) into a
:class:`~repro.dram.memory_system.MemorySystem`, up to an optional
``until_ns`` / ``max_accesses`` limit, and returns the number served.
The session core (:mod:`repro.sim.session`) picks one by engine name
and is otherwise engine-independent.

* :func:`advance_scalar_streams` is the per-event reference loop:
  ``memory.access(t, b, r)`` for every access in merged time order.
* :func:`advance_batched_streams` produces the same refresh commands at
  the same stream positions, the same bank stall accounting and the
  same scheme statistics, one bank segment at a time.

Exactness of the batched driver rests on three facts (argued in
DESIGN.md, "Batched engine"):

1. **A segment is served by the oracle's own per-access steps.**  The
   five built-in schemes' segments run in one call of the compiled
   kernel (:mod:`repro.sim.kernel`), which repeats the oracle's
   operations in its order on flat registers.  A registrant, or any
   scheme on a host without a C compiler, is served per access through
   ``MitigationScheme.access_batch`` and ``BankState.serve_accesses_batch``.
2. **Banks only couple through epoch boundaries.**  Within one epoch
   segment each bank's (scheme, timing) evolution depends only on its
   own sub-stream, so banks process independently; the only global
   state, ``last_completion_ns``, is a running max and commutes.
3. **Quantized time makes float arithmetic exact.**  All arrival times
   are floored to the quarter-nanosecond grid (:data:`TIME_QUANTUM_NS`),
   on which every timing expression is exactly representable in
   float64, so the kernel's double operations, run in the oracle's
   order, round nowhere.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import RefreshCommand
from repro.dram.memory_system import MemorySystem
from repro.report.config import ENGINE_NAMES
from repro.sim.kernel import serve_segment

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


def merge_streams(
    per_bank: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge per-bank (times, rows) into sorted (times, banks, rows) arrays.

    Bank and row ids stay in integer dtypes throughout (no ``float64``
    round-trip), and one stable argsort on the time column preserves the
    per-bank ordering for tied timestamps.
    """
    if not per_bank:
        return (
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    times = np.concatenate([t for t, _ in per_bank])
    banks = np.concatenate(
        [np.full(len(rows), bank, dtype=np.int64)
         for bank, (_, rows) in enumerate(per_bank)]
    )
    rows = np.concatenate(
        [r.astype(np.int64, copy=False) for _, r in per_bank]
    )
    order = np.argsort(times, kind="stable")
    return times[order], banks[order], rows[order]


def advance_scalar_streams(
    memory: MemorySystem,
    streams: list[tuple[np.ndarray, np.ndarray]],
    cursors: list[int],
    *,
    until_ns: float | None = None,
    max_accesses: int | None = None,
) -> int:
    """Serve per-bank streams one access at a time: the reference oracle.

    Same contract as :func:`advance_batched_streams`.  Accesses go
    through :meth:`MemorySystem.access` in merged time order, ties
    broken by bank.  Only each bank's window is merged: at most
    ``max_accesses`` pending accesses, all arriving before ``until_ns``.
    A bank's cursor moves past an access only after it is served, so an
    epoch tap fired inside ``access`` still sees that access as pending.
    """
    windows = []
    for bank, (times, rows) in enumerate(streams):
        i = cursors[bank]
        j = len(times)
        if until_ns is not None:
            j = i + int(np.searchsorted(times[i:], until_ns, side="left"))
        if max_accesses is not None:
            j = min(j, i + max_accesses)
        windows.append((times[i:j], rows[i:j]))
    times, banks, rows = (a[:max_accesses] for a in merge_streams(windows))
    access = memory.access
    for t, bank, row in zip(times.tolist(), banks.tolist(), rows.tolist()):
        access(t, bank, row)
        cursors[bank] += 1
    return len(times)


def advance_batched_streams(
    memory: MemorySystem,
    streams: list[tuple[np.ndarray, np.ndarray]],
    cursors: list[int],
    *,
    until_ns: float | None = None,
    max_accesses: int | None = None,
) -> int:
    """Serve per-bank streams through the batched engine, re-entrantly.

    ``streams[bank]`` holds that bank's sorted (quarter-ns grid) arrival
    times and rows; the merged time order is never built, because it
    only ever mattered for epoch advancement.  Serves stream accesses
    starting from the per-bank ``cursors`` (mutated in place) until the
    streams are exhausted, until the next pending access would arrive
    at or after ``until_ns``, or until ``max_accesses`` accesses have
    been served — whichever comes first.  Returns the number of
    accesses served.

    Pausing and resuming at *any* cut leaves the final state
    bit-identical to an uninterrupted run: within one epoch segment the
    banks are independent (the only shared state, the running
    completion max and the aggregate totals, commutes), and an epoch
    boundary is only crossed here when the next access to be served
    lies beyond it — exactly when :func:`advance_scalar_streams` would
    cross it.  The session layer (:mod:`repro.api`) is built on this
    property.
    """
    served = 0
    while True:
        boundary = memory._next_epoch_ns
        next_time: float | None = None
        for bank, (times, rows) in enumerate(streams):
            i = cursors[bank]
            if i >= len(times):
                continue
            limit = boundary if until_ns is None else min(boundary, until_ns)
            # A stream's rest usually lies wholly before or after the
            # limit: reading its ends spares a binary search, whose
            # scattered reads of a memory-mapped trace-store stream each
            # cost a page fault.
            if times[-1] < limit:
                j = len(times)
            elif times[i] >= limit:
                j = i
            else:
                j = i + int(np.searchsorted(times[i:], limit, side="left"))
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
    served = None if scheme is None else serve_segment(bank_state, scheme, times, rows)
    if served is not None:
        # The kernel applied the bank and scheme side; the memory
        # system's totals and taps follow its events in stream order.
        events, done, reason = served
        memory.total_refresh_commands += events.shape[1]
        memory.total_rows_refreshed += int(events[3].sum())
        if memory.on_refresh is not None:
            for at, low, high, count in zip(done.tolist(), *events[1:].tolist()):
                memory.on_refresh(bank, at, RefreshCommand(low, high, reason), count)
    else:
        # A registrant, or no C compiler: the scheme and the bank per access.
        prev = 0
        for position, commands in [] if scheme is None else scheme.access_batch(rows):
            bank_state.serve_accesses_batch(times[prev:position + 1])
            done = bank_state.free_at_ns
            for cmd in commands:
                memory.apply_refresh(bank_state, done, cmd, bank=bank)
            prev = position + 1
        bank_state.serve_accesses_batch(times[prev:])
    memory.last_completion_ns = max(
        memory.last_completion_ns, bank_state.free_at_ns
    )
