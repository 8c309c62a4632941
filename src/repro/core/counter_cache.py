"""The counter-cache comparator of Kim et al. [26] (CAL 2015).

The paper's main deterministic point of comparison stores one activation
counter *per row* in a reserved region of DRAM and keeps a set-
associative on-chip **counter cache** in the memory controller.  Every
activation looks its row's counter up in the cache; a miss fetches the
counter from the reserved DRAM region (a real DRAM access) and evicts
the LRU way (writing a dirty counter back).  When a row's counter
reaches the refresh threshold, the two physically adjacent victim rows
are refreshed and the counter resets.

Sections III-B and VII-A of the CAT paper argue this design is
conservative: the cache needs thousands of entries per bank to avoid
thrashing, its storage dwarfs SCA_128/CAT_64, and misses add DRAM
traffic.  Implementing it makes that comparison executable: the scheme
plugs into the same simulator, and its stats expose hit rates and the
extra DRAM accesses the CAT schemes avoid by construction.

:meth:`CounterCacheScheme.access` is the only algorithm.  The batched
engine's compiled kernel (``sim/kernel.c``) repeats it statement by
statement on :meth:`~CounterCacheScheme.registers` and on the backing
store in place, and hands the registers back at segment boundaries.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import MitigationScheme, RefreshCommand, checked_register

#: Energy of one counter-line fetch or write-back to the reserved DRAM
#: region (nJ).  A counter line is one 64-byte column burst — far
#: cheaper than a row refresh but not free; the value follows the
#: activate + read energy scale of the paper's 55 nm device model.
COUNTER_MEMORY_ACCESS_NJ = 5.0

#: Two-byte counters per 64-byte cache line: misses fetch whole lines,
#: so sequential row traffic enjoys spatial locality exactly as in the
#: DRAM-backed design of [26].
COUNTERS_PER_LINE = 32


class CounterCacheScheme(MitigationScheme):
    """Per-row counters in DRAM + set-associative on-chip counter cache.

    Parameters
    ----------
    n_rows, refresh_threshold:
        As for every scheme.
    n_sets, n_ways:
        Cache geometry in *lines* of ``COUNTERS_PER_LINE`` counters;
        capacity is ``n_sets * n_ways`` lines.  The paper's reference
        point is a 32KB cache ≈ 2048 two-byte counters per bank
        (``n_sets=8, n_ways=8`` lines of 32 counters).
    """

    name = "ccache"

    def __init__(
        self,
        n_rows: int,
        refresh_threshold: int,
        n_sets: int = 8,
        n_ways: int = 8,
    ) -> None:
        super().__init__(n_rows, refresh_threshold)
        if n_sets <= 0 or n_ways <= 0:
            raise ValueError("n_sets and n_ways must be positive")
        self.n_sets = n_sets
        self.n_ways = n_ways
        # Backing store: the per-row counters in DRAM.  Exact for every
        # line not in the cache; a cached line's rows may be stale.
        self._memory_counters = np.zeros(n_rows, dtype=np.int64)
        # Cache: per set, an LRU-ordered list of (line_tag, counts) with
        # counts covering COUNTERS_PER_LINE consecutive rows; index 0 is
        # most recently used.
        self._sets: list[list[tuple[int, list[int]]]] = [
            [] for _ in range(n_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    @property
    def capacity(self) -> int:
        """Total counters the cache can hold."""
        return self.n_sets * self.n_ways * COUNTERS_PER_LINE

    def access(self, row: int) -> list[RefreshCommand]:
        """Count the activation through the cache; refresh on threshold."""
        self._check_row(row)
        self.stats.activations += 1
        count = self._lookup_increment(row)
        if count < self.refresh_threshold:
            return []
        self._store(row, 0)
        commands = self._neighbour_commands(row)
        self.stats.refresh_commands += len(commands)
        self.stats.rows_refreshed += len(commands)
        return commands

    # -- cache mechanics -------------------------------------------------

    def _neighbour_commands(self, row: int) -> list[RefreshCommand]:
        """The in-range ``row±1`` refreshes a threshold crossing emits."""
        commands = []
        if row - 1 >= 0:
            commands.append(RefreshCommand(row - 1, row - 1))
        if row + 1 < self.n_rows:
            commands.append(RefreshCommand(row + 1, row + 1))
        return commands

    def _line_of(self, row: int) -> int:
        return row // COUNTERS_PER_LINE

    def _set_of(self, line: int) -> list[tuple[int, list[int]]]:
        return self._sets[line % self.n_sets]

    def _lookup_increment(self, row: int) -> int:
        """Return the row's incremented count, filling on miss."""
        line = self._line_of(row)
        offset = row - line * COUNTERS_PER_LINE
        ways = self._set_of(line)
        for i, (tag, counts) in enumerate(ways):
            if tag == line:
                self.hits += 1
                counts[offset] += 1
                if i:
                    ways.insert(0, ways.pop(i))
                return counts[offset]
        # Miss: fetch the whole counter line from the reserved region.
        self.misses += 1
        base = line * COUNTERS_PER_LINE
        counts = self._memory_counters[base : base + COUNTERS_PER_LINE].tolist()
        counts += [0] * (COUNTERS_PER_LINE - len(counts))
        counts[offset] += 1
        if len(ways) >= self.n_ways:
            victim_line, victim_counts = ways.pop()
            vbase = victim_line * COUNTERS_PER_LINE
            self._memory_counters[vbase : vbase + len(victim_counts)] = (
                victim_counts[: self.n_rows - vbase]
            )
            self.writebacks += 1
        ways.insert(0, (line, counts))
        return counts[offset]

    def _store(self, row: int, count: int) -> None:
        """Overwrite the row's count (cache and backing store)."""
        line = self._line_of(row)
        offset = row - line * COUNTERS_PER_LINE
        for tag, counts in self._set_of(line):
            if tag == line:
                counts[offset] = count
                break
        self._memory_counters[row] = count

    # -- kernel registers --------------------------------------------------

    def registers(self) -> np.ndarray:
        """The cache as one flat int64 array, the layout the compiled
        kernel (``sim/kernel.c``) serves a bank segment on.

        The hit, miss and write-back totals and each set's way count
        precede ``n_ways`` ways per set, each a tag followed by its
        line's ``COUNTERS_PER_LINE`` counts, most recently used first
        and zero-padded.  The backing store crosses as it is.
        """
        stride = 1 + COUNTERS_PER_LINE
        regs = np.zeros(3 + self.n_sets * (1 + self.n_ways * stride), dtype=np.int64)
        regs[:3] = self.hits, self.misses, self.writebacks
        regs[3 : 3 + self.n_sets] = [len(ways) for ways in self._sets]
        body = regs[3 + self.n_sets :].reshape(self.n_sets, self.n_ways, stride)
        for index, ways in enumerate(self._sets):
            for way, (tag, counts) in enumerate(ways):
                body[index, way] = [tag, *counts]
        return regs

    def load_registers(self, regs: np.ndarray) -> None:
        """Adopt a :meth:`registers` array a kernel call updated."""
        self.hits, self.misses, self.writebacks = regs[:3].tolist()
        fill = regs[3 : 3 + self.n_sets].tolist()
        body = regs[3 + self.n_sets :].reshape(self.n_sets, self.n_ways, -1).tolist()
        self._sets = [
            [(way[0], way[1:]) for way in ways[:filled]] for ways, filled in zip(body, fill)
        ]

    # -- checkpointable state (SchemeState protocol; see repro.api) ------

    def to_state(self) -> dict:
        """Backing counters + LRU-ordered cache sets + hit/miss totals.

        The per-set way lists are stored most-recently-used first,
        exactly as :attr:`_sets` keeps them — eviction order is part of
        bit-identical resumption.  The (large, mostly zero) backing
        store is run-length compressed as (index, count) pairs.
        """
        rows = np.flatnonzero(self._memory_counters)
        return {
            "scheme": self.name,
            "memory_counters": [
                [i, c] for i, c in zip(rows.tolist(), self._memory_counters[rows].tolist())
            ],
            "sets": [
                [[tag, list(counts)] for tag, counts in ways]
                for ways in self._sets
            ],
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
            "stats": self.stats.snapshot(),
        }

    def restore_state(self, state: dict) -> None:
        """SchemeState protocol: overwrite cache + backing store.

        Raises ``ValueError`` naming the field when the state cannot come
        from a cache of this geometry: a ``memory_counters`` entry that
        is not a ``[row, count]`` pair, a row outside the bank, a count
        outside ``[0, T)``, ``sets`` that is not one list of ``[tag,
        counts]`` pairs per set, too many ways, a tag that is not an
        integer line of the bank, in the wrong set or cached twice, a
        count line of the wrong size or with a count that is not an
        integer in ``[0, T)``, or a hit, miss or write-back total that is
        not an integer in ``[0, 2^63)``.
        """
        threshold = self.refresh_threshold
        counters = np.zeros(self.n_rows, dtype=np.int64)
        for entry in state["memory_counters"]:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise ValueError(
                    f"ccache state field 'memory_counters': entry {entry!r} "
                    "is not a [row, count] pair"
                )
            row = checked_register("ccache", "memory_counters", entry[0], self.n_rows)
            counters[row] = checked_register("ccache", "memory_counters", entry[1], threshold)
        seq = (list, tuple)
        raw_sets = state["sets"]
        if not isinstance(raw_sets, seq) or len(raw_sets) != self.n_sets:
            raise ValueError(
                f"ccache state field 'sets': {raw_sets!r} is not a list of "
                f"{self.n_sets} sets"
            )
        n_lines = -(-self.n_rows // COUNTERS_PER_LINE)
        sets = []
        for index, ways in enumerate(raw_sets):
            if not isinstance(ways, seq) or not all(
                isinstance(way, seq) and len(way) == 2
                and isinstance(way[1], seq) for way in ways
            ):
                raise ValueError(
                    f"ccache state field 'sets': set {index} is not a list "
                    f"of [tag, counts] pairs: {ways!r}"
                )
            tags = [checked_register("ccache", "sets", tag, n_lines)
                    for tag, _ in ways]
            if len(ways) > self.n_ways or len(set(tags)) < len(tags):
                raise ValueError(
                    f"ccache state field 'sets': set {index} holds tags {tags}, "
                    f"at most {self.n_ways} distinct"
                )
            for tag, (_, counts) in zip(tags, ways):
                if tag % self.n_sets != index:
                    raise ValueError(
                        f"ccache state field 'sets': tag {tag} does not belong "
                        f"in set {index} of a {n_lines}-line bank"
                    )
                if len(counts) != COUNTERS_PER_LINE:
                    raise ValueError(
                        f"ccache state field 'sets': line {tag} needs "
                        f"{COUNTERS_PER_LINE} counts in [0, {threshold}), "
                        f"got {counts}"
                    )
            sets.append([
                (tag, [checked_register("ccache", "sets", c, threshold)
                       for c in counts])
                for tag, (_, counts) in zip(tags, ways)
            ])
        totals = [
            checked_register("ccache", name, state[name])
            for name in ("hits", "misses", "writebacks")
        ]
        self._memory_counters = counters
        self._sets = sets
        self.hits, self.misses, self.writebacks = totals
        self.stats.restore(state["stats"])

    # -- epoch / introspection -------------------------------------------

    def on_interval_boundary(self) -> None:
        """Blanket refresh clears all pressure: reset every counter."""
        self._memory_counters.fill(0)
        for ways in self._sets:
            ways.clear()
        self.stats.resets += 1

    @property
    def counters_in_use(self) -> int:
        """Counters the scheme occupies (the full cache capacity)."""
        return self.capacity

    @property
    def hit_rate(self) -> float:
        """Fraction of activations served without a DRAM counter fetch."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def miss_energy_nj(self) -> float:
        """Extra DRAM energy spent on counter fetches and write-backs."""
        return (self.misses + self.writebacks) * COUNTER_MEMORY_ACCESS_NJ

    def describe(self) -> str:
        """One-line configuration summary."""
        return (
            f"CounterCache(n_rows={self.n_rows}, T={self.refresh_threshold}, "
            f"{self.n_sets}x{self.n_ways} lines = {self.capacity} counters)"
        )
