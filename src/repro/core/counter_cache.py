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
"""

from __future__ import annotations

from repro.core.base import MitigationScheme, RefreshCommand

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
        # Backing store: the authoritative per-row counters in DRAM.
        self._memory_counters = [0] * n_rows
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
        commands = []
        if row - 1 >= 0:
            commands.append(RefreshCommand(row - 1, row - 1))
        if row + 1 < self.n_rows:
            commands.append(RefreshCommand(row + 1, row + 1))
        self.stats.refresh_commands += len(commands)
        self.stats.rows_refreshed += len(commands)
        return commands

    # -- cache mechanics -------------------------------------------------

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
        counts = self._memory_counters[base : base + COUNTERS_PER_LINE]
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

    # -- checkpointable state (SchemeState protocol; see repro.api) ------

    def to_state(self) -> dict:
        """Backing counters + LRU-ordered cache sets + hit/miss totals.

        The per-set way lists are stored most-recently-used first,
        exactly as :attr:`_sets` keeps them — eviction order is part of
        bit-identical resumption.  The (large, mostly zero) backing
        store is run-length compressed as (index, count) pairs.
        """
        nonzero = [
            [i, c] for i, c in enumerate(self._memory_counters) if c
        ]
        return {
            "scheme": self.name,
            "memory_counters": nonzero,
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
        """SchemeState protocol: overwrite cache + backing store."""
        counters = [0] * self.n_rows
        for i, c in state["memory_counters"]:
            counters[int(i)] = int(c)
        self._memory_counters = counters
        sets = [
            [(int(tag), [int(c) for c in counts]) for tag, counts in ways]
            for ways in state["sets"]
        ]
        if len(sets) != self.n_sets:
            raise ValueError(
                f"state carries {len(sets)} sets, cache has {self.n_sets}"
            )
        self._sets = sets
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])
        self.writebacks = int(state["writebacks"])
        self.stats.restore(state["stats"])

    # -- epoch / introspection -------------------------------------------

    def on_interval_boundary(self) -> None:
        """Blanket refresh clears all pressure: reset every counter."""
        self._memory_counters = [0] * self.n_rows
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
