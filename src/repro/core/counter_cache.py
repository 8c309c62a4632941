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

import numpy as np

from repro.core.base import MitigationScheme, RefreshCommand
from repro.core.batch import check_rows, threshold_crossings

#: Energy of one counter-line fetch or write-back to the reserved DRAM
#: region (nJ).  A counter line is one 64-byte column burst — far
#: cheaper than a row refresh but not free; the value follows the
#: activate + read energy scale of the paper's 55 nm device model.
COUNTER_MEMORY_ACCESS_NJ = 5.0

#: Two-byte counters per 64-byte cache line: misses fetch whole lines,
#: so sequential row traffic enjoys spatial locality exactly as in the
#: DRAM-backed design of [26].
COUNTERS_PER_LINE = 32


def _slots(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each query in the (unsorted, distinct) ``keys``, and
    whether it is there at all."""
    order = np.argsort(keys)
    slot = order[np.minimum(np.searchsorted(keys, queries, sorter=order), len(keys) - 1)]
    return slot, keys[slot] == queries


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

    def access_batch(
        self, rows: np.ndarray
    ) -> list[tuple[int, list[RefreshCommand]]]:
        """Exact batch: closed-form refresh events plus one LRU pass.

        The cache never changes a count: a miss fetches the exact count,
        an eviction writes it back and a refresh writes 0 to both.  So
        every touched row is an independent counter whose events follow
        :func:`~repro.core.batch.threshold_crossings`, and the LRU only
        decides hits, misses, write-backs and what the registers hold
        (DESIGN.md, "Batched engine").
        """
        n = len(rows)
        if n == 0:
            return []
        check_rows(rows, self.n_rows)
        per_line = COUNTERS_PER_LINE
        memory = self._memory_counters
        touched, ids, hits = np.unique(rows, return_inverse=True, return_counts=True)
        touched_lines = touched // per_line
        # Start counts: the store, except for rows of cached lines, the
        # only ones whose store value can be stale.
        cached = {tag: counts for ways in self._sets for tag, counts in ways}
        start = memory[touched]
        if cached:
            slot, hit = _slots(np.fromiter(cached, np.int64, len(cached)), touched_lines)
            values = np.array(list(cached.values()), dtype=np.int64)
            start[hit] = values[slot[hit], touched[hit] % per_line]
        end, fired = threshold_crossings(ids, start, hits, self.refresh_threshold)
        events: list[tuple[int, list[RefreshCommand]]] = []
        last_refresh = np.full(len(touched), -1, dtype=np.int64)
        for u, positions in fired:
            last_refresh[u] = positions[-1]
            commands = self._neighbour_commands(int(touched[u]))
            if commands:
                self.stats.refresh_commands += len(commands) * len(positions)
                self.stats.rows_refreshed += len(commands) * len(positions)
                events.extend((p, list(commands)) for p in positions.tolist())
        events.sort(key=lambda event: event[0])
        tags, evicted = self._replay_lru(rows // per_line)

        # Backing store.  An evicted line holds its counts as of its last
        # eviction (untouched rows: their start counts), unless a refresh
        # came later and left 0; a line never evicted changes only where
        # a refresh wrote 0.
        last_evict = np.full(len(touched), -1, dtype=np.int64)
        if evicted:
            for line in evicted.keys() & cached.keys():
                base = line * per_line
                memory[base : base + per_line] = cached[line][: self.n_rows - base]
            slot, hit = _slots(np.fromiter(evicted, np.int64, len(evicted)), touched_lines)
            last_evict[hit] = np.fromiter(evicted.values(), np.int64, len(evicted))[slot[hit]]
            before = np.bincount(ids[np.arange(n) < last_evict[ids]], minlength=len(touched))
            written = last_evict > last_refresh
            memory[touched[written]] = (start + before)[written] % self.refresh_threshold
        memory[touched[last_refresh > last_evict]] = 0

        # Cache: every line held at the end carries its end counts.
        lines = [line for ways in tags for line in ways]
        bases = np.array(lines, dtype=np.int64) * per_line
        bounds = np.searchsorted(touched, bases).tolist()
        ends = np.searchsorted(touched, bases + per_line).tolist()
        touched_rows, end_counts = touched.tolist(), end.tolist()
        counts_of = {}
        for line, lo, hi in zip(lines, bounds, ends):
            base = line * per_line
            if line in cached and line not in evicted:
                counts = cached[line]
            else:
                counts = memory[base : base + per_line].tolist()
                counts += [0] * (per_line - len(counts))
            for j in range(lo, hi):
                counts[touched_rows[j] - base] = end_counts[j]
            counts_of[line] = counts
        self._sets = [[(line, counts_of[line]) for line in ways] for ways in tags]
        self.stats.activations += n
        return events

    # -- cache mechanics -------------------------------------------------

    def _neighbour_commands(self, row: int) -> list[RefreshCommand]:
        """The in-range ``row±1`` refreshes a threshold crossing emits."""
        commands = []
        if row - 1 >= 0:
            commands.append(RefreshCommand(row - 1, row - 1))
        if row + 1 < self.n_rows:
            commands.append(RefreshCommand(row + 1, row + 1))
        return commands

    def _replay_lru(self, lines: np.ndarray) -> tuple[list[list[int]], dict[int, int]]:
        """Run one batch's line references through the LRU, tags only.

        Updates the hit/miss/write-back totals and returns the final
        per-set tag lists (MRU first) with the last eviction position
        of every line evicted in the batch.
        """
        n_sets, n_ways = self.n_sets, self.n_ways
        order = np.argsort(lines % n_sets, kind="stable")
        lines = lines[order]
        # Within a set, a repeat of the MRU line is a hit that changes
        # nothing; the loop sees only the references that may.
        keep = np.ones(len(lines), dtype=bool)
        keep[1:] = lines[1:] != lines[:-1]
        tags = [[tag for tag, _ in ways] for ways in self._sets]
        filled = sum(map(len, tags))
        evicted: dict[int, int] = {}
        evictions = 0
        for position, line in zip(order[keep].tolist(), lines[keep].tolist()):
            ways = tags[line % n_sets]
            if line in ways:
                ways.remove(line)
            elif len(ways) == n_ways:
                evicted[ways.pop()] = position
                evictions += 1
            ways.insert(0, line)
        misses = evictions + sum(map(len, tags)) - filled
        self.hits += len(lines) - misses
        self.misses += misses
        self.writebacks += evictions
        return tags, evicted

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
        from a cache of this geometry: a row outside the bank, a count
        outside ``[0, T)``, too many ways, a tag outside the bank, in
        the wrong set or cached twice, or a count line of the wrong size.
        """
        threshold = self.refresh_threshold
        counters = np.zeros(self.n_rows, dtype=np.int64)
        for entry in state["memory_counters"]:
            i, c = (int(v) for v in entry)
            if not (0 <= i < self.n_rows and 0 <= c < threshold):
                raise ValueError(
                    f"ccache state field 'memory_counters': entry {[i, c]} needs a row "
                    f"in [0, {self.n_rows}) and a count in [0, {threshold})"
                )
            counters[i] = c
        sets = [
            [(int(tag), [int(c) for c in counts]) for tag, counts in ways]
            for ways in state["sets"]
        ]
        if len(sets) != self.n_sets:
            raise ValueError(
                f"ccache state field 'sets': state carries {len(sets)} sets, "
                f"cache has {self.n_sets}"
            )
        n_lines = -(-self.n_rows // COUNTERS_PER_LINE)
        for index, ways in enumerate(sets):
            tags = [tag for tag, _ in ways]
            if len(ways) > self.n_ways or len(set(tags)) < len(tags):
                raise ValueError(
                    f"ccache state field 'sets': set {index} holds tags {tags}, "
                    f"at most {self.n_ways} distinct"
                )
            for tag, counts in ways:
                if not 0 <= tag < n_lines or tag % self.n_sets != index:
                    raise ValueError(
                        f"ccache state field 'sets': tag {tag} does not belong "
                        f"in set {index} of a {n_lines}-line bank"
                    )
                if len(counts) != COUNTERS_PER_LINE or not all(
                    0 <= c < threshold for c in counts
                ):
                    raise ValueError(
                        f"ccache state field 'sets': line {tag} needs "
                        f"{COUNTERS_PER_LINE} counts in [0, {threshold}), "
                        f"got {counts}"
                    )
        self._memory_counters = counters
        self._sets = sets
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])
        self.writebacks = int(state["writebacks"])
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
