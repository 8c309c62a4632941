"""The Counter-based Adaptive Tree (CAT) data structure.

This module implements Algorithm 1 of the paper together with the
SRAM-oriented layout of Figure 5: an array ``I`` of intermediate nodes
(two child pointers plus two leaf flags each), an array ``C`` of counters,
and — for DRCAT — an array ``W`` of 2-bit weight registers.

A CAT guards the ``N`` rows of one DRAM bank.  Leaves are *active
counters*, each owning a contiguous, power-of-two-aligned range of rows.
When a counter at tree level ``l`` reaches the split threshold ``T_l`` it
splits: a free counter is activated as a clone and the range halves.  When
a counter reaches the refresh threshold ``T`` (always the effective
threshold at the maximum level, or everywhere once the counter pool is
exhausted) the tree emits a refresh command for its range plus the two
adjacent rows, and the counter resets.

DRCAT reconfiguration (Section V-B) is implemented by
:meth:`CounterTree.reconfigure`: when a counter's weight saturates, two
zero-weight sibling leaves are merged (releasing one counter and one
intermediate node) and the released counter splits the hot leaf.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import RefreshCommand, checked_register
from repro.core.thresholds import SplitThresholds

#: Weight register saturation limit (2-bit registers in the paper).
WEIGHT_MAX = 3
#: Weight assigned to freshly split counters during reconfiguration, so
#: they "remain split for a reasonable period of time".
WEIGHT_AFTER_SPLIT = 1
#: Harvest tokens granted per refresh event (and their cap).  Bounds how
#: many merge+split reconfigurations can happen between refreshes, so
#: background split requests cannot thrash the tree.  Sized to let one
#: new hot cluster descend from the pre-split level to maximum depth
#: (plus background noise) between two refresh events.
HARVEST_BUDGET_PER_REFRESH = 32

_NO_NODE = -1

#: Register arrays of a tree state document, one entry per counter ...
_COUNTER_FIELDS = (
    "count", "level", "low", "high", "weight", "counter_active", "harvest_blocked",
)
#: ... and one entry per intermediate node.
_INODE_FIELDS = ("child_l", "child_r", "leaf_l", "leaf_r", "inode_active")


class CounterTree:
    """An adaptive binary tree of row-activation counters for one bank.

    Parameters
    ----------
    n_rows:
        Number of rows ``N`` in the bank; must be a power of two.
    thresholds:
        The :class:`~repro.core.thresholds.SplitThresholds` schedule,
        which also fixes ``M`` (counters) and ``L`` (max levels).
    track_weights:
        Enable the 2-bit weight registers used by DRCAT.  PRCAT leaves
        this off, saving the (modelled) weight-update work.

    Notes
    -----
    The tree is stored exactly as in Figure 5: ``self._child_l/_r`` /
    ``self._leaf_l/_r`` mirror the I-array (index = intermediate node
    id, two slots per node) and ``self._count`` mirrors the C-array.  Row
    ranges per counter (``Li``/``Ui`` of Algorithm 1) are maintained
    redundantly for O(1) refresh-range emission and for invariant checks;
    hardware would derive them from the traversal path.

    ``_count``, ``_weight`` and ``_harvest_blocked`` are numpy arrays
    (int64, int64, bool), so epoch resets are vector ops; the structural
    registers the scalar :meth:`lookup` walks stay Python lists.  The
    batched engine serves the tree in the compiled kernel, on the flat
    copy :meth:`registers` makes and :meth:`load_registers` adopts.  The
    sibling-leaf pairs are dropped by every structural change and
    rebuilt on demand.
    """

    def __init__(
        self,
        n_rows: int,
        thresholds: SplitThresholds,
        track_weights: bool = False,
    ) -> None:
        if n_rows < 2 or n_rows & (n_rows - 1):
            raise ValueError(f"n_rows must be a power of two >= 2, got {n_rows}")
        m = thresholds.n_counters
        if 1 << (thresholds.max_levels - 1) > n_rows:
            raise ValueError(
                f"max_levels={thresholds.max_levels} implies groups smaller than "
                f"one row for n_rows={n_rows}"
            )
        self.n_rows = n_rows
        self.thresholds = thresholds
        self.n_counters = m
        self.max_levels = thresholds.max_levels
        self.track_weights = track_weights
        self._n_addr_bits = n_rows.bit_length() - 1

        # C-array and per-counter metadata.  The count and weight
        # registers (and the harvest-blocked flags below) are int64/bool
        # arrays, so epoch resets are vector ops; the structural
        # registers the scalar lookup walks stay lists.
        self._count = np.zeros(m, dtype=np.int64)
        self._level = [0] * m
        self._low = [0] * m
        self._high = [0] * m
        self._weight = np.zeros(m, dtype=np.int64)
        self._counter_active = [False] * m

        # I-array: children as (left, right) ids; leaf flags per slot.
        self._child_l = [_NO_NODE] * (m - 1)
        self._child_r = [_NO_NODE] * (m - 1)
        self._leaf_l = [False] * (m - 1)
        self._leaf_r = [False] * (m - 1)
        self._inode_active = [False] * (m - 1)

        self._free_counters: list[int] = []
        self._free_inodes: list[int] = []

        # Statistics of interest to the hardware model / ablations.
        self.total_splits = 0
        self.total_merges = 0
        self.total_refresh_commands = 0
        self.total_rows_refreshed = 0
        self.total_sram_reads = 0

        self.reset()

    # ------------------------------------------------------------------
    # construction / reset
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Rebuild the initial tree (used at PRCAT epochs).

        The initial shape is a complete balanced tree with
        ``thresholds.presplit_levels`` levels, i.e. ``2**(λ-1)`` active
        counters, matching Section IV-C's pre-split optimisation.  With
        λ = 1 this degenerates to the single root counter of Algorithm 1.
        """
        m = self.n_counters
        self._count.fill(0)
        self._weight.fill(0)
        for i in range(m):
            self._level[i] = 0
            self._low[i] = 0
            self._high[i] = 0
            self._counter_active[i] = False
        for j in range(m - 1):
            self._child_l[j] = _NO_NODE
            self._child_r[j] = _NO_NODE
            self._leaf_l[j] = False
            self._leaf_r[j] = False
            self._inode_active[j] = False

        lam = self.thresholds.presplit_levels
        n_leaves = 1 << (lam - 1)
        group = self.n_rows // n_leaves
        for i in range(n_leaves):
            self._counter_active[i] = True
            self._level[i] = lam - 1
            self._low[i] = i * group
            self._high[i] = (i + 1) * group - 1
        self._n_active = n_leaves
        self._free_counters = list(range(m - 1, n_leaves - 1, -1))

        n_inodes = n_leaves - 1
        # Heap-style complete tree: inode j has children 2j+1 / 2j+2 while
        # those are inodes, leaves at the bottom level map in order.
        for j in range(n_inodes):
            self._inode_active[j] = True
            left, right = 2 * j + 1, 2 * j + 2
            if left < n_inodes:
                self._child_l[j] = left
                self._leaf_l[j] = False
            else:
                self._child_l[j] = _heap_leaf_index(left, n_inodes)
                self._leaf_l[j] = True
            if right < n_inodes:
                self._child_r[j] = right
                self._leaf_r[j] = False
            else:
                self._child_r[j] = _heap_leaf_index(right, n_inodes)
                self._leaf_r[j] = True
        self._free_inodes = list(range(self.n_counters - 2, n_inodes - 1, -1))
        self._root_is_leaf = n_inodes == 0
        self._root = 0  # counter 0 if root_is_leaf else inode 0
        # Per-counter harvest-blocked flags: a failed harvest only parks
        # the *requesting* counter until the next refresh event, so a
        # permanently-over-threshold background counter cannot starve a
        # newly hot one of its harvest attempt.
        self._harvest_blocked = np.zeros(m, dtype=bool)
        self._harvest_budget = HARVEST_BUDGET_PER_REFRESH
        # The sibling-leaf pairs are built on demand and dropped by every
        # structural change.
        self._merge_pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # hot path
    # ------------------------------------------------------------------

    def lookup(self, row: int) -> int:
        """Return the index of the active counter covering ``row``."""
        if self._root_is_leaf:
            self.total_sram_reads += 1
            return self._root
        node = self._root
        shift = self._n_addr_bits - 1
        reads = 1
        while True:
            bit = (row >> shift) & 1
            shift -= 1
            if bit:
                nxt, is_leaf = self._child_r[node], self._leaf_r[node]
            else:
                nxt, is_leaf = self._child_l[node], self._leaf_l[node]
            reads += 1
            if is_leaf:
                self.total_sram_reads += reads
                return nxt
            node = nxt

    def access(self, row: int) -> RefreshCommand | None:
        """Record one activation of ``row`` (lines 4-12 of Algorithm 1).

        Returns a :class:`RefreshCommand` when the covering counter hits
        the refresh threshold ``T``, else ``None``.  Splitting (the RCM
        of Algorithm 1) happens transparently when a split threshold is
        hit and a counter is available.  With weight tracking enabled
        (DRCAT), an exhausted counter pool is replenished on demand by
        merging the coldest sibling-leaf pair — so the tree keeps
        adapting between refresh events instead of waiting for periodic
        reset (PRCAT) or weight saturation.
        """
        idx = self.lookup(row)
        count = self._count.item(idx) + 1
        if count >= self.thresholds.refresh_threshold:
            # Refresh the counter's rows plus both adjacent rows.
            self._count[idx] = 0
            cmd = RefreshCommand(self._low[idx] - 1, self._high[idx] + 1)
            self.total_refresh_commands += 1
            self.total_rows_refreshed += cmd.row_count(self.n_rows)
            if self.track_weights:
                self._harvest_blocked.fill(False)
                self._harvest_budget = HARVEST_BUDGET_PER_REFRESH
                self._bump_weight(idx)
            return cmd
        self._count[idx] = count
        level = self._level[idx]
        if (
            level < self.max_levels - 1
            and count >= self.thresholds.threshold_for_level(level)
        ):
            if self._free_counters:
                # Split threshold reached: activate a clone (RCM).
                self._split(idx, row)
            elif (
                self.track_weights
                and not self._harvest_blocked[idx]
                and self._harvest_budget > 0
            ):
                # DRCAT: free a counter by merging the coldest pair.  The
                # victim must carry less than half the requester's count:
                # under uniform access every sibling pair holds about half
                # the requester's count, so harvesting self-extinguishes
                # (CAT then behaves like SCA, as the paper requires),
                # while under skew/drift cold victims pass easily.  A
                # counter whose weight reached 2 was just refreshed
                # repeatedly — certified hot — so it gets the fully
                # permissive gate (any victim count below T is safe from
                # an immediate refresh) instead of its post-refresh
                # restart count, which would deadlock against stale
                # victim counts until the next blanket refresh.
                if self._weight[idx] >= 2:
                    gate = self.thresholds.refresh_threshold - 1
                else:
                    gate = max(1, count // 2)
                if self.reconfigure(idx, count_gate=gate):
                    self._harvest_budget -= 1
                else:
                    # No suitably cold pair for this counter right now;
                    # it stops trying until the next refresh event
                    # changes counts/weights.
                    self._harvest_blocked[idx] = True
        return None

    def _split(self, idx: int, row: int) -> int | None:
        """Split leaf ``idx``; ``row`` locates its parent slot.

        Returns the activated counter, which becomes ``idx``'s leaf
        sibling (``None`` when the pool is empty).
        """
        if not self._free_counters:
            # Guard: callers check the free list before splitting; an
            # empty pool here simply means nothing to do.
            return None
        new = self._free_counters.pop()
        self._n_active += 1
        low, high = self._low[idx], self._high[idx]
        mid = (low + high) // 2
        self._count[new] = self._count[idx]
        self._level[idx] += 1
        self._level[new] = self._level[idx]
        self._low[idx], self._high[idx] = low, mid
        self._low[new], self._high[new] = mid + 1, high
        self._counter_active[new] = True
        if self.track_weights:
            self._weight[new] = self._weight[idx]

        inode = self._free_inodes.pop()
        self._inode_active[inode] = True
        self._child_l[inode] = idx
        self._child_r[inode] = new
        self._leaf_l[inode] = True
        self._leaf_r[inode] = True
        self._replace_slot(row, old_leaf=idx, new_node=inode)
        self.total_splits += 1
        self._merge_pairs = None
        return new

    def _replace_slot(self, row: int, old_leaf: int, new_node: int) -> None:
        """Repoint the parent slot that held leaf ``old_leaf`` to an inode."""
        if self._root_is_leaf:
            self._root = new_node
            self._root_is_leaf = False
            return
        node = self._root
        shift = self._n_addr_bits - 1
        while True:
            bit = (row >> shift) & 1
            shift -= 1
            if bit:
                nxt, is_leaf = self._child_r[node], self._leaf_r[node]
                if is_leaf and nxt == old_leaf:
                    self._child_r[node] = new_node
                    self._leaf_r[node] = False
                    return
            else:
                nxt, is_leaf = self._child_l[node], self._leaf_l[node]
                if is_leaf and nxt == old_leaf:
                    self._child_l[node] = new_node
                    self._leaf_l[node] = False
                    return
            if is_leaf:
                raise RuntimeError("leaf mismatch during split repointing")
            node = nxt

    # ------------------------------------------------------------------
    # bulk queries (perfbench wraps these by name)
    # ------------------------------------------------------------------

    def map_rows_to_counters(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized lookup: the active counter index covering each row.

        Pure query — unlike :meth:`lookup` it does not touch the SRAM
        read statistic.  Every active counter owns a power-of-two-aligned
        range of at least ``n_rows >> (max_levels - 1)`` rows (a block),
        so a block -> counter map answers it.
        """
        shift = self._n_addr_bits - (self.max_levels - 1)
        index_map = np.empty(1 << (self.max_levels - 1), dtype=np.int64)
        for low, high, i in self.partition():
            index_map[low >> shift : (high >> shift) + 1] = i
        return index_map[rows >> shift]

    def apply_bulk_counts(self, counts: np.ndarray) -> None:
        """Apply per-counter hit counts that cross no threshold.

        Exact bulk equivalent of the corresponding scalar accesses: the
        counters advance by their hits and the SRAM read statistic grows
        by one traversal (``1 + level`` reads) per access.
        """
        self._count += counts
        self.total_sram_reads += int(counts @ (1 + np.asarray(self._level)))

    # ------------------------------------------------------------------
    # DRCAT weight tracking and reconfiguration
    # ------------------------------------------------------------------

    def _bump_weight(self, hot_idx: int) -> None:
        """Refresh-event weight update: hot counter up, all others down.

        A refresh from a counter *below* the maximum level is strong
        evidence the tree is mis-sharpened (a well-adapted tree refreshes
        hot rows from maximum-depth leaves), so it advances the weight by
        two steps; a max-depth refresh advances by one.  Other counters
        decay by one (floor 0).  Inactive counters hold weight 0 (a merge
        zeroes the counter it releases), so decaying every register is
        the same as decaying the active ones.
        """
        hot_step = 2 if self._level[hot_idx] < self.max_levels - 1 else 1
        weight = self._weight
        hot = min(WEIGHT_MAX, weight.item(hot_idx) + hot_step)
        weight -= weight > 0
        weight[hot_idx] = hot

    def weight_saturated(self, idx: int) -> bool:
        """True when counter ``idx``'s weight register is at its cap."""
        return self._weight.item(idx) >= WEIGHT_MAX

    def reconfigure(self, hot_idx: int, count_gate: int | None = None) -> bool:
        """DRCAT step: merge a cold sibling pair, re-split ``hot_idx``.

        ``count_gate`` caps the inherited count a merge victim may carry
        (defaults to ``T/2``); harvest callers pass the requester's own
        count so only strictly-colder pairs are sacrificed.

        Returns ``True`` when a reconfiguration happened (a suitable
        sibling-leaf pair existed and the hot leaf was splittable).
        """
        if not self._counter_active[hot_idx]:
            return False
        if self._level[hot_idx] >= self.max_levels - 1:
            return False
        if self._high[hot_idx] == self._low[hot_idx]:
            return False
        found = self._find_cold_pair(exclude=hot_idx, count_gate=count_gate)
        if found is None:
            return False
        inode, parent, parent_slot_right = found

        left = self._child_l[inode]
        right = self._child_r[inode]
        # Promote the left counter to cover the merged range; release the
        # right counter and the inode.  max() keeps detection sound: the
        # merged region can only be refreshed earlier, never later.
        self._count[left] = max(self._count[left], self._count[right])
        self._level[left] -= 1
        self._high[left] = self._high[right]
        self._counter_active[right] = False
        self._count[right] = 0
        self._weight[right] = 0
        self._free_counters.append(right)
        self._inode_active[inode] = False
        self._free_inodes.append(inode)
        if parent == _NO_NODE:
            self._root = left
            self._root_is_leaf = True
        elif parent_slot_right:
            self._child_r[parent] = left
            self._leaf_r[parent] = True
        else:
            self._child_l[parent] = left
            self._leaf_l[parent] = True
        self._n_active -= 1
        self.total_merges += 1
        self._merge_pairs = None

        # Split the hot counter with the freed resources.
        # The merge just freed a counter and an inode, so the split
        # happens and its new counter is the hot leaf's sibling.
        sibling = self._split(hot_idx, self._low[hot_idx])
        self._weight[hot_idx] = WEIGHT_AFTER_SPLIT
        self._weight[sibling] = WEIGHT_AFTER_SPLIT
        return True

    def _find_cold_pair(
        self, exclude: int, count_gate: int | None = None
    ) -> tuple[int, int, bool] | None:
        """Locate the *coldest* inode whose children are two weight-zero
        leaves.

        Zero weight alone is not enough: a pair can have weight 0 yet
        carry counts close to the refresh threshold, and merging it (with
        the sound ``max`` count inheritance) would soon refresh a
        double-sized region.  Among the zero-weight sibling pairs the one
        with the smallest merged count is selected, subject to
        ``count_gate`` (default ``T/2``).

        Returns ``(inode, parent_inode, parent_slot_is_right)`` with
        ``parent_inode == -1`` when the inode is the root.  ``exclude``
        (the hot counter) may not be one of the merged leaves.  Ties on
        the merged count break toward the lowest inode index, a total
        order independent of traversal history.
        """
        if self._root_is_leaf:
            return None
        # The inherited count must stay below the refresh threshold so a
        # merge can never trigger an immediate refresh; the min-count
        # preference below picks genuinely cold pairs first.  (A stricter
        # T/2 ceiling starves harvesting mid-epoch: regions that went
        # cold keep their stale counts until the next blanket refresh.)
        ceiling = self.thresholds.refresh_threshold - 1
        count_gate = ceiling if count_gate is None else min(ceiling, count_gate)
        inodes, left, right, merged_count = self._cold_pairs()
        eligible = (left != exclude) & (right != exclude) & (merged_count <= count_gate)
        chosen = eligible.nonzero()[0]
        if not len(chosen):
            return None
        # argmin returns the first minimum; inodes is ascending, so ties
        # resolve to the lowest inode index.
        inode = int(inodes[chosen[np.argmin(merged_count[chosen])]])
        parent, slot_right = self._parent_of_inode(inode)
        return (inode, parent, slot_right)

    def _sibling_leaf_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(inodes, left, right)`` of every mergeable sibling-leaf pair.

        An active inode qualifies when both children are leaves below
        the pre-split skeleton: merging lifts the surviving counter one
        level up, and lifting it above the skeleton (the balanced
        hardware baseline) would let a later refresh cover a larger
        group than even SCA's.  Inodes come out ascending.  Built on
        demand and kept until the next structural change.
        """
        if self._merge_pairs is None:
            presplit = self.thresholds.presplit_levels
            level = self._level
            pairs = [
                (j, left, right)
                for j, (active, leaf_l, leaf_r, left, right) in enumerate(zip(
                    self._inode_active, self._leaf_l, self._leaf_r,
                    self._child_l, self._child_r,
                ))
                if active and leaf_l and leaf_r and level[left] >= presplit
            ]
            inodes, left, right = np.array(pairs, dtype=np.int64).reshape(-1, 3).T
            self._merge_pairs = (inodes, left, right)
        return self._merge_pairs

    def _cold_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The merge candidates of a harvest, before its gate and exclusion.

        Returns ``(inodes, left, right, merged_count)`` for the sibling
        leaf pairs whose two weights are zero, inodes ascending.
        """
        inodes, left, right = self._sibling_leaf_pairs()
        weight = self._weight
        cold = (weight[left] == 0) & (weight[right] == 0)
        left, right = left[cold], right[cold]
        count = self._count
        return inodes[cold], left, right, np.maximum(count[left], count[right])

    def _parent_of_inode(self, inode: int) -> tuple[int, bool]:
        """Locate the parent slot pointing at ``inode`` (root: ``-1``)."""
        if self._root == inode:
            return _NO_NODE, False
        # Follow the address bits of any row the inode covers.
        row = self._low[self._child_l[inode]]
        node = self._root
        shift = self._n_addr_bits - 1
        while True:
            bit = (row >> shift) & 1
            shift -= 1
            nxt = self._child_r[node] if bit else self._child_l[node]
            if nxt == inode:
                return node, bool(bit)
            node = nxt

    # ------------------------------------------------------------------
    # checkpointable state (SchemeState protocol; see repro.api)
    # ------------------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serializable capture of every behaviour-bearing register.

        The free lists are stored *in order*: splits pop from their
        tails, so list order determines which physical counter/inode a
        future split activates — part of bit-identical resumption even
        though it is invisible to the partition.  The sibling-leaf pairs
        are deliberately absent: they rebuild on demand from the
        captured registers.
        """
        return {
            "count": self._count.tolist(),
            "level": list(self._level),
            "low": list(self._low),
            "high": list(self._high),
            "weight": self._weight.tolist(),
            "counter_active": [int(b) for b in self._counter_active],
            "child_l": list(self._child_l),
            "child_r": list(self._child_r),
            "leaf_l": [int(b) for b in self._leaf_l],
            "leaf_r": [int(b) for b in self._leaf_r],
            "inode_active": [int(b) for b in self._inode_active],
            "free_counters": list(self._free_counters),
            "free_inodes": list(self._free_inodes),
            "n_active": self._n_active,
            "root": self._root,
            "root_is_leaf": int(self._root_is_leaf),
            "harvest_blocked": self._harvest_blocked.astype(np.int64).tolist(),
            "harvest_budget": self._harvest_budget,
            "totals": {
                "splits": self.total_splits,
                "merges": self.total_merges,
                "refresh_commands": self.total_refresh_commands,
                "rows_refreshed": self.total_rows_refreshed,
                "sram_reads": self.total_sram_reads,
            },
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite a freshly built tree (same config) from a state doc.

        The tree must have been constructed with the same ``n_rows`` and
        thresholds schedule the state was captured under; after the call
        its future behaviour is bit-identical to the captured instance.

        Raises ``ValueError`` naming the field when no such tree can
        hold the state: a per-counter field without ``M`` entries or a
        per-inode field without ``M - 1``; a count outside ``[0, T)``, a
        weight outside ``[0, WEIGHT_MAX]`` or a level outside ``[0, L)``;
        an inactive counter with a count or weight; a harvest budget
        outside ``[0, HARVEST_BUDGET_PER_REFRESH]``; a free-list entry
        that is out of range, repeated or active; a total that is not an
        integer in ``[0, 2^63)``; or a structure that fails
        :meth:`check_invariants`.  The tree is unusable after a
        rejected state.
        """
        m = self.n_counters
        fields: dict[str, list[int]] = {}
        for names, n, unit in (
            (_COUNTER_FIELDS, m, "counters"),
            (_INODE_FIELDS, m - 1, "inodes"),
        ):
            for name in names:
                try:
                    values = [int(v) for v in state[name]]
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"tree state field {name!r}: {exc}") from None
                if len(values) != n:
                    raise ValueError(
                        f"tree state field {name!r} has {len(values)} "
                        f"entries, tree has {n} {unit}"
                    )
                fields[name] = values
        active = fields["counter_active"]
        for name, high in (
            ("count", self.thresholds.refresh_threshold),
            ("weight", WEIGHT_MAX + 1),
            ("level", self.max_levels),
        ):
            for i, value in enumerate(fields[name]):
                if not 0 <= value < high:
                    raise ValueError(
                        f"tree state field {name!r}: counter {i} holds {value}, "
                        f"outside [0, {high})"
                    )
                if value and name != "level" and not active[i]:
                    raise ValueError(
                        f"tree state field {name!r}: inactive counter {i} "
                        f"holds {value}"
                    )
        budget = int(state["harvest_budget"])
        if not 0 <= budget <= HARVEST_BUDGET_PER_REFRESH:
            raise ValueError(
                f"tree state field 'harvest_budget' is {budget}, outside "
                f"[0, {HARVEST_BUDGET_PER_REFRESH}]"
            )
        for name, flags in (
            ("free_counters", active),
            ("free_inodes", fields["inode_active"]),
        ):
            entries = [int(v) for v in state[name]]
            if len(set(entries)) < len(entries) or not all(
                0 <= v < len(flags) and not flags[v] for v in entries
            ):
                raise ValueError(
                    f"tree state field {name!r} is {entries}: entries must be "
                    f"distinct inactive indices in [0, {len(flags)})"
                )
            fields[name] = entries

        self._count = np.array(fields["count"], dtype=np.int64)
        self._level = fields["level"]
        self._low = fields["low"]
        self._high = fields["high"]
        self._weight = np.array(fields["weight"], dtype=np.int64)
        self._counter_active = [bool(v) for v in active]
        self._child_l = fields["child_l"]
        self._child_r = fields["child_r"]
        self._leaf_l = [bool(v) for v in fields["leaf_l"]]
        self._leaf_r = [bool(v) for v in fields["leaf_r"]]
        self._inode_active = [bool(v) for v in fields["inode_active"]]
        self._free_counters = fields["free_counters"]
        self._free_inodes = fields["free_inodes"]
        self._n_active = int(state["n_active"])
        self._root = int(state["root"])
        self._root_is_leaf = bool(state["root_is_leaf"])
        self._harvest_blocked = np.array(fields["harvest_blocked"], dtype=bool)
        self._harvest_budget = budget
        (self.total_splits, self.total_merges, self.total_refresh_commands,
         self.total_rows_refreshed, self.total_sram_reads) = (
            checked_register("tree", "totals", state["totals"][name])
            for name in ("splits", "merges", "refresh_commands", "rows_refreshed", "sram_reads")
        )
        self._merge_pairs = None
        try:
            self.check_invariants()
        except (AssertionError, IndexError) as exc:
            raise ValueError(f"tree state fails the tree invariants: {exc}") from None

    def registers(self) -> np.ndarray:
        """Every register as one flat int64 array, the layout the
        compiled kernel (``sim/kernel.c``) serves a bank segment on.

        A header of 12 scalars (both free-stack depths, the active
        count, root, root-is-leaf flag, harvest budget, the five totals
        and a cascade counter the kernel fills) precedes 14 arrays of
        ``M`` entries: level, low, high, both child pointers, the two
        free stacks (bottom first), the active flag, both leaf flags,
        the inode flag, count, weight and harvest flag.  Per-inode
        arrays and the stacks are zero-padded to ``M``.
        """
        m = self.n_counters
        free_c, free_i = self._free_counters, self._free_inodes
        return np.concatenate((
            np.array([
                len(free_c), len(free_i), self._n_active, self._root,
                self._root_is_leaf, self._harvest_budget, self.total_splits,
                self.total_merges, self.total_refresh_commands,
                self.total_rows_refreshed, self.total_sram_reads, 0,
                *self._level, *self._low, *self._high, *self._child_l, 0,
                *self._child_r, 0, *free_c, *[0] * (m - len(free_c)),
                *free_i, *[0] * (m - len(free_i)), *self._counter_active,
                *self._leaf_l, 0, *self._leaf_r, 0, *self._inode_active, 0,
            ], dtype=np.int64),
            self._count, self._weight, self._harvest_blocked,
        ))

    def load_registers(self, regs: np.ndarray) -> int:
        """Adopt a :meth:`registers` array a kernel call updated; returns
        its cascade counter."""
        (n_free_c, n_free_i, self._n_active, self._root, root_is_leaf,
         self._harvest_budget, self.total_splits, self.total_merges,
         self.total_refresh_commands, self.total_rows_refreshed,
         self.total_sram_reads, cascades) = regs[:12].tolist()
        body = regs[12:].reshape(14, self.n_counters)
        self._root_is_leaf = bool(root_is_leaf)
        (self._level, self._low, self._high, child_l, child_r, free_c,
         free_i) = body[:7].tolist()
        self._counter_active, leaf_l, leaf_r, inode_active = body[7:11].astype(bool).tolist()
        self._child_l, self._child_r = child_l[:-1], child_r[:-1]
        self._leaf_l, self._leaf_r = leaf_l[:-1], leaf_r[:-1]
        self._inode_active = inode_active[:-1]
        self._free_counters, self._free_inodes = free_c[:n_free_c], free_i[:n_free_i]
        self._count, self._weight = body[11].copy(), body[12].copy()
        self._harvest_blocked = body[13].astype(bool)
        self._merge_pairs = None
        return cascades

    # ------------------------------------------------------------------
    # introspection (tests, invariants, reports)
    # ------------------------------------------------------------------

    @property
    def active_counters(self) -> int:
        """Number of currently active (leaf) counters."""
        return self._n_active

    @property
    def free_counters(self) -> int:
        """Number of counters still available for splits."""
        return len(self._free_counters)

    def counter_state(self, idx: int) -> dict[str, int]:
        """Expose one counter's registers (for tests and examples)."""
        return {
            "count": self._count.item(idx),
            "level": self._level[idx],
            "low": self._low[idx],
            "high": self._high[idx],
            "weight": self._weight.item(idx),
            "active": int(self._counter_active[idx]),
        }

    def partition(self) -> list[tuple[int, int, int]]:
        """Sorted ``(low, high, counter_index)`` of all active counters."""
        parts = [
            (self._low[i], self._high[i], i)
            for i in range(self.n_counters)
            if self._counter_active[i]
        ]
        parts.sort()
        return parts

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on any structural violation.

        Checks DESIGN.md invariants 1 and 3: the active counters tile
        ``[0, N)`` exactly, counter/inode accounting is conserved, and the
        pointer structure reaches each active counter exactly once, at
        the row range its path from the root selects.
        """
        parts = self.partition()
        if not parts:
            raise AssertionError("no active counters")
        if parts[0][0] != 0:
            raise AssertionError(f"partition does not start at 0: {parts[0]}")
        for (lo1, hi1, _), (lo2, _hi2, _) in zip(parts, parts[1:]):
            if lo2 != hi1 + 1:
                raise AssertionError(f"gap/overlap between {hi1} and {lo2}")
        if parts[-1][1] != self.n_rows - 1:
            raise AssertionError(f"partition does not end at N-1: {parts[-1]}")
        if self._n_active + len(self._free_counters) != self.n_counters:
            raise AssertionError("counter conservation violated")
        # Walk the pointers with the row range each node's path selects.
        reached = {}
        seen_inodes = set()
        stack = [(self._root, self._root_is_leaf, 0, self.n_rows - 1)]
        while stack:
            node, is_leaf, low, high = stack.pop()
            if is_leaf:
                if node in reached:
                    raise AssertionError(f"leaf {node} reached twice")
                reached[node] = (low, high)
                continue
            if node in seen_inodes:
                raise AssertionError(f"inode {node} reached twice")
            seen_inodes.add(node)
            mid = (low + high) // 2
            stack.append((self._child_l[node], self._leaf_l[node], low, mid))
            stack.append((self._child_r[node], self._leaf_r[node], mid + 1, high))
        if len(seen_inodes) != self._n_active - 1:
            raise AssertionError(
                f"{len(seen_inodes)} inodes for {self._n_active} leaves"
            )
        active_inodes = {j for j in range(self.n_counters - 1) if self._inode_active[j]}
        if seen_inodes != active_inodes:
            raise AssertionError(f"reachable inodes {seen_inodes} != active {active_inodes}")
        if len(active_inodes) + len(self._free_inodes) != self.n_counters - 1:
            raise AssertionError("inode conservation violated")
        active = {i for i in range(self.n_counters) if self._counter_active[i]}
        if set(reached) != active:
            raise AssertionError(f"reachable {set(reached)} != active {active}")
        for lo, hi, i in parts:
            if reached[i] != (lo, hi):
                raise AssertionError(
                    f"counter {i} covers [{lo}, {hi}] but its path selects "
                    f"{list(reached[i])}"
                )
            width = hi - lo + 1
            expected = self.n_rows >> self._level[i]
            if width != expected:
                raise AssertionError(
                    f"counter {i} at level {self._level[i]} covers {width} rows, "
                    f"expected {expected}"
                )

    def depth_histogram(self) -> dict[int, int]:
        """Map level -> number of active counters at that level."""
        hist: dict[int, int] = {}
        for i in range(self.n_counters):
            if self._counter_active[i]:
                hist[self._level[i]] = hist.get(self._level[i], 0) + 1
        return hist

    def is_balanced(self) -> bool:
        """True when all active counters sit at one level (SCA-like)."""
        return len(self.depth_histogram()) == 1


def _heap_leaf_index(heap_pos: int, n_inodes: int) -> int:
    """Map a heap position in a complete tree to its in-order leaf rank.

    For a complete tree with ``n_inodes = 2**k - 1`` internal nodes the
    leaves occupy heap positions ``n_inodes .. 2*n_inodes``; position
    order equals left-to-right order, which is the counter index layout
    :meth:`CounterTree.reset` uses.
    """
    return heap_pos - n_inodes
