"""DRCAT — Dynamically Reconfigured CAT (Section V-B).

DRCAT keeps the adaptive tree alive across refresh intervals and instead
*reconfigures* it as the access pattern drifts: a 2-bit weight register
per counter tracks how often each counter reaches the refresh threshold.
When a counter's weight saturates, DRCAT merges a pair of zero-weight
(cold) sibling leaf counters — freeing one counter and one intermediate
node — and uses the freed counter to split the hot leaf, sharpening
resolution exactly where refreshes concentrate.

Compared to PRCAT this avoids both shortcomings of periodic reset: no
loss of recent access history at epoch boundaries, and no rebuild cost
when the pattern has not changed.
"""

from __future__ import annotations

from repro.core.base import MitigationScheme, RefreshCommand
from repro.core.counter_tree import CounterTree
from repro.core.thresholds import SplitThresholds


class DRCATScheme(MitigationScheme):
    """CAT with weight-driven merge/split reconfiguration."""

    name = "drcat"

    def __init__(
        self,
        n_rows: int,
        refresh_threshold: int,
        n_counters: int,
        max_levels: int,
        threshold_strategy: str = "auto",
        presplit_levels: int | None = None,
    ) -> None:
        super().__init__(n_rows, refresh_threshold)
        self.schedule = SplitThresholds.create(
            refresh_threshold,
            n_counters,
            max_levels,
            strategy=threshold_strategy,
            presplit_levels=presplit_levels,
        )
        self.tree = CounterTree(n_rows, self.schedule, track_weights=True)
        self.n_counters = n_counters
        self.max_levels = max_levels
        #: number of weight-triggered reconfigurations performed
        self.reconfigurations = 0

    def access(self, row: int) -> list[RefreshCommand]:
        """Feed the activation; on refresh, maybe reconfigure the tree.

        The tree updates weight registers as part of the refresh event;
        if the refreshed counter's weight just saturated, the scheme
        attempts the merge-cold/split-hot step.  Counter state survives
        interval boundaries (unlike PRCAT).
        """
        self._check_row(row)
        self.stats.activations += 1
        cmd = self.tree.access(row)
        if cmd is None:
            return []
        self.stats.refresh_commands += 1
        self.stats.rows_refreshed += cmd.row_count(self.n_rows)
        hot = self.tree.lookup(row)
        if self.tree.weight_saturated(hot):
            # Cascade: once the weight saturates, sharpen resolution
            # around the hammered row all the way down (one merge+split
            # per level), rather than paying one more coarse refresh per
            # level.  Stops when cold sibling pairs run out or the leaf
            # reaches maximum depth.
            for _ in range(self.max_levels):
                if not self.tree.reconfigure(hot):
                    break
                self.reconfigurations += 1
                self.stats.splits += 1
                self.stats.merges += 1
                hot = self.tree.lookup(row)
        return [cmd]

    def on_interval_boundary(self) -> None:
        """Auto-refresh epoch: counters restart but the *shape* persists.

        All rows were just refreshed, so accumulated aggressor pressure is
        gone and counts reset; the learned tree structure is the state
        DRCAT deliberately carries across epochs.  Weights decay one step
        so regions that stopped being hot become merge candidates again.
        """
        tree = self.tree
        tree._count.fill(0)
        tree._weight -= tree._weight > 0
        tree._harvest_blocked.fill(False)
        self.stats.resets += 1

    def to_state(self) -> dict:
        """SchemeState protocol: tree registers, stats, reconfig count."""
        return {
            "scheme": self.name,
            "tree": self.tree.to_state(),
            "stats": self.stats.snapshot(),
            "reconfigurations": self.reconfigurations,
        }

    def restore_state(self, state: dict) -> None:
        """SchemeState protocol: overwrite tree + stats + reconfig count."""
        self.tree.restore_state(state["tree"])
        self.stats.restore(state["stats"])
        self.reconfigurations = int(state["reconfigurations"])

    @property
    def counters_in_use(self) -> int:
        """Currently active leaf counters of the tree."""
        return self.tree.active_counters

    def describe(self) -> str:
        """One-line configuration summary."""
        return (
            f"DRCAT_{self.n_counters}(n_rows={self.n_rows}, "
            f"T={self.refresh_threshold}, L={self.max_levels}, "
            f"thresholds={self.schedule.strategy})"
        )
