"""PRCAT — Periodically Reset Counter-based Adaptive Tree (Section V-A).

PRCAT wraps a :class:`~repro.core.counter_tree.CounterTree` and rebuilds
it from the pre-split shape at every auto-refresh epoch (64 ms).  Within
an epoch the tree grows adaptively: hot regions split down to small
groups, cold regions stay coarse, and refresh commands cover only the
small group (plus two adjacent rows) around a detected aggressor.
"""

from __future__ import annotations

from repro.core.base import MitigationScheme, RefreshCommand
from repro.core.counter_tree import CounterTree
from repro.core.thresholds import SplitThresholds


class PRCATScheme(MitigationScheme):
    """CAT with periodic reset at each auto-refresh interval boundary."""

    name = "prcat"

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
        self.tree = CounterTree(n_rows, self.schedule, track_weights=False)
        self.n_counters = n_counters
        self.max_levels = max_levels

    def access(self, row: int) -> list[RefreshCommand]:
        """Feed the activation to the tree; pass through any refresh."""
        self._check_row(row)
        self.stats.activations += 1
        cmd = self.tree.access(row)
        if cmd is None:
            return []
        self.stats.refresh_commands += 1
        self.stats.rows_refreshed += cmd.row_count(self.n_rows)
        return [cmd]

    def on_interval_boundary(self) -> None:
        """Rebuild the tree from scratch (the defining PRCAT behaviour)."""
        self.tree.reset()
        self.stats.resets += 1

    def to_state(self) -> dict:
        """SchemeState protocol: the tree plus scheme-level stats."""
        return {
            "scheme": self.name,
            "tree": self.tree.to_state(),
            "stats": self.stats.snapshot(),
        }

    def restore_state(self, state: dict) -> None:
        """SchemeState protocol: overwrite tree registers + stats."""
        self.tree.restore_state(state["tree"])
        self.stats.restore(state["stats"])

    @property
    def counters_in_use(self) -> int:
        """Currently active leaf counters of the tree."""
        return self.tree.active_counters

    def describe(self) -> str:
        """One-line configuration summary."""
        return (
            f"PRCAT_{self.n_counters}(n_rows={self.n_rows}, "
            f"T={self.refresh_threshold}, L={self.max_levels}, "
            f"thresholds={self.schedule.strategy})"
        )
