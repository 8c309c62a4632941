"""Static Counter Assignment (SCA) — the deterministic baseline.

SCA_M partitions the ``N`` rows of a bank into ``M`` fixed, equal groups
and dedicates one ``log2(T)``-bit counter to each.  Every activation
increments the covering group's counter; when a counter reaches the
refresh threshold ``T`` it resets and the controller refreshes the
``N/M + 2`` rows of the group plus the two rows adjacent to the group
(Section III-B of the paper).

``M = N`` degenerates to the one-counter-per-row scheme, and small ``M``
shows the coarse-group refresh cost that motivates CAT.
"""

from __future__ import annotations

from repro.core.base import MitigationScheme, RefreshCommand, checked_register


class SCAScheme(MitigationScheme):
    """Uniform static partition of a bank into ``n_counters`` groups."""

    name = "sca"

    def __init__(self, n_rows: int, refresh_threshold: int, n_counters: int) -> None:
        super().__init__(n_rows, refresh_threshold)
        if n_counters <= 0:
            raise ValueError(f"n_counters must be positive, got {n_counters}")
        if n_rows % n_counters:
            raise ValueError(
                f"n_counters={n_counters} must divide n_rows={n_rows} for "
                "uniform groups"
            )
        self.n_counters = n_counters
        self.group_size = n_rows // n_counters
        self._counts = [0] * n_counters

    def access(self, row: int) -> list[RefreshCommand]:
        """Count the activation; emit a group refresh on threshold."""
        self._check_row(row)
        group = row // self.group_size
        count = self._counts[group] + 1
        if count < self.refresh_threshold:
            self._counts[group] = count
            return []
        self._counts[group] = 0
        low = group * self.group_size
        return [RefreshCommand(low - 1, low + self.group_size, reason="threshold")]

    def counter_value(self, group: int) -> int:
        """Current count of group ``group`` (test/inspection hook)."""
        return self._counts[group]

    def to_state(self) -> dict:
        """SchemeState protocol: the counters capture SCA entirely."""
        return {"scheme": self.name, "counts": list(self._counts)}

    def restore_state(self, state: dict) -> None:
        """SchemeState protocol: overwrite the counters.

        Raises ``ValueError`` naming ``counts`` unless the state holds
        one integer count in ``[0, T)`` per counter.
        """
        counts = [
            checked_register("sca", "counts", c, self.refresh_threshold)
            for c in state["counts"]
        ]
        if len(counts) != self.n_counters:
            raise ValueError(
                f"sca state field 'counts': state carries {len(counts)} "
                f"counters, scheme has {self.n_counters}"
            )
        self._counts = counts

    @property
    def counters_in_use(self) -> int:
        """All M counters are always active in SCA."""
        return self.n_counters

    def on_interval_boundary(self) -> None:
        """Reset all counters at each auto-refresh epoch.

        At a 64 ms boundary every row has just been auto-refreshed, so all
        accumulated aggressor pressure is gone and the counters restart —
        the same epoch semantics the CAT schemes use.
        """
        self._counts = [0] * self.n_counters

    def describe(self) -> str:
        """One-line configuration summary."""
        return (
            f"SCA_{self.n_counters}(n_rows={self.n_rows}, "
            f"T={self.refresh_threshold}, group={self.group_size})"
        )
