"""Scheme-level tests for PRCAT and DRCAT (epoch semantics, tree totals)."""

import numpy as np
import pytest

from repro.core.cat import PRCATScheme
from repro.core.drcat import DRCATScheme

N_ROWS = 4096
T = 256


def drive(scheme, rows):
    commands = []
    for row in rows:
        commands.extend(scheme.access(int(row)))
    return commands


class TestPRCATScheme:
    def test_construction_validates(self):
        with pytest.raises(ValueError):
            PRCATScheme(N_ROWS, T, n_counters=48, max_levels=10)
        with pytest.raises(ValueError):
            PRCATScheme(N_ROWS, T, n_counters=64, max_levels=5)

    def test_interval_boundary_rebuilds_tree(self):
        scheme = PRCATScheme(N_ROWS, T, n_counters=16, max_levels=10)
        rng = np.random.default_rng(0)
        drive(scheme, rng.integers(0, N_ROWS, size=5000))
        grown = scheme.tree.active_counters
        assert grown > 8  # pre-split for M=16 is 8 leaves
        scheme.on_interval_boundary()
        assert scheme.tree.active_counters == 8

    def test_refresh_totals_accumulate(self):
        scheme = PRCATScheme(N_ROWS, T, n_counters=16, max_levels=10)
        cmds = drive(scheme, [99] * 2000)
        assert cmds
        assert scheme.tree.total_refresh_commands == len(cmds)
        assert scheme.tree.total_rows_refreshed == sum(
            c.row_count(N_ROWS) for c in cmds
        )

    def test_counters_in_use_tracks_tree(self):
        scheme = PRCATScheme(N_ROWS, T, n_counters=16, max_levels=10)
        assert scheme.counters_in_use == 8
        drive(scheme, [7] * 1500)
        assert scheme.counters_in_use > 8

    def test_describe(self):
        scheme = PRCATScheme(N_ROWS, T, n_counters=16, max_levels=10)
        assert "PRCAT_16" in scheme.describe()

    def test_threshold_strategy_forwarded(self):
        scheme = PRCATScheme(
            N_ROWS, T, n_counters=16, max_levels=10,
            threshold_strategy="geometric",
        )
        assert scheme.schedule.strategy == "geometric"


class TestDRCATScheme:
    def test_interval_boundary_keeps_shape(self):
        scheme = DRCATScheme(N_ROWS, T, n_counters=16, max_levels=10)
        drive(scheme, [123] * 3000)
        depth_before = scheme.tree.counter_state(scheme.tree.lookup(123))[
            "level"
        ]
        scheme.on_interval_boundary()
        depth_after = scheme.tree.counter_state(scheme.tree.lookup(123))[
            "level"
        ]
        assert depth_after == depth_before  # structure persists
        assert all(
            scheme.tree.counter_state(i)["count"] == 0
            for i in range(16)
        )

    def test_interval_boundary_decays_weights(self):
        scheme = DRCATScheme(N_ROWS, T, n_counters=16, max_levels=10)
        drive(scheme, [123] * 3000)
        idx = scheme.tree.lookup(123)
        w_before = scheme.tree.counter_state(idx)["weight"]
        scheme.on_interval_boundary()
        w_after = scheme.tree.counter_state(idx)["weight"]
        assert w_after == max(0, w_before - 1)

    def test_reconfigurations_counted(self):
        scheme = DRCATScheme(N_ROWS, T, n_counters=8, max_levels=11)
        rng = np.random.default_rng(1)
        drive(scheme, rng.integers(0, N_ROWS, size=4000))  # exhaust pool
        drive(scheme, [3333] * 4000)                       # new hot row
        assert scheme.reconfigurations > 0
        # Each reconfiguration merges a cold pair (harvests merge too).
        assert scheme.tree.total_merges >= scheme.reconfigurations
        scheme.tree.check_invariants()

    def test_drcat_beats_prcat_under_drift(self):
        """The defining DRCAT property: after mid-epoch drift, DRCAT
        refreshes fewer rows than PRCAT whose tree is stale until its
        next reset."""
        rng = np.random.default_rng(2)
        phases = [
            rng.integers(0, N_ROWS, size=1)[0] for _ in range(4)
        ]

        def stream():
            rng2 = np.random.default_rng(3)
            rows = []
            for hot in phases:
                for _ in range(6000):
                    if rng2.random() < 0.7:
                        rows.append(int(hot))
                    else:
                        rows.append(int(rng2.integers(0, N_ROWS)))
            return rows

        prcat = PRCATScheme(N_ROWS, T, n_counters=16, max_levels=11)
        drcat = DRCATScheme(N_ROWS, T, n_counters=16, max_levels=11)
        drive(prcat, stream())
        drive(drcat, stream())
        assert drcat.tree.total_rows_refreshed < prcat.tree.total_rows_refreshed

    def test_rejects_out_of_range_rows(self):
        scheme = DRCATScheme(N_ROWS, T, n_counters=16, max_levels=10)
        with pytest.raises(ValueError):
            scheme.access(N_ROWS)
