"""Tests for Static Counter Assignment (SCA, Section III-B)."""

import pytest

from repro.core.sca import SCAScheme
from repro.dram.config import SystemConfig
from repro.dram.memory_system import MemorySystem


class TestGroupMapping:
    def test_group_size(self):
        scheme = SCAScheme(65536, 32768, 64)
        assert scheme.group_size == 1024

    def test_rejects_non_dividing_counters(self):
        with pytest.raises(ValueError):
            SCAScheme(1000, 100, 64)

    def test_rejects_zero_counters(self):
        with pytest.raises(ValueError):
            SCAScheme(1024, 100, 0)

    def test_counter_per_row_degenerate(self):
        scheme = SCAScheme(64, 10, 64)
        assert scheme.group_size == 1


class TestCounting:
    def test_accesses_accumulate_in_group(self):
        scheme = SCAScheme(1024, 100, 8)  # groups of 128
        for row in (0, 1, 127):
            scheme.access(row)
        assert scheme.counter_value(0) == 3
        assert scheme.counter_value(1) == 0

    def test_different_groups_independent(self):
        scheme = SCAScheme(1024, 100, 8)
        scheme.access(0)
        scheme.access(128)
        scheme.access(1023)
        assert scheme.counter_value(0) == 1
        assert scheme.counter_value(1) == 1
        assert scheme.counter_value(7) == 1


class TestRefresh:
    def test_refreshes_group_plus_adjacent(self):
        scheme = SCAScheme(1024, 10, 8)
        cmds = []
        for _ in range(10):
            cmds.extend(scheme.access(300))  # group 2: rows 256..383
        assert len(cmds) == 1
        cmd = cmds[0]
        assert cmd.low == 255
        assert cmd.high == 384
        assert cmd.row_count(1024) == 130  # N/M + 2

    def test_counter_resets_after_refresh(self):
        scheme = SCAScheme(1024, 10, 8)
        for _ in range(10):
            scheme.access(300)
        assert scheme.counter_value(2) == 0

    def test_first_group_clamps_low(self):
        scheme = SCAScheme(1024, 10, 8)
        cmds = []
        for _ in range(10):
            cmds.extend(scheme.access(5))
        assert cmds[0].row_count(1024) == 129  # no row below 0

    def test_last_group_clamps_high(self):
        scheme = SCAScheme(1024, 10, 8)
        cmds = []
        for _ in range(10):
            cmds.extend(scheme.access(1000))
        assert cmds[0].row_count(1024) == 129

    def test_refresh_rate_matches_threshold(self):
        scheme = SCAScheme(1024, 50, 4)
        total = 0
        for _ in range(500):
            total += len(scheme.access(10))
        assert total == 10  # 500 / 50

    def test_bank_tracks_rows(self):
        system = MemorySystem(
            SystemConfig(rows_per_bank=1024), lambda n: SCAScheme(n, 10, 8), n_banks=1
        )
        for i in range(25):
            system.access(float(i), 0, 300)
        assert system.total_refresh_commands == 2
        assert system.banks[0].rows_refreshed == 260
        assert system.banks[0].activations == 25


class TestEpochReset:
    def test_interval_boundary_resets_counts(self):
        scheme = SCAScheme(1024, 100, 8)
        for _ in range(60):
            scheme.access(5)
        scheme.on_interval_boundary()
        assert scheme.counter_value(0) == 0

    def test_counters_in_use(self):
        assert SCAScheme(1024, 100, 8).counters_in_use == 8
