"""Tests for the system configuration (Table I)."""

import pytest

from repro.dram.config import (
    DUAL_CORE_2CH,
    DUAL_CORE_4CH,
    NAMED_CONFIGS,
    QUAD_CORE_2CH,
    SystemConfig,
)


class TestSystemConfig:
    def test_default_matches_table1(self):
        c = DUAL_CORE_2CH
        assert c.n_cores == 2
        assert c.n_channels == 2
        assert c.banks_per_rank == 8
        assert c.rows_per_bank == 65536
        assert c.n_banks == 16
        assert c.rob_entries == 128
        assert c.address_mapping == "rw:rk:bk:ch:col:offset"

    def test_four_channel_quadruples_banks(self):
        assert DUAL_CORE_4CH.n_banks == 64
        assert DUAL_CORE_2CH.with_channels(4).n_banks == 64

    def test_quad_core_rows(self):
        assert QUAD_CORE_2CH.rows_per_bank == 131072
        assert DUAL_CORE_2CH.with_cores(4).rows_per_bank == 131072
        assert QUAD_CORE_2CH.with_cores(2).rows_per_bank == 65536

    def test_named_configs(self):
        assert set(NAMED_CONFIGS) == {
            "dual-core/2channels",
            "dual-core/4channels",
            "quad-core/2channels",
            "quad-core/4channels",
        }
        assert NAMED_CONFIGS["quad-core/4channels"].n_banks == 64

    def test_total_rows(self):
        assert DUAL_CORE_2CH.total_rows == 16 * 65536

    def test_timings_row_refresh_is_trc(self):
        t = DUAL_CORE_2CH.timings
        assert t.row_refresh_ns == t.t_rc


class TestValidation:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(rows_per_bank=1000)
        with pytest.raises(ValueError):
            SystemConfig(n_channels=3)
