"""Tests for the CMRPO metric computation."""

import pytest

from repro.dram.config import REFRESH_INTERVAL_S, ROW_REFRESH_ENERGY_NJ
from repro.energy.cmrpo import (
    STATIC_AMORTIZATION_BANKS,
    CMRPOBreakdown,
    compute_cmrpo,
)
from repro.energy.hardware_model import pra_hardware, scheme_hardware


class TestBreakdown:
    def test_total_is_sum(self):
        b = CMRPOBreakdown(0.1, 0.2, 0.3)
        assert b.total_mw == pytest.approx(0.6)
        assert b.cmrpo == pytest.approx(0.24)

    def test_as_dict_keys(self):
        b = CMRPOBreakdown(0.1, 0.2, 0.3)
        assert set(b.as_dict()) == {
            "dynamic_mw",
            "static_mw",
            "refresh_mw",
            "total_mw",
            "cmrpo",
        }


class TestComputation:
    def test_refresh_component(self):
        b = compute_cmrpo("sca", 0.0, victim_rows_per_interval=16000.0)
        expected_mw = 16000 * ROW_REFRESH_ENERGY_NJ / REFRESH_INTERVAL_S * 1e-6
        assert b.refresh_mw == pytest.approx(expected_mw)
        assert b.dynamic_mw == 0.0

    def test_static_amortised_over_banks(self):
        b = compute_cmrpo("drcat", 0.0, 0.0, n_counters=64)
        hw = scheme_hardware("drcat", 64)
        expected = (
            hw.static_nj_per_interval
            / STATIC_AMORTIZATION_BANKS
            / REFRESH_INTERVAL_S
            * 1e-6
        )
        assert b.static_mw == pytest.approx(expected)

    def test_dynamic_scales_with_access_rate(self):
        lo = compute_cmrpo("sca", 100_000.0, 0.0)
        hi = compute_cmrpo("sca", 200_000.0, 0.0)
        assert hi.dynamic_mw == pytest.approx(2 * lo.dynamic_mw)

    def test_pra_dynamic_is_prng_energy(self):
        accesses = 582_000.0
        b = compute_cmrpo("pra", accesses, 0.0)
        expected = (
            pra_hardware().energy_per_access_nj
            * accesses
            / REFRESH_INTERVAL_S
            * 1e-6
        )
        assert b.dynamic_mw == pytest.approx(expected)
        assert b.static_mw == 0.0

    def test_paper_ballpark_pra_eleven_percent(self):
        """PRA at the paper-implied access rate lands near its reported
        11% CMRPO (dominated by PRNG energy)."""
        accesses = 582_000.0
        victim_rows = 2 * accesses * 0.002  # two rows every 1/p accesses
        b = compute_cmrpo("pra", accesses, victim_rows)
        assert 0.07 < b.cmrpo < 0.15

    def test_smaller_threshold_cheaper_static(self):
        b32 = compute_cmrpo("prcat", 0.0, 0.0, refresh_threshold=32768)
        b16 = compute_cmrpo("prcat", 0.0, 0.0, refresh_threshold=16384)
        assert b16.static_mw < b32.static_mw
