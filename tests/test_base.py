"""Tests for the scheme interfaces: RefreshCommand, validation, ledger."""

import pytest

from repro.core.base import ActivationLedger, RefreshCommand
from repro.core.sca import SCAScheme


class TestRefreshCommand:
    def test_row_count_plain(self):
        cmd = RefreshCommand(10, 19)
        assert cmd.span == 10
        assert cmd.row_count(1024) == 10

    def test_clamps_low_edge(self):
        cmd = RefreshCommand(-1, 5)
        clamped = cmd.clamped(1024)
        assert clamped.low == 0
        assert cmd.row_count(1024) == 6

    def test_clamps_high_edge(self):
        cmd = RefreshCommand(1020, 1024)
        assert cmd.clamped(1024).high == 1023
        assert cmd.row_count(1024) == 4

    def test_clamp_preserves_reason(self):
        cmd = RefreshCommand(-1, 2, reason="probabilistic")
        assert cmd.clamped(16).reason == "probabilistic"

    def test_empty_after_clamp(self):
        cmd = RefreshCommand(-3, -1)
        assert cmd.row_count(1024) == 0

    def test_frozen(self):
        cmd = RefreshCommand(0, 1)
        with pytest.raises(AttributeError):
            cmd.low = 5


class TestSchemeValidation:
    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            SCAScheme(0, 100, 1)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            SCAScheme(1024, 0, 8)

    def test_rejects_out_of_range_row(self):
        scheme = SCAScheme(1024, 100, 8)
        with pytest.raises(ValueError):
            scheme.access(1024)
        with pytest.raises(ValueError):
            scheme.access(-1)

    def test_describe_mentions_config(self):
        scheme = SCAScheme(1024, 100, 8)
        text = scheme.describe()
        assert "1024" in text and "100" in text


class TestActivationLedger:
    def test_pressure_accumulates(self):
        ledger = ActivationLedger(64)
        for _ in range(5):
            ledger.activate(10)
        assert ledger.max_pressure() == 5

    def test_refresh_clears_covered_rows(self):
        ledger = ActivationLedger(64)
        for _ in range(5):
            ledger.activate(10)
        ledger.refresh_range(8, 12)
        assert ledger.max_pressure() == 0

    def test_refresh_does_not_clear_boundary_aggressor(self):
        """A row at the edge of the refreshed range keeps its pressure:
        its out-of-range neighbour was not refreshed."""
        ledger = ActivationLedger(64)
        for _ in range(5):
            ledger.activate(12)
        ledger.refresh_range(8, 12)  # row 13 not refreshed
        assert ledger.counts.get(12, 0) == 5

    def test_bank_edge_rows_clear_without_outer_neighbour(self):
        ledger = ActivationLedger(64)
        ledger.activate(0)
        ledger.refresh_range(0, 1)
        assert ledger.max_pressure() == 0
        ledger.activate(63)
        ledger.refresh_range(62, 63)
        assert ledger.max_pressure() == 0

    def test_unrelated_refresh_leaves_pressure(self):
        ledger = ActivationLedger(64)
        ledger.activate(40)
        ledger.refresh_range(0, 10)
        assert ledger.counts[40] == 1
