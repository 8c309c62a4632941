"""Tests for the memory system (banks + per-bank mitigation engines)."""

import pytest

from repro.core.sca import SCAScheme
from repro.dram.config import SystemConfig
from repro.dram.memory_system import MemorySystem


def small_config():
    return SystemConfig(rows_per_bank=1024)


def sca_system(threshold: int, n_banks: int = 4, **kwargs) -> MemorySystem:
    """``n_banks`` banks of a small system, each guarded by SCA_8."""
    return MemorySystem(small_config(), lambda n: SCAScheme(n, threshold, 8),
                        n_banks, **kwargs)


class TestWiring:
    def test_one_scheme_per_bank(self):
        system = sca_system(100)
        assert len(system.schemes) == 4
        ids = {id(s) for s in system.schemes}
        assert len(ids) == 4

    def test_builds_only_the_requested_banks(self):
        system = sca_system(100, n_banks=2)
        assert len(system.banks) == len(system.schemes) == 2
        assert len(system.to_state()["banks"]) == 2

    def test_rejects_bad_epoch(self):
        with pytest.raises(ValueError):
            sca_system(100, epoch_s=0)


class TestRefreshFlow:
    def test_scheme_refresh_reaches_bank(self):
        system = sca_system(10)
        for i in range(10):
            system.access(float(i * 100), 0, 5)
        assert system.total_refresh_commands == 1
        assert system.total_rows_refreshed == 129  # clamped group + 1
        assert system.banks[0].refresh_backlog_rows > 0

    def test_refresh_isolated_to_bank(self):
        system = sca_system(10)
        for i in range(10):
            system.access(float(i * 100), 3, 5)
        assert system.banks[3].rows_refreshed > 0
        assert system.banks[0].rows_refreshed == 0

    def test_activations_counted_per_bank(self):
        system = sca_system(100)
        system.access(0.0, 0, 1)
        system.access(10.0, 1, 1)
        system.access(20.0, 1, 2)
        assert system.banks[0].activations == 1
        assert system.banks[1].activations == 2
        assert system.total_activations == 3


class TestEpochs:
    def test_epoch_boundary_invokes_scheme_hook(self):
        system = sca_system(100, epoch_s=1e-6)
        system.access(0.0, 0, 5)
        system.access(5000.0, 0, 5)  # 5 us later: several epochs passed
        assert system.epochs_completed >= 1
        assert system.schemes[0].counter_value(0) == 1

    def test_epoch_counts_reset_counters(self):
        system = sca_system(100, epoch_s=1e-6)
        for i in range(50):
            system.access(float(i), 0, 5)
        assert system.schemes[0].counter_value(0) == 50
        system.access(2000.0, 0, 5)
        assert system.schemes[0].counter_value(0) == 1

    def test_multiple_epochs_advance(self):
        system = sca_system(100, epoch_s=1e-6)
        system.access(0.0, 0, 5)
        system.access(10_000.0, 0, 5)  # 10 epochs later
        assert system.epochs_completed == 10


class TestAggregates:
    def test_totals_sum_the_banks(self):
        system = sca_system(10)
        for bank in range(2):
            for i in range(10):
                system.access(float(i * 50), bank, 5)
        assert system.total_activations == 20
        assert system.total_refresh_commands == 2
        assert system.total_rows_refreshed == 2 * 129
        assert system.total_rows_refreshed == sum(b.rows_refreshed for b in system.banks)

    def test_stall_aggregation(self):
        system = sca_system(5)
        t = 0.0
        for i in range(200):
            t += 200.0  # idle gaps so the refresh backlog can drain
            system.access(t, 0, 5)
        assert system.total_stall_ns >= 0.0
        assert system.total_mitigation_busy_ns > 0.0
