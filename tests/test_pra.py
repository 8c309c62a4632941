"""Tests for Probabilistic Row Activation (PRA)."""

import pytest

from repro.analysis.prng import CountingPRNG, TrueRandomPRNG
from repro.core.pra import PRAScheme
from repro.dram.config import SystemConfig
from repro.dram.memory_system import MemorySystem


class TestProbability:
    def test_rejects_probability_out_of_range(self):
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                PRAScheme(1024, 32768, p)

    def test_effective_probability_quantisation(self):
        scheme = PRAScheme(1024, 32768, 0.002, random_bits=9)
        assert scheme.effective_probability == pytest.approx(1 / 512)

    def test_effective_probability_never_zero(self):
        scheme = PRAScheme(1024, 32768, 0.0001, random_bits=9)
        assert scheme.effective_probability > 0

    def test_empirical_rate_matches(self):
        scheme = PRAScheme(1024, 32768, 0.01, prng=TrueRandomPRNG(seed=1))
        triggered = sum(1 for _ in range(50000) if scheme.access(500))
        expected = scheme.effective_probability * 50000
        assert triggered == pytest.approx(expected, rel=0.25)


class TestRefreshTargets:
    def _always_fire(self):
        # CountingPRNG starting at 0 draws 0 on its first call -> below cut
        return PRAScheme(1024, 32768, 0.002, prng=CountingPRNG(0))

    def test_refreshes_both_neighbours(self):
        cmds = self._always_fire().access(500)
        ranges = {(c.low, c.high) for c in cmds}
        assert ranges == {(499, 499), (501, 501)}

    def test_never_refreshes_aggressor(self):
        cmds = self._always_fire().access(500)
        assert all(not (c.low <= 500 <= c.high) for c in cmds)

    def test_bottom_edge_single_neighbour(self):
        cmds = self._always_fire().access(0)
        assert {(c.low, c.high) for c in cmds} == {(1, 1)}

    def test_top_edge_single_neighbour(self):
        cmds = self._always_fire().access(1023)
        assert {(c.low, c.high) for c in cmds} == {(1022, 1022)}

    def test_reason_tag(self):
        cmds = self._always_fire().access(10)
        assert all(c.reason == "probabilistic" for c in cmds)


class TestStats:
    def test_bank_counts_rows(self):
        system = MemorySystem(
            SystemConfig(rows_per_bank=1024),
            lambda n: PRAScheme(n, 32768, 0.002, prng=CountingPRNG(0)),
            n_banks=1,
        )
        system.access(0.0, 0, 500)   # fires (draw 0)
        assert system.banks[0].rows_refreshed == 2
        assert system.total_refresh_commands == 2
        assert system.banks[0].activations == 1

    def test_counters_in_use_is_zero(self):
        assert PRAScheme(1024, 32768, 0.002).counters_in_use == 0

    def test_describe_mentions_prng(self):
        scheme = PRAScheme(1024, 32768, 0.002)
        assert "trng" in scheme.describe()
