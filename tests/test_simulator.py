"""Tests for the functions of a spec and their scaling machinery."""

import numpy as np
import pytest

from repro.api import Session
from repro.dram.config import DUAL_CORE_2CH, SystemConfig
from repro.experiments import ExperimentSpec, SchemeSpec, run_spec
from repro.sim.engine import merge_streams
from repro.sim.simulator import (
    _phase_segments,
    baseline_execution_time_ns,
    scaled_threshold,
    scheme_factory,
)


class TestScaledThreshold:
    def test_divides(self):
        assert scaled_threshold(32768, 16.0) == 2048

    def test_floors_at_32(self):
        assert scaled_threshold(32768, 10000.0) == 32

    def test_identity(self):
        assert scaled_threshold(32768, 1.0) == 32768


class TestPhaseSegments:
    def test_single_phase(self):
        assert _phase_segments(0, 1) == [(1.0, 0)]
        assert _phase_segments(5, 1) == [(1.0, 0)]

    def test_fractions_sum_to_one(self):
        for phases in (2, 3, 5):
            for interval in range(3):
                segments = _phase_segments(interval, phases)
                assert sum(f for f, _ in segments) == pytest.approx(1.0)

    def test_boundaries_not_epoch_aligned(self):
        """The trailing segment of interval i shares its phase id with
        the leading segment of interval i+1 (no change at the epoch)."""
        tail_phase = _phase_segments(0, 2)[-1][1]
        head_phase = _phase_segments(1, 2)[0][1]
        assert tail_phase == head_phase

    def test_phase_ids_advance(self):
        segs = _phase_segments(0, 3)
        ids = [p for _, p in segs]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)


class TestMergeStreams:
    def test_sorted_by_time(self):
        a = (np.array([5.0, 10.0]), np.array([1, 2]))
        b = (np.array([1.0, 7.0]), np.array([3, 4]))
        times, _banks, _rows = merge_streams([a, b])
        assert list(times) == [1.0, 5.0, 7.0, 10.0]

    def test_bank_tags(self):
        a = (np.array([1.0]), np.array([42]))
        b = (np.array([2.0]), np.array([43]))
        times, banks, rows = merge_streams([a, b])
        assert list(banks) == [0, 1]
        assert list(rows) == [42, 43]

    def test_integer_dtypes(self):
        """Bank and row ids never round-trip through float64."""
        a = (np.array([1.0]), np.array([42], dtype=np.int64))
        _times, banks, rows = merge_streams([a])
        assert banks.dtype == np.int64
        assert rows.dtype == np.int64

    def test_stable_for_tied_times(self):
        a = (np.array([5.0]), np.array([1]))
        b = (np.array([5.0]), np.array([2]))
        _times, banks, _rows = merge_streams([a, b])
        assert list(banks) == [0, 1]

    def test_empty(self):
        times, banks, rows = merge_streams([])
        assert len(times) == len(banks) == len(rows) == 0


class TestBaselineExecutionTime:
    def test_denominator_is_duration_plus_one_row_cycle(self):
        config = DUAL_CORE_2CH
        duration = 1e6
        expected = duration + config.timings.t_rc
        assert baseline_execution_time_ns(config, 1, duration) == expected
        # Independent of the access count: the busy-horizon model only
        # leaves at most one row cycle in flight at the interval's end.
        assert baseline_execution_time_ns(config, 100_000, duration) == expected

    def test_no_accesses_is_pure_duration(self):
        assert baseline_execution_time_ns(DUAL_CORE_2CH, 0, 5e5) == 5e5


class TestSimulatorRuns:
    def make(self, scheme, **kw):
        params = kw.pop("params", {})
        defaults = dict(scale=64.0, n_banks=1, n_intervals=1,
                        system=DUAL_CORE_2CH)
        defaults.update(kw)
        return ExperimentSpec(
            scheme=SchemeSpec.create(scheme, **params), **defaults
        )

    def test_totals_consistent(self):
        spec = self.make("sca", params={"n_counters": 64}, workload="black")
        result = run_spec(spec)
        totals = result.totals
        assert totals.accesses > 0
        assert totals.elapsed_ns == pytest.approx(64e6 / 64.0)
        assert totals.rows_refreshed >= totals.refresh_commands

    def test_deterministic(self):
        r1 = run_spec(self.make("drcat", workload="comm1"))
        r2 = run_spec(self.make("drcat", workload="comm1"))
        assert r1.totals.rows_refreshed == r2.totals.rows_refreshed
        assert r1.cmrpo == r2.cmrpo

    def test_refresh_rows_scale_invariant(self):
        """DESIGN.md invariant 6: rows/interval is stable across scales."""
        rows = []
        for scale in (32.0, 64.0):
            result = run_spec(self.make("sca", scale=scale, workload="black"))
            rows.append(result.totals.rows_refreshed_per_bank_interval)
        assert rows[0] == pytest.approx(rows[1], rel=0.35)

    def test_pra_probability_plumbs_through(self):
        spec = self.make("pra", params={"probability": 0.004}, workload="libq")
        result = run_spec(spec)
        assert result.parameters["probability"] == 0.004

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            self.make("sca", scale=0.5)

    def test_rejects_non_spec_construction(self):
        """A run is built from a spec; a bare system config is refused."""
        with pytest.raises(TypeError, match="ExperimentSpec"):
            Session(DUAL_CORE_2CH)

    def test_banks_capped_at_config(self):
        session = Session(self.make("sca", n_banks=1000))
        assert session.n_banks == DUAL_CORE_2CH.n_banks

    def test_cat_schedule_scaled(self):
        factory = scheme_factory(self.make("prcat", scale=16.0))
        scheme = factory(DUAL_CORE_2CH.rows_per_bank)
        assert scheme.schedule.refresh_threshold == 2048
        assert scheme.tree.thresholds.refresh_threshold == 2048

    def test_attack_run(self):
        spec = self.make(
            "sca", refresh_threshold=16384, kind="attack",
            attack_kernel="kernel01", attack_mode="heavy", workload="libq",
        )
        result = run_spec(spec)
        assert result.totals.rows_refreshed > 0
        assert "kernel01" in result.workload


class TestQuadCoreConfig:
    def test_quad_core_rows(self):
        quad = SystemConfig(n_cores=4, rows_per_bank=131072)
        result = run_spec(ExperimentSpec(
            scheme=SchemeSpec("sca"), workload="comm1", system=quad,
            scale=128.0, n_banks=1, n_intervals=1,
        ))
        assert result.totals.accesses > 0
