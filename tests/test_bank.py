"""Tests for the bank timing model (refresh backlog + stall accounting)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sca import SCAScheme
from repro.dram.bank import BACKLOG_ESCALATION_ROWS, BankState
from repro.dram.config import DRAMTimings
from repro.sim.kernel import serve_segment

#: ``t_rc`` and the row-op time, in quarter-ns quanta.
R_Q = int(DRAMTimings().t_rc * 4)
P_Q = int(DRAMTimings().row_refresh_ns * 4)


def make_bank():
    return BankState(DRAMTimings())


class TestDemandService:
    def test_access_occupies_one_row_cycle(self):
        bank = make_bank()
        done = bank.serve_access(100.0)
        assert done == pytest.approx(100.0 + bank.timings.t_rc)
        assert bank.activations == 1

    def test_back_to_back_accesses_queue(self):
        bank = make_bank()
        bank.serve_access(0.0)
        done = bank.serve_access(1.0)  # arrives while busy
        assert done == pytest.approx(2 * bank.timings.t_rc)

    def test_idle_gap_means_no_queueing(self):
        bank = make_bank()
        bank.serve_access(0.0)
        done = bank.serve_access(1000.0)
        assert done == pytest.approx(1000.0 + bank.timings.t_rc)


class TestRefreshBacklog:
    def test_refresh_enqueues_without_blocking(self):
        bank = make_bank()
        bank.serve_refresh(0.0, 100)
        assert bank.refresh_backlog_rows == 100
        assert bank.rows_refreshed == 100
        assert bank.free_at_ns == 0.0  # demand horizon untouched

    def test_backlog_drains_in_idle_gap(self):
        bank = make_bank()
        t_op = bank.timings.row_refresh_ns
        bank.serve_refresh(0.0, 10)
        # demand arrives long after the backlog would fully drain
        done = bank.serve_access(100 * t_op)
        assert bank.refresh_backlog_rows == 0
        assert bank.stall_ns == 0.0
        assert done == pytest.approx(100 * t_op + bank.timings.t_rc)
        assert bank.mitigation_busy_ns == pytest.approx(10 * t_op)

    def test_demand_mid_rowop_waits_residual(self):
        bank = make_bank()
        t_op = bank.timings.row_refresh_ns
        bank.serve_refresh(0.0, 1000)
        # demand arrives in the middle of the 4th row-op
        arrival = 3.5 * t_op
        done = bank.serve_access(arrival)
        assert bank.stall_ns == pytest.approx(0.5 * t_op)
        assert done == pytest.approx(4 * t_op + bank.timings.t_rc)
        assert bank.refresh_backlog_rows == 1000 - 4

    def test_stall_bounded_by_one_rowop(self):
        bank = make_bank()
        bank.serve_refresh(0.0, 10_000)
        bank.serve_access(10.0)
        assert bank.stall_ns <= bank.timings.row_refresh_ns

    def test_multiple_refresh_commands_accumulate(self):
        bank = make_bank()
        bank.serve_refresh(0.0, 50)
        bank.serve_refresh(0.0, 70)
        assert bank.refresh_backlog_rows == 120

    def test_zero_rows_is_noop(self):
        bank = make_bank()
        horizon = bank.serve_refresh(5.0, 0)
        assert horizon == 0.0
        assert bank.refresh_backlog_rows == 0


class TestEscalation:
    def test_escalates_above_cap(self):
        bank = make_bank()
        bank.serve_refresh(0.0, BACKLOG_ESCALATION_ROWS + 5)
        assert bank.escalations == 1
        assert bank.refresh_backlog_rows == 0
        assert bank.free_at_ns > 0

    def test_no_escalation_below_cap(self):
        bank = make_bank()
        bank.serve_refresh(0.0, BACKLOG_ESCALATION_ROWS)
        assert bank.escalations == 0


class TestEpochReset:
    def test_blanket_refresh_absorbs_backlog(self):
        bank = make_bank()
        bank.serve_refresh(0.0, 500)
        bank.reset_epoch()
        assert bank.refresh_backlog_rows == 0
        # energy accounting unchanged: rows were commanded
        assert bank.rows_refreshed == 500


def serve_in_kernel(bank, arrivals):
    """Serve ``arrivals`` through the compiled kernel's bank model, beside
    a scheme that never fires (SCA with an unreachable threshold); the
    per-access loop on a host without a C compiler."""
    scheme = SCAScheme(64, 1 << 40, 1)
    rows = np.zeros(len(arrivals), dtype=np.int64)
    if serve_segment(bank, scheme, np.asarray(arrivals, dtype=np.float64), rows) is None:
        bank.serve_accesses_batch(np.asarray(arrivals))


class TestBatchDrainEquivalence:
    """The kernel's bank model == per-access serve_access, bit-for-bit.

    A drain phase mixes idle, burst and on-horizon (collision) accesses
    and ends in an exhaustion or a full drain; the kernel must reproduce
    the scalar oracle exactly for every mix, on the quarter-ns grid and
    off it.
    """

    def _assert_equivalent(self, arrivals, backlog, f0):
        oracle, served = make_bank(), make_bank()
        for bank in (oracle, served):
            bank.refresh_backlog_rows = backlog
            bank.free_at_ns = f0
        for arrival in arrivals.tolist():
            oracle.serve_access(arrival)
        serve_in_kernel(served, arrivals)
        assert oracle.to_state() == served.to_state()

    @pytest.mark.parametrize("seed", range(8))
    def test_burst_dominated_streams(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(200, 2500))
        gaps = rng.integers(1, 400, size=n)
        arrivals = np.floor(np.cumsum(gaps).astype(np.float64)) * 0.25
        self._assert_equivalent(
            arrivals, int(rng.integers(1, 5000)),
            float(rng.integers(0, 4000)) * 0.25,
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_idle_dominated_streams(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(200, 4000))
        gaps = rng.integers(300, 4000, size=n)
        bursts = rng.random(n) < 0.03
        gaps[bursts] = rng.integers(1, 40, size=int(bursts.sum()))
        mega = rng.random(n) < 0.002
        gaps[mega] = rng.integers(10**6, 10**8, size=int(mega.sum()))
        arrivals = np.cumsum(gaps).astype(np.float64) * 0.25
        self._assert_equivalent(
            arrivals, int(rng.integers(500, 200_000)),
            float(rng.integers(0, 4000)) * 0.25,
        )

    def test_exact_backlog_exhaustion_mid_run(self):
        # Gaps drain exactly 3 row-ops per access: with backlog = 3k the
        # run ends by exhaustion, not by a burst or full drain.
        t_op = DRAMTimings().row_refresh_ns
        arrivals = np.cumsum(
            np.full(200, np.floor(3.2 * t_op * 4.0) * 0.25)
        )
        self._assert_equivalent(arrivals, 3 * 120, 0.0)

    @staticmethod
    def _collision_stream(ending):
        """Bursts exactly on the horizon, partial drains, then ``ending``.

        The arrivals are built against the per-access oracle, which
        serves them as they are made; returns ``(oracle, arrivals)``.
        """
        t_rc = DRAMTimings().t_rc
        t_op = DRAMTimings().row_refresh_ns
        oracle = make_bank()
        oracle.refresh_backlog_rows = 1026
        oracle.free_at_ns = f0 = 1000 * t_rc
        arrivals = []

        def serve(arrival):
            arrivals.append(arrival)
            oracle.serve_access(arrival)

        # Arrivals t_rc apart from F0: consecutive bursts on the horizon.
        for k in range(40):
            serve(f0 + k * t_rc)
        # Cycles of a 3-row partial drain, two collisions, and a 1-row
        # partial drain landing within one row-op of the horizon (where
        # a collision, wrongly taken as idle, would move it).  The last
        # partial drain takes exactly the remaining rows (exhaustion);
        # the full drain's gap is exactly backlog * t_op, its boundary.
        # Every gap stays on the quarter-ns grid.
        stop = 0 if ending == "exhaustion" else 500
        while oracle.refresh_backlog_rows > stop:
            left = oracle.refresh_backlog_rows
            if left < 4:
                serve(oracle.free_at_ns + (left - 1) * t_op + 10.0)
                continue
            serve(oracle.free_at_ns + 2 * t_op + 10.0)
            serve(oracle.free_at_ns)
            serve(oracle.free_at_ns)
            serve(oracle.free_at_ns + 10.0)
        if ending == "full_drain":
            serve(oracle.free_at_ns + oracle.refresh_backlog_rows * t_op)
        assert oracle.refresh_backlog_rows == 0
        for _ in range(30):
            serve(oracle.free_at_ns + 30.0)
        return oracle, np.asarray(arrivals)

    @pytest.mark.parametrize("ending", ["exhaustion", "full_drain"])
    def test_collision_stream_drains_in_one_pass(self, ending):
        oracle, arrivals = self._collision_stream(ending)
        served = make_bank()
        served.refresh_backlog_rows = 1026
        served.free_at_ns = 1000 * DRAMTimings().t_rc
        serve_in_kernel(served, arrivals)
        assert oracle.to_state() == served.to_state()
        assert oracle.stall_ns > 0

    @settings(max_examples=150, deadline=None)
    @given(
        gaps=st.lists(
            st.one_of(
                st.integers(0, 4).map(lambda m: m * R_Q),
                st.integers(1, 4 * R_Q),
                st.integers(4 * R_Q, 6000 * P_Q),
            ),
            min_size=1,
            max_size=400,
        ),
        backlog=st.integers(64, 5000),
        f0=st.integers(0, 10**6),
        offset=st.integers(-4 * R_Q, 4 * R_Q),
    )
    def test_drain_phase_matches_scalar_loop(self, gaps, backlog, f0, offset):
        quanta = np.maximum(f0 + offset + np.cumsum(gaps), 0)
        self._assert_equivalent(quanta * 0.25, backlog, f0 * 0.25)

    def test_off_grid_timings_fall_back_to_scalar(self):
        timings = DRAMTimings(t_rc=48.33)  # not a quarter-ns multiple
        oracle = BankState(timings)
        served = BankState(timings)
        for bank in (oracle, served):
            bank.refresh_backlog_rows = 4000
        arrivals = np.cumsum(np.full(300, 400.0))
        for arrival in arrivals.tolist():
            oracle.serve_access(arrival)
        serve_in_kernel(served, arrivals)
        assert oracle.to_state() == served.to_state()
