"""Tests for fault-tolerant sweep execution (run_plan's scheduler).

Per-cell isolation, the retry budget, keep_going reporting, pool
breakage and timeout recovery, signal handling, and crash-safe resume
against the result cache.
"""

import os
import signal
import time

import pytest

import repro.experiments.run as run_mod
from repro.errors import CellExecutionError
from repro.experiments import (
    ExperimentSpec,
    Plan,
    ResultCache,
    SchemeSpec,
    SweepReport,
    run_plan,
)
from repro.experiments.run import SweepPool, _backoff_s, _sigterm_as_interrupt
from repro.testing.faults import ENV_VAR, reset_faults

FAST = dict(scale=128.0, n_banks=1, n_intervals=1)


def fast_spec(**overrides):
    fields = dict(scheme=SchemeSpec("drcat"), workload="libq", **FAST)
    fields.update(overrides)
    return ExperimentSpec(**fields)


def small_plan():
    return Plan.grid(
        fast_spec(),
        workload=["libq", "black"],
        scheme=[SchemeSpec("sca"), SchemeSpec("drcat")],
    )


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    reset_faults()
    yield
    reset_faults()


def poison(workload, exc_factory):
    """A ``_pool_cell`` stand-in that fails cells of one workload."""
    real = run_mod.run_spec

    def cell(spec, ctx):
        if spec.workload == workload:
            raise exc_factory()
        return real(spec, ctx)

    return cell


class TestIsolationAndRetry:
    def test_fatal_cell_is_isolated_and_not_retried(self, monkeypatch):
        monkeypatch.setattr(
            run_mod, "_pool_cell", poison("black", lambda: ValueError("bug"))
        )
        report = run_plan(small_plan(), keep_going=True, max_retries=3)
        assert isinstance(report, SweepReport)
        assert not report.ok
        assert report.counts() == {"ok": 2, "failed": 2}
        for cell in report.failed:
            assert cell.attempts == 1  # fatal: no retry budget spent
            assert not cell.failures[0].retryable
            assert report.results[cell.index] is None
        for cell in report.cells:
            if cell.status == "ok":
                assert report.results[cell.index] is not None

    def test_transient_cell_is_retried_to_success(self, monkeypatch):
        real = run_mod.run_spec
        calls = {"n": 0}

        def flaky(spec, ctx):
            if spec.workload == "black" and calls["n"] < 2:
                calls["n"] += 1
                raise OSError("transient store trouble")
            return real(spec, ctx)

        monkeypatch.setattr(run_mod, "_pool_cell", flaky)
        report = run_plan(small_plan(), keep_going=True, max_retries=2)
        assert report.ok
        retried = [c for c in report.cells if c.attempts > 1]
        # Both "black" cells burned one transient failure each, then
        # succeeded on their retry.
        assert len(retried) == 2
        assert all(c.attempts == 2 for c in retried)
        assert calls["n"] == 2

    def test_retry_budget_exhaustion_fails_cell(self, monkeypatch):
        monkeypatch.setattr(
            run_mod, "_pool_cell", poison("black", lambda: OSError("always"))
        )
        report = run_plan(small_plan(), keep_going=True, max_retries=1)
        assert report.counts() == {"ok": 2, "failed": 2}
        for cell in report.failed:
            assert cell.attempts == 2  # initial + 1 retry
            assert len(cell.failures) == 2
            assert all(f.retryable for f in cell.failures)

    def test_without_keep_going_raises_with_report(self, monkeypatch):
        monkeypatch.setattr(
            run_mod, "_pool_cell", poison("black", lambda: ValueError("bug"))
        )
        with pytest.raises(CellExecutionError) as excinfo:
            run_plan(small_plan(), max_retries=0)
        err = excinfo.value
        assert "black/" in str(err)
        assert err.report is not None
        # Completed cells remain inspectable on the attached report.
        assert err.report.counts()["ok"] == 2

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            run_plan(small_plan(), max_retries=-1)

    def test_report_serializes(self, monkeypatch):
        import json

        monkeypatch.setattr(
            run_mod, "_pool_cell", poison("black", lambda: OSError("x"))
        )
        report = run_plan(small_plan(), keep_going=True, max_retries=0)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["kind"] == "repro-sweep-report"
        assert doc["ok"] is False
        assert doc["counts"] == {"ok": 2, "failed": 2}
        assert len(doc["cells"]) == 4
        failed = [c for c in doc["cells"] if c["status"] == "failed"]
        assert failed[0]["failures"][0]["error_type"] == "OSError"

    def test_backoff_is_deterministic_and_bounded(self):
        for round_no in (1, 2, 3, 8):
            delay = _backoff_s(round_no, salt=7)
            assert delay == _backoff_s(round_no, salt=7)
            assert 0 < delay < run_mod._BACKOFF_CAP_S * 1.5


class TestKeepGoingReporting:
    def test_all_ok_report(self):
        report = run_plan(small_plan(), keep_going=True)
        assert report.ok
        assert report.counts() == {"ok": 4}
        assert report.total_attempts() == 4
        assert report.failure_rows() == []

    def test_cached_cells_reported(self, tmp_path):
        cache = ResultCache(tmp_path)
        baseline = run_plan(small_plan(), cache=cache)
        report = run_plan(small_plan(), cache=cache, keep_going=True)
        assert report.counts() == {"cached": 4}
        assert report.total_attempts() == 0
        assert [r.to_dict() for r in report.results] == \
            [r.to_dict() for r in baseline]


class TestCrashSafeResume:
    def test_completed_cells_survive_and_resume_from_cache(
        self, monkeypatch, tmp_path
    ):
        baseline = [r.to_dict() for r in run_plan(small_plan())]

        # First sweep: one workload's cells die permanently; the other
        # cells must still land in the cache *despite* the failures.
        monkeypatch.setattr(
            run_mod, "_pool_cell", poison("black", lambda: OSError("die"))
        )
        first = ResultCache(tmp_path)
        report = run_plan(
            small_plan(), cache=first, keep_going=True, max_retries=0
        )
        assert report.counts() == {"ok": 2, "failed": 2}

        # Second sweep, fresh cache handle, failures gone: only the
        # two unfinished cells are recomputed.
        monkeypatch.undo()
        second = ResultCache(tmp_path)
        results = run_plan(small_plan(), cache=second)
        assert second.hits == 2
        assert second.misses == 2
        assert [r.to_dict() for r in results] == baseline

    def test_flush_failure_does_not_lose_the_result(
        self, monkeypatch, tmp_path
    ):
        cache = ResultCache(tmp_path)

        def broken_put(spec, result):
            raise OSError("disk full")

        monkeypatch.setattr(cache, "put", broken_put)
        results = run_plan(small_plan(), cache=cache)
        assert all(r is not None for r in results)


class TestPoolRecovery:
    def test_broken_pool_is_rebuilt_and_cells_rescheduled(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(
            "REPRO_TRACE_STORE_DIR", str(tmp_path / "traces")
        )
        baseline = [r.to_dict() for r in run_plan(small_plan())]
        monkeypatch.setenv(ENV_VAR, "pool.worker:kill-worker:77")
        reset_faults()
        SweepPool.shutdown()
        try:
            report = run_plan(
                small_plan(), workers=2, keep_going=True, max_retries=2
            )
        finally:
            SweepPool.shutdown()
        assert report.ok, report.failure_rows()
        assert [r.to_dict() for r in report.results] == baseline
        # At least one chunk rode through the broken pool and retried.
        assert report.total_attempts() > 4

    def test_dead_worker_fails_only_its_own_chunk(
        self, monkeypatch, tmp_path
    ):
        """A worker that dies takes only the chunk it was running: the
        other chunks land on the first attempt, and each death forks
        one replacement."""
        monkeypatch.setenv(
            "REPRO_TRACE_STORE_DIR", str(tmp_path / "traces")
        )
        real = run_mod.run_spec

        def die_on_black(spec, ctx):
            if spec.workload == "black":
                os._exit(86)
            return real(spec, ctx)

        SweepPool.shutdown()
        # Workers fork after the patch, so their chunks see it.
        monkeypatch.setattr(run_mod, "run_spec", die_on_black)
        try:
            report = run_plan(
                small_plan(), workers=2, keep_going=True, max_retries=1
            )
            stats = SweepPool.get(2).stats()
        finally:
            SweepPool.shutdown()
        assert report.counts() == {"ok": 2, "failed": 2}
        for cell in report.cells:
            if cell.status == "ok":
                assert cell.attempts == 1 and not cell.failures
            else:
                assert cell.attempts == 2
                assert [f.error_type for f in cell.failures] == \
                    ["WorkerDied"] * 2
                assert all(f.retryable for f in cell.failures)
        assert stats["replaced"] == 4 and stats["busy"] == 0

    def test_hung_chunk_times_out_and_worker_is_replaced(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(
            "REPRO_TRACE_STORE_DIR", str(tmp_path / "traces")
        )
        monkeypatch.setattr(run_mod, "_TIMEOUT_GRACE_S", 0.0)
        SweepPool.shutdown()
        try:
            report = run_plan(
                small_plan(), workers=2, keep_going=True,
                max_retries=0, cell_timeout=1e-4,
            )
            stats = SweepPool.get(2).stats()
            width = SweepPool.width()
        finally:
            SweepPool.shutdown()
        assert not report.ok
        for cell in report.failed:
            assert cell.failures[-1].error_type == "CellTimeout"
            assert cell.failures[-1].retryable
        # Each hung worker was terminated and replaced, not left behind
        # holding its chunk.
        assert stats["replaced"] >= 1 and stats["busy"] == 0
        assert width == len(stats["pids"]) == 2


class TestSignalHandling:
    def test_sigterm_is_delivered_as_keyboard_interrupt(self):
        previous = signal.getsignal(signal.SIGTERM)
        with pytest.raises(KeyboardInterrupt):
            with _sigterm_as_interrupt():
                os.kill(os.getpid(), signal.SIGTERM)
                # The interpreter raises at the next bytecode check.
                time.sleep(1.0)
                pytest.fail("SIGTERM was not delivered")
        assert signal.getsignal(signal.SIGTERM) == previous
