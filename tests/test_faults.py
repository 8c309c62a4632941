"""Tests for the deterministic fault-injection harness.

Unit coverage of :mod:`repro.testing.faults` itself, then the
acceptance matrix: for every injection site and applicable fault kind,
a small sweep with the harness armed must converge — within the retry
budget — to results bit-identical to the uninjected baseline.
"""

import json

import pytest

from repro.errors import InjectedFault
from repro.experiments import ExperimentSpec, Plan, SchemeSpec, run_plan
from repro.experiments.run import SweepPool, SweepReport
from repro.report.config import RunContext
from repro.testing.faults import (
    ENV_VAR,
    FAULT_KINDS,
    FAULT_SITES,
    FaultConfigError,
    FaultSpec,
    corrupting,
    fault_point,
    fault_scope,
    parse_faults,
    reset_faults,
)

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
    """Disarm and forget fired-fault state around every test."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    reset_faults()
    yield
    reset_faults()


class TestParsing:
    def test_empty_is_disarmed(self):
        assert parse_faults("") == ()
        assert parse_faults(" , ,") == ()

    def test_site_kind_seed(self):
        (spec,) = parse_faults("tracestore.read:raise:7")
        assert spec.key == ("tracestore.read", "raise", 7)

    def test_seed_defaults_to_zero(self):
        (spec,) = parse_faults("cache.put:corrupt")
        assert spec.seed == 0

    def test_multiple_faults(self):
        specs = parse_faults(
            "pool.worker:kill-worker, session.advance:delay:2"
        )
        assert [s.site for s in specs] == ["pool.worker", "session.advance"]

    @pytest.mark.parametrize("raw", [
        "nowhere:raise",           # unknown site
        "cache.put:explode",       # unknown kind
        "cache.put",               # missing kind
        "cache.put:raise:x",       # non-integer seed
        "cache.put:raise:1:2",     # too many fields
    ])
    def test_malformed_values_rejected(self, raw):
        with pytest.raises(FaultConfigError):
            parse_faults(raw)

    def test_registry_is_closed(self):
        for site in FAULT_SITES:
            for kind in FAULT_KINDS:
                FaultSpec(site, kind)  # must not raise


class TestHarness:
    def test_disarmed_is_a_noop(self):
        fault_point("session.advance")
        assert corrupting("cache.put", "payload") == "payload"
        assert RunContext.from_env().faults == ""

    def test_raise_fires_exactly_once(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "session.advance:raise:1")
        reset_faults()
        assert RunContext.from_env().faults == "session.advance:raise:1"
        with pytest.raises(InjectedFault, match="session.advance"):
            fault_point("session.advance")
        fault_point("session.advance")  # one-shot: second call is clean

    def test_site_mismatch_never_fires(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "tracestore.write:raise")
        reset_faults()
        fault_point("tracestore.read")
        fault_point("session.advance")
        with pytest.raises(InjectedFault):
            fault_point("tracestore.write")

    def test_recovery_rounds_hold_fire(self):
        with fault_scope("session.advance:raise", 1):
            fault_point("session.advance")  # armed, but past round zero
        with fault_scope("session.advance:raise", 0):
            with pytest.raises(InjectedFault):
                fault_point("session.advance")

    def test_scope_arms_its_plan_and_restores_the_outer_one(
        self, monkeypatch
    ):
        with fault_scope("session.advance:raise", 0):
            with fault_scope("", 0):
                fault_point("session.advance")  # the inner plan is empty
            with pytest.raises(InjectedFault):
                fault_point("session.advance")
        fault_point("tracestore.read")  # no scope, REPRO_FAULTS unset

    def test_round_is_per_thread(self, monkeypatch):
        """A recovery round in one thread leaves another at round zero."""
        import threading

        monkeypatch.setenv(ENV_VAR, "session.advance:raise")
        reset_faults()
        raised = []

        def other() -> None:
            try:
                fault_point("session.advance")
            except InjectedFault:
                raised.append(True)

        with fault_scope("session.advance:raise", 1):
            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
            fault_point("session.advance")  # held: this thread is past zero
        assert raised == [True]

    def test_rearming_resets_fired_state(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "session.advance:raise:1")
        reset_faults()
        with pytest.raises(InjectedFault):
            fault_point("session.advance")
        monkeypatch.setenv(ENV_VAR, "session.advance:raise:2")
        with pytest.raises(InjectedFault):
            fault_point("session.advance")

    def test_corruption_is_deterministic_and_invalid_json(
        self, monkeypatch
    ):
        payload = json.dumps({"key": "value", "n": list(range(40))})
        monkeypatch.setenv(ENV_VAR, "cache.put:corrupt:9")
        reset_faults()
        first = corrupting("cache.put", payload)
        reset_faults()
        second = corrupting("cache.put", payload)
        assert first == second  # seeded, byte-reproducible
        assert first != payload
        with pytest.raises(json.JSONDecodeError):
            json.loads(first)

    def test_corruption_handles_bytes(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "tracestore.write:corrupt:3")
        reset_faults()
        mangled = corrupting("tracestore.write", b"\x93NUMPY" + b"x" * 64)
        assert isinstance(mangled, bytes)
        assert mangled != b"\x93NUMPY" + b"x" * 64

    def test_delay_returns(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "session.advance:delay:4")
        reset_faults()
        fault_point("session.advance")  # sleeps briefly, must not raise


@pytest.fixture(scope="module")
def baseline():
    """Uninjected reference results for the 4-cell matrix plan."""
    return [r.to_dict() for r in run_plan(small_plan())]


def _assert_converged(report, baseline):
    assert isinstance(report, SweepReport)
    assert report.ok, report.failure_rows()
    assert [c.status for c in report.cells] == ["ok"] * 4
    assert [r.to_dict() for r in report.results] == baseline


class TestInjectionMatrixSerial:
    """Every serial site x kind: armed sweeps match the disarmed run."""

    @pytest.mark.parametrize("fault", [
        "session.advance:raise:11",
        "session.advance:delay:12",
        "tracestore.read:raise:13",
        "tracestore.read:corrupt:14",
        "tracestore.read:delay:15",
        "tracestore.write:raise:16",
        "tracestore.write:corrupt:17",
        "tracestore.write:delay:18",
    ])
    def test_store_and_session_faults(
        self, fault, baseline, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_TRACE_STORE_DIR", str(tmp_path / "tr"))
        monkeypatch.setenv(ENV_VAR, fault)
        reset_faults()
        report = run_plan(small_plan(), keep_going=True, max_retries=2)
        _assert_converged(report, baseline)

    @pytest.mark.parametrize("fault", [
        "cache.put:raise:21",
        "cache.put:corrupt:22",
        "cache.put:delay:23",
    ])
    def test_cache_faults(self, fault, baseline, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_VAR, fault)
        reset_faults()
        report = run_plan(
            small_plan(), cache=tmp_path / "cache",
            keep_going=True, max_retries=2,
        )
        _assert_converged(report, baseline)

    def test_injected_raise_consumes_retry_budget(
        self, baseline, monkeypatch
    ):
        monkeypatch.setenv(ENV_VAR, "session.advance:raise:31")
        reset_faults()
        report = run_plan(small_plan(), keep_going=True, max_retries=2)
        _assert_converged(report, baseline)
        # Exactly one cell needed a second attempt.
        assert report.total_attempts() == 5
        (retried,) = [c for c in report.cells if c.attempts == 2]
        assert retried.failures[0].error_type == "InjectedFault"


class TestInjectionMatrixPooled:
    """pool.worker faults, including the worker-kill / broken-pool path."""

    @pytest.mark.parametrize("fault", [
        "pool.worker:raise:41",
        "pool.worker:delay:42",
        "pool.worker:kill-worker:43",
    ])
    def test_pooled_faults(self, fault, baseline, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_STORE_DIR", str(tmp_path / "tr"))
        monkeypatch.setenv(ENV_VAR, fault)
        reset_faults()
        # Fresh workers: a reused pool may have already burned this
        # fault's one-shot state in a previous test.
        SweepPool.shutdown()
        try:
            report = run_plan(
                small_plan(), workers=2, keep_going=True, max_retries=2,
            )
        finally:
            SweepPool.shutdown()
        _assert_converged(report, baseline)

    def test_the_context_carries_the_plan_to_running_workers(
        self, baseline, tmp_path
    ):
        """Workers forked while nothing was armed fire the plan that a
        chunk's context carries, on round zero only."""
        SweepPool.shutdown()
        SweepPool.get(2)
        ctx = RunContext(trace_store=str(tmp_path / "tr"),
                         faults="pool.worker:raise:44")
        try:
            report = run_plan(small_plan(), workers=2, keep_going=True,
                              max_retries=2, ctx=ctx)
        finally:
            SweepPool.shutdown()
        _assert_converged(report, baseline)
        assert report.total_attempts() > len(report.cells)
