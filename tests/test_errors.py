"""Tests for the failure taxonomy (repro.errors)."""

import pickle

import pytest

from repro.errors import (
    CellExecutionError,
    CellFailure,
    CellStatus,
    CellTimeout,
    FatalError,
    InjectedFault,
    ReproError,
    RetryableError,
    is_retryable,
)
from repro.experiments import ExperimentSpec, SchemeSpec

FAST = dict(scale=128.0, n_banks=1, n_intervals=1)


def fast_spec(**overrides):
    fields = dict(scheme=SchemeSpec("drcat"), workload="libq", **FAST)
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestTaxonomy:
    def test_hierarchy(self):
        assert issubclass(RetryableError, ReproError)
        assert issubclass(FatalError, ReproError)
        assert issubclass(InjectedFault, RetryableError)
        assert issubclass(CellTimeout, RetryableError)
        assert issubclass(CellExecutionError, FatalError)

    def test_injected_fault_not_swallowable(self):
        # The store robustness paths catch (ValueError, KeyError,
        # TypeError, OSError) to treat corruption as a miss; an injected
        # *raise* fault must never be silently absorbed by them.
        assert not issubclass(
            InjectedFault, (ValueError, KeyError, TypeError, OSError)
        )

    def test_explicit_classification_wins(self):
        assert is_retryable(RetryableError("x"))
        assert not is_retryable(FatalError("x"))
        assert is_retryable(InjectedFault("x"))
        assert is_retryable(CellTimeout("x"))
        assert not is_retryable(CellExecutionError([]))

    @pytest.mark.parametrize("exc", [
        OSError("disk"),
        TimeoutError("slow"),
        MemoryError(),
        ConnectionError("gone"),
    ])
    def test_operational_types_are_transient(self, exc):
        assert is_retryable(exc)

    @pytest.mark.parametrize("exc", [
        ValueError("bad"),
        TypeError("bad"),
        KeyError("bad"),
        ZeroDivisionError(),
        AssertionError(),
    ])
    def test_code_bugs_are_fatal(self, exc):
        assert not is_retryable(exc)


class TestCellFailure:
    def test_from_exception_captures_traceback(self):
        spec = fast_spec()
        try:
            raise OSError("store went away")
        except OSError as exc:
            failure = CellFailure.from_exception(spec, 2, exc)
        assert failure.spec_hash == spec.content_hash()
        assert failure.label == "libq/drcat"
        assert failure.attempt == 2
        assert failure.error_type == "OSError"
        assert failure.message == "store went away"
        assert failure.retryable
        assert "store went away" in failure.traceback
        assert "test_errors.py" in failure.traceback

    def test_fatal_classification_recorded(self):
        failure = CellFailure.from_exception(
            fast_spec(), 1, ValueError("bug")
        )
        assert not failure.retryable

    def test_dict_round_trip(self):
        original = CellFailure.from_exception(
            fast_spec(), 3, InjectedFault("boom")
        )
        doc = original.to_dict()
        assert CellFailure.from_dict(doc) == original
        # The wire form must survive pickling (chunk outcomes cross the
        # process boundary as dicts inside future results).
        assert pickle.loads(pickle.dumps(doc)) == doc


class TestCellExecutionError:
    def _failure(self, exc):
        return CellFailure.from_exception(fast_spec(), 1, exc)

    def test_message_names_first_cell(self):
        err = CellExecutionError([self._failure(OSError("io"))])
        assert "libq/drcat" in str(err)
        assert "OSError" in str(err)
        assert "more failed" not in str(err)

    def test_message_counts_extra_failures(self):
        err = CellExecutionError([
            self._failure(OSError("a")), self._failure(OSError("b")),
        ])
        assert "+1 more failed cell(s)" in str(err)

    def test_carries_report(self):
        sentinel = object()
        err = CellExecutionError([self._failure(OSError())], sentinel)
        assert err.report is sentinel

    def test_empty_failures_tolerated(self):
        assert "unknown cell" in str(CellExecutionError([]))


class TestCellStatus:
    def test_to_dict_nests_failures(self):
        status = CellStatus(
            index=4, spec_hash="abc", label="libq/drcat", status="failed",
            attempts=3,
            failures=[CellFailure.from_exception(
                fast_spec(), 1, OSError("x"))],
        )
        doc = status.to_dict()
        assert doc["index"] == 4
        assert doc["status"] == "failed"
        assert doc["failures"][0]["error_type"] == "OSError"
