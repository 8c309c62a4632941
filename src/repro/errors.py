"""Error taxonomy for fault-tolerant sweep execution.

Every failure surfaced by the sweep layer is classified on one axis:
*can retrying possibly help?*

* :class:`RetryableError` — transient operational failures (a dying
  worker, a hung chunk, a torn store write, an injected fault).  The
  scheduler re-runs the cell with exponential backoff, up to its retry
  budget.
* :class:`FatalError` — deterministic failures (a malformed spec, a
  broken scheme implementation).  Re-running the identical computation
  would fail identically, so the scheduler records the failure and
  moves on (or aborts, without ``keep_going``).

Exceptions outside the taxonomy are classified by
:func:`is_retryable`: operational exception types (``OSError``,
``TimeoutError``, ``MemoryError``, ``ConnectionError``) are treated as
transient, everything else — the ``ValueError``/``TypeError`` family
a code bug raises — as fatal.

:class:`CellFailure` is the structured record one failed attempt leaves
behind: what cell, which attempt, what raised, the full traceback, and
whether the scheduler considered it retryable.  Failures cross process
boundaries as plain dicts (tracebacks pickle badly), so the record
round-trips through :meth:`CellFailure.to_dict`/``from_dict``.
"""

from __future__ import annotations

import traceback as _traceback
from dataclasses import asdict, dataclass, field


class ReproError(Exception):
    """Base class for errors raised by the repro stack itself."""


class RetryableError(ReproError):
    """A transient failure: re-running the cell may succeed."""


class FatalError(ReproError):
    """A deterministic failure: retrying cannot help."""


class InjectedFault(RetryableError):
    """A failure injected by the deterministic fault harness
    (:mod:`repro.testing.faults`).  Always transient by construction —
    each armed fault fires at most once per process."""


class CellTimeout(RetryableError):
    """A worker sent nothing within its budget: a sweep chunk ran past
    its per-cell time budget, or a served run's worker went silent for
    the server's stall timeout."""


class RemoteError(ReproError):
    """An exception raised in another process, carried across as data.

    ``type_name`` and the message are the original's; ``retryable`` is
    the :func:`is_retryable` verdict taken where it was raised, and
    :func:`is_retryable` returns it for this error too.
    """

    def __init__(self, type_name: str, message: str,
                 retryable: bool) -> None:
        super().__init__(message)
        self.type_name = type_name
        self.retryable = retryable


#: Exception types outside the taxonomy that still indicate transient,
#: operational trouble rather than a code bug.
_RETRYABLE_TYPES = (
    OSError,
    TimeoutError,
    MemoryError,
    ConnectionError,
)


def is_retryable(exc: BaseException) -> bool:
    """Whether the scheduler should spend retry budget on ``exc``."""
    if isinstance(exc, RemoteError):
        return exc.retryable
    if isinstance(exc, FatalError):
        return False
    if isinstance(exc, RetryableError):
        return True
    return isinstance(exc, _RETRYABLE_TYPES)


def describe(exc: BaseException) -> str:
    """``"<type>: <message>"``, naming a remote error's original type."""
    name = exc.type_name if isinstance(exc, RemoteError) \
        else type(exc).__name__
    return f"{name}: {exc}"


@dataclass(frozen=True)
class CellFailure:
    """One failed attempt at one sweep cell, fully described.

    ``attempt`` is 1-based (attempt 1 is the first try).  ``traceback``
    is the formatted worker-side stack, captured where the exception
    happened — a remote failure is diagnosable without re-running it.
    """

    spec_hash: str
    label: str
    attempt: int
    error_type: str
    message: str
    traceback: str = ""
    retryable: bool = True

    @classmethod
    def from_exception(
        cls, spec, attempt: int, exc: BaseException
    ) -> "CellFailure":
        """Capture ``exc`` (with its live traceback) for one cell."""
        return cls(
            spec_hash=spec.content_hash(),
            label=f"{spec.workload_label}/{spec.scheme.display_label}",
            attempt=attempt,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                _traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
            retryable=is_retryable(exc),
        )

    def to_dict(self) -> dict:
        """Flat JSON-ready record of this failure."""
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "CellFailure":
        """Rebuild a failure record serialized by :meth:`to_dict`."""
        return cls(**doc)


class CellExecutionError(FatalError):
    """A sweep cell failed permanently (its retry budget is exhausted).

    Raised by ``run_plan`` without ``keep_going``; carries the failed
    cells' :class:`CellFailure` records and, when available, the full
    :class:`~repro.experiments.run.SweepReport` of the aborted sweep
    (``exc.report``) so completed work remains inspectable.
    """

    def __init__(self, failures: list[CellFailure], report=None) -> None:
        self.failures = list(failures)
        self.report = report
        first = self.failures[0] if self.failures else None
        detail = (
            f"{first.label}: {first.error_type}: {first.message}"
            if first else "unknown cell"
        )
        extra = len(self.failures) - 1
        suffix = f" (+{extra} more failed cell(s))" if extra > 0 else ""
        super().__init__(
            f"sweep cell failed permanently — {detail}{suffix}"
        )


@dataclass
class CellStatus:
    """Final per-cell accounting one sweep run produces.

    ``status`` is ``ok`` (simulated successfully), ``cached`` (served
    from the result cache), ``failed`` (retry budget exhausted) or
    ``skipped`` (the sweep aborted before this cell ran).
    """

    index: int
    spec_hash: str
    label: str
    status: str
    attempts: int = 0
    elapsed_s: float = 0.0
    failures: list[CellFailure] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready record, failures serialized recursively."""
        doc = asdict(self)
        doc["failures"] = [f.to_dict() for f in self.failures]
        return doc


__all__ = [
    "ReproError",
    "RetryableError",
    "FatalError",
    "InjectedFault",
    "CellTimeout",
    "RemoteError",
    "is_retryable",
    "describe",
    "CellFailure",
    "CellStatus",
    "CellExecutionError",
]
