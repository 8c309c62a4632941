"""Deterministic test harnesses (fault injection, failure drills).

Nothing in this package affects production behaviour unless explicitly
armed (``REPRO_FAULTS``, carried by a run's ``RunContext``); see
:mod:`repro.testing.faults`.
"""

from repro.testing.faults import (
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

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultConfigError",
    "FaultSpec",
    "corrupting",
    "fault_point",
    "fault_scope",
    "parse_faults",
    "reset_faults",
]
