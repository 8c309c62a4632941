"""Output checks: every measured result against an independent reference.

Results are compared as canonical JSON bytes of
``SimulationResult.to_dict()`` (sorted keys), the same form the server
sends and the result cache stores, so any differing statistic, however
small, is a mismatch.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

#: Width of the process pool references run on (the box has two cores);
#: measured operations never run on it.
REFERENCE_WORKERS = 2


def result_bytes(result) -> str:
    """Canonical text of one result (``to_dict`` with sorted keys)."""
    return json.dumps(result.to_dict(), sort_keys=True, indent=1)


def doc_bytes(doc: dict) -> str:
    """Canonical text of a result document received over the wire."""
    return json.dumps(doc, sort_keys=True, indent=1)


def mismatches(measured: list[str], reference: list[str]) -> int:
    """How many measured results differ from their reference."""
    if len(measured) != len(reference):
        raise ValueError("measured and reference lists differ in length")
    return sum(1 for a, b in zip(measured, reference) if a != b)


def perturbed(result):
    """A copy of ``result`` with one simulated statistic off by one."""
    totals = replace(result.totals,
                     refresh_commands=result.totals.refresh_commands + 1)
    return replace(result, totals=totals)


def catches_perturbation(result) -> bool:
    """True when the comparison flags a one-count change in ``result``."""
    reference = [result_bytes(result)]
    return (mismatches([result_bytes(result)], reference) == 0
            and mismatches([result_bytes(perturbed(result))], reference) == 1)


def reference_results(specs, work: Path) -> list[str]:
    """Canonical result bytes of ``specs``, computed independently.

    Runs after the timed region on a small process pool, with a trace
    store of its own (streams are regenerated, not shared with the
    measured runs) and fused evaluation off, so every spec takes the
    plain ``run_spec`` path.
    """
    from repro.experiments import SweepPool, run_plan

    keys = ("REPRO_TRACE_STORE_DIR", "REPRO_FUSED_SWEEP")
    saved = {key: os.environ.get(key) for key in keys}
    store = Path(tempfile.mkdtemp(prefix="reference-", dir=work))
    os.environ["REPRO_TRACE_STORE_DIR"] = str(store)
    os.environ["REPRO_FUSED_SWEEP"] = "0"
    try:
        results = run_plan(list(specs), workers=REFERENCE_WORKERS)
    finally:
        SweepPool.shutdown()
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(store, ignore_errors=True)
    return [result_bytes(r) for r in results]
