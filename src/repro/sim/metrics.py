"""Result records and metric derivation for trace-driven runs.

A simulation run produces raw per-bank activity totals; this module
turns them into the paper's two headline metrics:

* **CMRPO** — computed by :mod:`repro.energy.cmrpo` from full-scale
  per-interval access and victim-refresh counts;
* **ETO** — the fraction of execution time demand requests spent stalled
  behind mitigation refreshes, corrected for the simulation's time-axis
  compression (see DESIGN.md, "Scale factor").
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.dram.config import DRAMTimings, SystemConfig
from repro.energy.cmrpo import CMRPOBreakdown


def _encode_param(value):
    """JSON-safe form of one run parameter (system configs are tagged)."""
    if isinstance(value, SystemConfig):
        return {"__type__": "SystemConfig", **asdict(value)}
    return value


def _decode_param(value):
    """Inverse of :func:`_encode_param`."""
    if isinstance(value, dict) and value.get("__type__") == "SystemConfig":
        doc = {k: v for k, v in value.items() if k != "__type__"}
        if isinstance(doc.get("timings"), dict):
            doc["timings"] = DRAMTimings(**doc["timings"])
        return SystemConfig(**doc)
    return value


@dataclass(frozen=True, slots=True)
class RunTotals:
    """Raw, simulation-scale totals collected by one run."""

    scheme: str
    workload: str
    scale: float
    n_banks_simulated: int
    n_intervals: int
    accesses: int
    refresh_commands: int
    rows_refreshed: int
    stall_ns: float
    elapsed_ns: float
    mitigation_busy_ns: float
    #: activations per simulated bank per interval, at full (paper) scale
    full_scale_accesses_per_interval: float

    @property
    def rows_refreshed_per_bank_interval(self) -> float:
        """Victim rows per bank per interval (scale-invariant)."""
        denom = self.n_banks_simulated * self.n_intervals
        return self.rows_refreshed / denom if denom else 0.0

    @property
    def eto(self) -> float:
        """Execution-time overhead (fraction).

        The simulated interval is compressed by ``scale`` while the
        per-event stall magnitudes are physical, so the raw stall ratio
        overstates ETO by exactly ``scale``; divide it back out.
        """
        if self.elapsed_ns <= 0:
            return 0.0
        return (self.stall_ns / self.elapsed_ns) / self.scale

    def to_dict(self) -> dict:
        """JSON-ready raw-field form (see :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunTotals":
        """Rebuild totals serialized by :meth:`to_dict`."""
        return cls(**doc)


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """One (workload, scheme, config) experiment outcome."""

    totals: RunTotals
    cmrpo_breakdown: CMRPOBreakdown
    parameters: dict[str, object] = field(default_factory=dict)

    @property
    def cmrpo(self) -> float:
        """Crosstalk mitigation refresh power overhead (fraction)."""
        return self.cmrpo_breakdown.cmrpo

    @property
    def eto(self) -> float:
        """Execution time overhead (fraction)."""
        return self.totals.eto

    @property
    def scheme(self) -> str:
        """Scheme kind this result was measured for."""
        return self.totals.scheme

    @property
    def workload(self) -> str:
        """Workload label this result was measured on."""
        return self.totals.workload

    def to_dict(self) -> dict:
        """JSON-ready nested form: raw totals, the CMRPO breakdown, and
        the run parameters — everything :meth:`from_dict` needs to
        rebuild the result (derived metrics recompute from the raw
        fields, so nothing lossy is stored)."""
        return {
            "totals": self.totals.to_dict(),
            "cmrpo_breakdown": self.cmrpo_breakdown.to_dict(),
            "parameters": {
                k: _encode_param(v) for k, v in self.parameters.items()
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SimulationResult":
        """Rebuild a result serialized by :meth:`to_dict`."""
        return cls(
            totals=RunTotals.from_dict(doc["totals"]),
            cmrpo_breakdown=CMRPOBreakdown.from_dict(doc["cmrpo_breakdown"]),
            parameters={
                k: _decode_param(v)
                for k, v in doc.get("parameters", {}).items()
            },
        )

    def summary(self) -> dict[str, float | str]:
        """Flat record suitable for table printing."""
        return {
            "workload": self.workload,
            "scheme": self.scheme,
            "cmrpo_pct": 100.0 * self.cmrpo,
            "eto_pct": 100.0 * self.eto,
            "dynamic_mw": self.cmrpo_breakdown.dynamic_mw,
            "static_mw": self.cmrpo_breakdown.static_mw,
            "refresh_mw": self.cmrpo_breakdown.refresh_mw,
            "rows_per_interval": self.totals.rows_refreshed_per_bank_interval,
        }


def mean_over(results: list[SimulationResult], attr: str) -> float:
    """Arithmetic mean of ``attr`` (``"cmrpo"`` or ``"eto"``) over runs."""
    if not results:
        raise ValueError("no results to average")
    return sum(getattr(r, attr) for r in results) / len(results)


def format_table(rows: list[dict[str, object]], columns: list[str]) -> str:
    """Plain-text table used by benches to print paper-style rows."""
    widths = {c: len(c) for c in columns}
    rendered: list[list[str]] = []
    for row in rows:
        cells = []
        for c in columns:
            value = row.get(c, "")
            text = f"{value:.3f}" if isinstance(value, float) else str(value)
            widths[c] = max(widths[c], len(text))
            cells.append(text)
        rendered.append(cells)
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines = [header, "  ".join("-" * widths[c] for c in columns)]
    for cells in rendered:
        lines.append(
            "  ".join(cell.ljust(widths[c]) for cell, c in zip(cells, columns))
        )
    return "\n".join(lines)
