"""CMRPO — Crosstalk Mitigation Refresh Power Overhead (Section VI).

CMRPO is the average power a mitigation scheme spends deciding which rows
to refresh *and* refreshing them, expressed relative to the regular
auto-refresh power of a bank (2.5 mW for 64K rows over 64 ms).  Three
components add up (Section VII-B):

1. **dynamic** — per-access energy of the counters/PRNG times the access
   rate;
2. **static** — leakage of the counter SRAM + logic over a refresh
   interval;
3. **refresh** — the energy of the victim-row refreshes the scheme
   commands (1 nJ per row).

Calibration note (see DESIGN.md): the paper's headline percentages are
arithmetically consistent with its Table II only when the scheme's
static/dynamic hardware energy is amortised over the banks of the device
(a single PRNG serves all banks for PRA; CMRPO's reference power is
per-bank).  ``STATIC_AMORTIZATION_BANKS`` encodes that interpretation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.config import REFRESH_INTERVAL_S, REGULAR_REFRESH_POWER_MW, ROW_REFRESH_ENERGY_NJ
from repro.energy.hardware_model import (
    PRNGHardware,
    SchemeHardware,
    pra_hardware,
    scheme_hardware,
)

#: Banks the Table II hardware energy is amortised over (the paper's
#: 16-bank dual-core device).  See the calibration note above.
STATIC_AMORTIZATION_BANKS = 16

#: Storage-equivalent SCA counter count for the 32KB counter cache [26].
COUNTER_CACHE_EQUIVALENT_M = 2048


@dataclass(frozen=True, slots=True)
class CMRPOBreakdown:
    """CMRPO and its three components, all in mW (per bank)."""

    dynamic_mw: float
    static_mw: float
    refresh_mw: float
    reference_mw: float = REGULAR_REFRESH_POWER_MW

    @property
    def total_mw(self) -> float:
        """Sum of the three components (mW)."""
        return self.dynamic_mw + self.static_mw + self.refresh_mw

    @property
    def cmrpo(self) -> float:
        """The headline ratio (fraction, e.g. 0.04 for 4 %)."""
        return self.total_mw / self.reference_mw

    def as_dict(self) -> dict[str, float]:
        """Flat dict form (reports, tests)."""
        return {
            "dynamic_mw": self.dynamic_mw,
            "static_mw": self.static_mw,
            "refresh_mw": self.refresh_mw,
            "total_mw": self.total_mw,
            "cmrpo": self.cmrpo,
        }

    def to_dict(self) -> dict[str, float]:
        """Lossless raw-field form (round-trips via :meth:`from_dict`;
        unlike :meth:`as_dict` it carries no derived values)."""
        return {
            "dynamic_mw": self.dynamic_mw,
            "static_mw": self.static_mw,
            "refresh_mw": self.refresh_mw,
            "reference_mw": self.reference_mw,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CMRPOBreakdown":
        """Rebuild a breakdown serialized by :meth:`to_dict`."""
        return cls(
            dynamic_mw=float(doc["dynamic_mw"]),
            static_mw=float(doc["static_mw"]),
            refresh_mw=float(doc["refresh_mw"]),
            reference_mw=float(doc.get("reference_mw",
                                       REGULAR_REFRESH_POWER_MW)),
        )


def mean_breakdown(breakdowns) -> CMRPOBreakdown:
    """Component-wise arithmetic mean of several breakdowns.

    The power-comparison figures report a scheme's 18-workload average
    per component; averaging component-wise keeps the identity
    ``mean.total_mw == mean of totals`` exact (the components are
    linear).  All inputs must share one reference power.

    Parameters
    ----------
    breakdowns:
        Iterable of :class:`CMRPOBreakdown` (at least one).

    Returns
    -------
    CMRPOBreakdown
        The per-component mean, under the common reference power.
    """
    items = list(breakdowns)
    if not items:
        raise ValueError("mean_breakdown needs at least one breakdown")
    reference = items[0].reference_mw
    if any(b.reference_mw != reference for b in items):
        raise ValueError("breakdowns use different reference powers")
    n = len(items)
    return CMRPOBreakdown(
        dynamic_mw=sum(b.dynamic_mw for b in items) / n,
        static_mw=sum(b.static_mw for b in items) / n,
        refresh_mw=sum(b.refresh_mw for b in items) / n,
        reference_mw=reference,
    )


def compute_cmrpo(
    scheme: str,
    accesses_per_interval: float,
    victim_rows_per_interval: float,
    n_counters: int = 64,
    refresh_threshold: int = 32768,
    max_levels: int = 11,
) -> CMRPOBreakdown:
    """CMRPO of one bank from per-interval activity totals.

    Parameters
    ----------
    scheme:
        ``"sca"``, ``"pra"``, ``"prcat"``, ``"drcat"`` or ``"ccache"``
        (the counter-cache comparator, modelled as SCA hardware at its
        equivalent 2048-counter storage; its measured miss energy is a
        result parameter, not part of the CMRPO).
    accesses_per_interval:
        Mean row activations the bank receives per 64 ms interval (at
        full scale — callers rescale simulated counts first).
    victim_rows_per_interval:
        Mean rows the scheme refreshes per interval (scale-invariant, so
        simulated values pass straight through).
    """
    scheme = scheme.lower()
    interval_s = REFRESH_INTERVAL_S
    access_rate = accesses_per_interval / interval_s  # per second

    if scheme == "pra":
        prng: PRNGHardware = pra_hardware()
        dynamic_mw = prng.energy_per_access_nj * access_rate * 1e-9 * 1e3
        static_mw = 0.0  # the TRNG's static draw is inside its nJ/bit figure
    else:
        if scheme == "ccache":
            # Equivalent SCA storage for a 32KB / 2048-entry cache.
            scheme, n_counters = "sca", COUNTER_CACHE_EQUIVALENT_M
        hw: SchemeHardware = scheme_hardware(
            scheme, n_counters, refresh_threshold, max_levels
        )
        dynamic_mw = (
            hw.dynamic_nj_per_access * access_rate * 1e-9 * 1e3
        )
        static_mw = (
            hw.static_nj_per_interval
            / STATIC_AMORTIZATION_BANKS
            / interval_s
            * 1e-9
            * 1e3
        )
    refresh_mw = (
        victim_rows_per_interval * ROW_REFRESH_ENERGY_NJ / interval_s * 1e-9 * 1e3
    )
    return CMRPOBreakdown(
        dynamic_mw=dynamic_mw, static_mw=static_mw, refresh_mw=refresh_mw
    )
