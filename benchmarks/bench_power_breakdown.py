"""Power figure (Section VII-B): CMRPO component breakdown per scheme.

The Figure 13/14-style power comparison: for each Figure 8 scheme at
T=32K and T=16K, the 18-workload mean of the three CMRPO power
components (dynamic counter/PRNG energy, counter SRAM leakage, victim-
row refresh energy) plus their total, all in mW per bank.  Reuses the
Figure 8/9 sweep, so the rows are means of exactly the runs those
figures plot.  Paper shape: PRA's cost is the TRNG energy drawn on
every activation (its refresh component is tiny); SCA's is the victim
refreshes of whole counter groups, exploding as T halves; the CAT
schemes keep every component small and their totals sit well below
SCA_64's.
"""

from _common import FIG8_LABELS, bench_config, emit, fig8_plan, fig8_sweep

from repro.energy.cmrpo import mean_breakdown
from repro.workloads.suites import WORKLOAD_ORDER

THRESHOLDS = (32768, 16384)

COLUMNS = ["scheme", "T", "dynamic_mw", "static_mw", "refresh_mw",
           "total_mw"]


def scheme_breakdowns(config, refresh_threshold):
    """{label: 18-workload mean CMRPOBreakdown} at one threshold."""
    results = fig8_sweep(config, refresh_threshold)
    return {
        label: mean_breakdown(
            results[(workload, label)].cmrpo_breakdown
            for workload in WORKLOAD_ORDER
        )
        for label in FIG8_LABELS
    }


def build_rows(config):
    rows = []
    for threshold in THRESHOLDS:
        means = scheme_breakdowns(config, threshold)
        for label in FIG8_LABELS:
            b = means[label]
            rows.append({
                "scheme": label,
                "T": threshold,
                "dynamic_mw": b.dynamic_mw,
                "static_mw": b.static_mw,
                "refresh_mw": b.refresh_mw,
                "total_mw": b.total_mw,
            })
    return rows


def emit_rows(config, rows):
    return emit(
        config, "power_breakdown",
        "Power: mean CMRPO component breakdown (mW per bank)",
        rows,
        COLUMNS,
        parameters={"thresholds": ",".join(str(t) for t in THRESHOLDS)},
        plan=fig8_plan(THRESHOLDS[0], config) + fig8_plan(THRESHOLDS[1], config),
    )


def artifacts(config):
    """JSON artifacts for ``repro verify``."""
    return [emit_rows(config, build_rows(config))]


def test_power_breakdown(benchmark):
    rows = benchmark.pedantic(build_rows, args=(bench_config(),), iterations=1, rounds=1)
    emit_rows(bench_config(), rows)
    by_key = {(row["scheme"], row["T"]): row for row in rows}
    for row in rows:
        # Components are non-negative and sum to the reported total.
        assert row["dynamic_mw"] >= 0 and row["static_mw"] >= 0
        assert row["refresh_mw"] >= 0
        total = row["dynamic_mw"] + row["static_mw"] + row["refresh_mw"]
        assert abs(total - row["total_mw"]) < 1e-9
    for t in THRESHOLDS:
        # Paper shape: CAT totals sit well below SCA_64's...
        assert by_key[("DRCAT_64", t)]["total_mw"] < \
            0.6 * by_key[("SCA_64", t)]["total_mw"]
        # ...PRA's cost is the TRNG draw per activation, not refreshes...
        pra = by_key[("PRA", t)]
        assert pra["dynamic_mw"] > 10.0 * pra["refresh_mw"]
        # ...while SCA's is dominated by over-refreshing whole groups.
        sca = by_key[("SCA_64", t)]
        assert sca["refresh_mw"] > sca["dynamic_mw"] + sca["static_mw"]
