"""Figure 8: CMRPO per workload for T=32K and T=16K (dual-core).

Regenerates the paper's headline comparison: PRA, SCA_64, SCA_128,
PRCAT_64 and DRCAT_64 over the 18 MSC workloads.  The grid is declared
as a :class:`repro.experiments.Plan` (see ``_common.fig8_plan``), shared
with Figure 9.  Paper shape at T=32K: the CAT schemes' mean sits far
below SCA's and PRA's; at T=16K SCA_64 degrades sharply (paper: 22%)
while DRCAT barely moves (4 -> 4.5%).
"""

from _common import FIG8_LABELS, bench_config, emit, fig8_plan, fig8_sweep, mean

from repro.workloads.suites import WORKLOAD_ORDER

LABELS = FIG8_LABELS


def build_rows(config, refresh_threshold):
    results = fig8_sweep(config, refresh_threshold)
    rows = []
    for workload in WORKLOAD_ORDER:
        row = {"workload": workload}
        for label in LABELS:
            row[label] = 100.0 * results[(workload, label)].cmrpo
        rows.append(row)
    mean_row = {"workload": "Mean"}
    for label in LABELS:
        mean_row[label] = mean(row[label] for row in rows)
    rows.append(mean_row)
    return rows


def emit_threshold(config, refresh_threshold, rows):
    t = refresh_threshold // 1024
    return emit(
        config, f"fig8_cmrpo_t{t}k",
        f"Figure 8 (T={t}K): CMRPO per workload (%)",
        rows,
        ["workload"] + LABELS,
        parameters={"refresh_threshold": refresh_threshold},
        plan=fig8_plan(refresh_threshold, config),
    )


def artifacts(config):
    """JSON artifacts for ``repro verify`` (both thresholds)."""
    return [emit_threshold(config, t, build_rows(config, t)) for t in (32768, 16384)]


def test_fig8_cmrpo_t32k(benchmark):
    rows = benchmark.pedantic(
        build_rows, args=(bench_config(), 32768), iterations=1, rounds=1
    )
    emit_threshold(bench_config(), 32768, rows)
    means = rows[-1]
    # Paper shape: CAT schemes beat SCA_64 and PRA by a wide margin.
    assert means["DRCAT_64"] < 0.6 * means["SCA_64"]
    assert means["PRCAT_64"] < 0.6 * means["SCA_64"]
    assert means["DRCAT_64"] < 0.6 * means["PRA"]
    # Absolute plausibility: single-digit CMRPO for CAT, ~10% for PRA.
    assert means["DRCAT_64"] < 8.0
    assert 5.0 < means["PRA"] < 18.0


def test_fig8_cmrpo_t16k(benchmark):
    rows = benchmark.pedantic(
        build_rows, args=(bench_config(), 16384), iterations=1, rounds=1
    )
    emit_threshold(bench_config(), 16384, rows)
    means = rows[-1]
    means32 = build_rows(bench_config(), 32768)[-1]
    # Paper shape: halving T hits SCA hard, CAT only slightly.
    sca_growth = means["SCA_64"] - means32["SCA_64"]
    drcat_growth = means["DRCAT_64"] - means32["DRCAT_64"]
    assert sca_growth > 2.0 * max(drcat_growth, 0.1)
    assert means["DRCAT_64"] < means["SCA_128"] < means["SCA_64"]
