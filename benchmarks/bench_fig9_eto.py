"""Figure 9: execution-time overhead (ETO) per workload, T=32K and 16K.

The grid is the shared Figure 8/9 :class:`repro.experiments.Plan`
(``_common.fig8_plan``); this bench reads the ETO metric of the same
cached cells.

Paper means at T=32K: PRA 0.26%, SCA_64 1.32%, SCA_128 0.43%,
PRCAT_64 0.23%, DRCAT_64 0.16%; at T=16K: 0.39 / 3.42 / 1.38 / 0.49 /
0.35%.  The reproduced shape: all ETOs sub-percent-ish, SCA_64 worst,
the CAT schemes best, and T=16K uniformly worse than T=32K.
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
            row[label] = 100.0 * results[(workload, label)].eto
        rows.append(row)
    mean_row = {"workload": "Mean"}
    for label in LABELS:
        mean_row[label] = mean(row[label] for row in rows)
    rows.append(mean_row)
    return rows


def emit_threshold(config, refresh_threshold, rows):
    t = refresh_threshold // 1024
    return emit(
        config, f"fig9_eto_t{t}k",
        f"Figure 9 (T={t}K): ETO per workload (%)",
        rows,
        ["workload"] + LABELS,
        parameters={"refresh_threshold": refresh_threshold},
        plan=fig8_plan(refresh_threshold, config),
    )


def artifacts(config):
    """JSON artifacts for ``repro verify`` (both thresholds)."""
    return [emit_threshold(config, t, build_rows(config, t)) for t in (32768, 16384)]


def test_fig9_eto_t32k(benchmark):
    rows = benchmark.pedantic(
        build_rows, args=(bench_config(), 32768), iterations=1, rounds=1
    )
    emit_threshold(bench_config(), 32768, rows)
    means = rows[-1]
    # Paper shape: SCA_64 is the worst; CAT at least ~2x better.
    assert means["SCA_64"] == max(means[l] for l in LABELS)
    assert means["DRCAT_64"] < 0.5 * means["SCA_64"]
    assert means["PRCAT_64"] < 0.5 * means["SCA_64"]
    # All overheads remain small (the paper's are all < 1.4% here).
    assert all(means[l] < 3.0 for l in LABELS)


def test_fig9_eto_t16k(benchmark):
    rows = benchmark.pedantic(
        build_rows, args=(bench_config(), 16384), iterations=1, rounds=1
    )
    emit_threshold(bench_config(), 16384, rows)
    means16 = rows[-1]
    means32 = build_rows(bench_config(), 32768)[-1]
    # Halving T increases every deterministic scheme's ETO.
    for label in ("SCA_64", "SCA_128"):
        assert means16[label] > means32[label]
    # SCA_64 stays the worst and the CAT schemes the best (paper:
    # 3.42% for SCA_64 vs 0.35-0.49% for the CAT schemes at T=16K).
    assert means16["SCA_64"] == max(means16[l] for l in LABELS)
    assert means16["DRCAT_64"] < 0.5 * means16["SCA_64"]
    # In absolute terms SCA_64 loses the most ETO when T halves.
    sca_delta = means16["SCA_64"] - means32["SCA_64"]
    drcat_delta = means16["DRCAT_64"] - means32["DRCAT_64"]
    assert sca_delta > drcat_delta
