"""Energy figure (Section VII-B): mitigation-energy saving vs baselines.

Companion to ``bench_power_breakdown``: converts each scheme's mean
CMRPO power into per-interval mitigation energy
(:func:`repro.analysis.sca_energy.mitigation_energy_nj`) and reports the
percentage saving relative to the two baselines the paper compares
against — SCA_64 (the prior counter scheme) and PRA (the probabilistic
scheme).  Positive = cheaper than the baseline; the baselines' own rows
read 0 against themselves.  Paper shape: the CAT schemes save a large
majority of SCA_64's mitigation energy at T=16K, where SCA's refresh
energy blows up.
"""

from _common import FIG8_LABELS, bench_config, emit, fig8_plan

from bench_power_breakdown import THRESHOLDS, scheme_breakdowns

from repro.analysis.sca_energy import energy_savings_pct, mitigation_energy_nj

COLUMNS = ["scheme", "T", "energy_nj", "savings_vs_SCA_64",
           "savings_vs_PRA"]


def build_rows(config):
    rows = []
    for threshold in THRESHOLDS:
        means = scheme_breakdowns(config, threshold)
        energy = {
            label: mitigation_energy_nj(means[label].total_mw)
            for label in FIG8_LABELS
        }
        for label in FIG8_LABELS:
            rows.append({
                "scheme": label,
                "T": threshold,
                "energy_nj": energy[label],
                "savings_vs_SCA_64": energy_savings_pct(
                    energy["SCA_64"], energy[label]),
                "savings_vs_PRA": energy_savings_pct(
                    energy["PRA"], energy[label]),
            })
    return rows


def emit_rows(config, rows):
    return emit(
        config, "energy_savings",
        "Energy: per-interval mitigation-energy saving vs baselines (%)",
        rows,
        COLUMNS,
        parameters={"thresholds": ",".join(str(t) for t in THRESHOLDS)},
        plan=fig8_plan(THRESHOLDS[0], config) + fig8_plan(THRESHOLDS[1], config),
    )


def artifacts(config):
    """JSON artifacts for ``repro verify``."""
    return [emit_rows(config, build_rows(config))]


def test_energy_savings(benchmark):
    rows = benchmark.pedantic(build_rows, args=(bench_config(),), iterations=1, rounds=1)
    emit_rows(bench_config(), rows)
    by_key = {(row["scheme"], row["T"]): row for row in rows}
    for t in THRESHOLDS:
        # Baselines against themselves are exactly zero.
        assert by_key[("SCA_64", t)]["savings_vs_SCA_64"] == 0.0
        assert by_key[("PRA", t)]["savings_vs_PRA"] == 0.0
        # Paper shape: CAT schemes save a large share of SCA_64's energy.
        assert by_key[("DRCAT_64", t)]["savings_vs_SCA_64"] > 40.0
        assert by_key[("PRCAT_64", t)]["savings_vs_SCA_64"] > 40.0
    # SCA_64's own mitigation energy blows up as T halves.
    assert (by_key[("SCA_64", 16384)]["energy_nj"]
            > 1.5 * by_key[("SCA_64", 32768)]["energy_nj"])
