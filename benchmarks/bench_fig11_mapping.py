"""Figure 11: effect of mapping policy and core count on CMRPO.

Paper shape (T=16K, iso-area configurations): quad-core/2-channel is
the most stressed configuration — SCA's CMRPO blows up to ~21% and PRA
to ~18% while DRCAT stays at ~7%; the 4-channel policy (4x the banks)
relieves pressure for every scheme.  Quad-core systems use 128K-row
banks and double the counters (SCA_256 / CAT_128) per the paper.
"""

import functools

from _common import PRA_P_FOR_T, base_spec, bench_config, emit, mean, run_bench_plan

from repro.experiments import Plan, SchemeSpec

WORKLOADS = ("comm1", "black", "MTC", "face")

#: (config name, intensity multiplier, SCA M, CAT M).  Quad-core systems
#: generate more memory traffic (less L2 locality, paper Section VIII-B)
#: and use doubled iso-area counter budgets.
CONFIG_ROWS = [
    ("dual-core/2channels", 1.0, 128, 64),
    ("quad-core/2channels", 2.2, 256, 128),
    ("quad-core/4channels", 0.55, 256, 128),
]


def _config_schemes(pra_p, sca_m, cat_m):
    return [
        SchemeSpec.create("pra", "PRA", probability=pra_p),
        SchemeSpec.create("sca", "SCA", n_counters=sca_m),
        SchemeSpec.create("prcat", "PRCAT", n_counters=cat_m),
        SchemeSpec.create("drcat", "DRCAT", n_counters=cat_m),
    ]


@functools.cache
def build_plan(config, refresh_threshold) -> Plan:
    """One grid per iso-area configuration row, concatenated."""
    pra_p = PRA_P_FOR_T[refresh_threshold]
    plan = None
    for name, traffic_mult, sca_m, cat_m in CONFIG_ROWS:
        grid = Plan.grid(
            base_spec(
                config,
                system=name,
                intensity_scale=traffic_mult,
                refresh_threshold=refresh_threshold,
            ),
            scheme=_config_schemes(pra_p, sca_m, cat_m),
            workload=list(WORKLOADS),
        )
        plan = grid if plan is None else plan + grid
    return plan


def build_rows(config, refresh_threshold):
    plan = build_plan(config, refresh_threshold)
    results = run_bench_plan(config, plan)
    rows = []
    cells_per_config = 4 * len(WORKLOADS)
    for i, (name, _mult, _sca_m, _cat_m) in enumerate(CONFIG_ROWS):
        row = {"config": name}
        block = list(zip(
            plan.keys()[i * cells_per_config:(i + 1) * cells_per_config],
            results[i * cells_per_config:(i + 1) * cells_per_config],
        ))
        for label in ("PRA", "SCA", "PRCAT", "DRCAT"):
            row[label] = 100.0 * mean(
                result.cmrpo
                for (_w, cell_label), result in block
                if cell_label == label
            )
        rows.append(row)
    return rows


def emit_threshold(config, refresh_threshold, rows):
    t = refresh_threshold // 1024
    return emit(
        config, f"fig11_mapping_t{t}k",
        f"Figure 11 (T={t}K): CMRPO (%) vs cores and mapping policy",
        rows,
        ["config", "PRA", "SCA", "PRCAT", "DRCAT"],
        parameters={"refresh_threshold": refresh_threshold},
        plan=build_plan(config, refresh_threshold),
    )


def artifacts(config):
    """JSON artifacts for ``repro verify`` (both thresholds)."""
    return [emit_threshold(config, t, build_rows(config, t)) for t in (16384, 32768)]


def test_fig11_mapping_and_cores_t16k(benchmark):
    rows = benchmark.pedantic(
        build_rows, args=(bench_config(), 16384), iterations=1, rounds=1
    )
    emit_threshold(bench_config(), 16384, rows)
    by_config = {row["config"]: row for row in rows}
    quad2 = by_config["quad-core/2channels"]
    quad4 = by_config["quad-core/4channels"]
    dual2 = by_config["dual-core/2channels"]
    # Paper shape: quad-core/2ch is the worst case for SCA; DRCAT keeps a
    # large margin there.
    assert quad2["SCA"] > dual2["SCA"]
    assert quad2["DRCAT"] < 0.75 * quad2["SCA"]
    assert quad2["DRCAT"] < 0.75 * quad2["PRA"]
    # The 4-channel policy relieves every scheme.
    for scheme in ("SCA", "PRCAT", "DRCAT"):
        assert quad4[scheme] < quad2[scheme]


def test_fig11_mapping_and_cores_t32k(benchmark):
    rows = benchmark.pedantic(
        build_rows, args=(bench_config(), 32768), iterations=1, rounds=1
    )
    emit_threshold(bench_config(), 32768, rows)
    by_config = {row["config"]: row for row in rows}
    quad2 = by_config["quad-core/2channels"]
    assert quad2["DRCAT"] < quad2["SCA"]
