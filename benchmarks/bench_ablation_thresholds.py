"""Ablation: split-threshold schedule strategy (ours).

DESIGN.md calls out the split-threshold schedule as the CAT's key
tuning knob (Section IV-D).  This ablation compares the cost-balance
"model" schedule against the naive repeated-doubling "geometric"
schedule on skewed and uniform workloads, confirming the paper's claim
that the schedule shapes the tree to the access pattern: on biased
workloads the model schedule should refresh no more rows than the
geometric one, and on uniform workloads both degenerate to SCA-like
behaviour.
"""

import functools

from _common import base_spec, bench_config, emit, mean, run_bench_plan

from repro.experiments import Plan, SchemeSpec

SKEWED = ("black", "face", "mum")
UNIFORM = ("libq", "str")


@functools.cache
def build_plan(config) -> Plan:
    """The strategy x workload grid (PRCAT_64, default T)."""
    return Plan.grid(
        base_spec(config),
        scheme=[
            SchemeSpec.create(
                "prcat", strategy, threshold_strategy=strategy
            )
            for strategy in ("model", "geometric")
        ],
        workload=list(SKEWED + UNIFORM),
    )


def build_rows(config):
    plan = build_plan(config)
    cells = list(zip(plan.keys(), run_bench_plan(config, plan)))
    rows = []
    for strategy in ("model", "geometric"):
        row = {"strategy": strategy}
        for group, names in (("skewed", SKEWED), ("uniform", UNIFORM)):
            group_results = [
                result
                for (workload, label), result in cells
                if label == strategy and workload in names
            ]
            row[f"{group}_cmrpo_pct"] = 100.0 * mean(
                r.cmrpo for r in group_results
            )
            row[f"{group}_rows_per_interval"] = mean(
                r.totals.rows_refreshed_per_bank_interval
                for r in group_results
            )
        rows.append(row)
    return rows


def emit_rows(config, rows):
    return emit(
        config, "ablation_thresholds",
        "Ablation: split-threshold schedule strategy (PRCAT_64, T=32K)",
        rows,
        [
            "strategy",
            "skewed_cmrpo_pct",
            "skewed_rows_per_interval",
            "uniform_cmrpo_pct",
            "uniform_rows_per_interval",
        ],
        plan=build_plan(config),
    )


def artifacts(config):
    """JSON artifacts for ``repro verify``."""
    return [emit_rows(config, build_rows(config))]


def test_ablation_threshold_strategy(benchmark):
    rows = benchmark.pedantic(build_rows, args=(bench_config(),), iterations=1, rounds=1)
    emit_rows(bench_config(), rows)
    by_strategy = {row["strategy"]: row for row in rows}
    model = by_strategy["model"]
    geometric = by_strategy["geometric"]
    # The cost-balance schedule should not lose to naive doubling on the
    # skewed workloads it was derived for (some tolerance: both shape
    # the same tree eventually).
    assert (
        model["skewed_rows_per_interval"]
        <= geometric["skewed_rows_per_interval"] * 1.25
    )
    # On uniform workloads the schedule choice is immaterial (both
    # converge to the SCA-like balanced tree).
    assert model["uniform_cmrpo_pct"] == (
        __import__("pytest").approx(geometric["uniform_cmrpo_pct"], rel=0.35)
    )
