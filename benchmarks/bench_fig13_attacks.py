"""Figure 13: ETO of benign workloads under kernel rowhammer attacks.

Three attack mixes (heavy 75%, medium 50%, light 25% target-row
traffic) at T in {32K, 16K, 8K}, with iso-area budgets (SCA_128/CAT_64
for 32K/16K; SCA_256/CAT_128 at 8K).  Paper shape: heavier attacks cost
more ETO; SCA grows to several percent at T=16K heavy while the CAT
schemes stay below ~1%; T=8K is *lower* than 16K because the counter
budget doubles.
"""

from _common import base_spec, bench_config, emit, mean, run_bench_plan

from repro.experiments import Plan, SchemeSpec
from repro.report.config import BenchConfig
from repro.workloads.attacks import ATTACK_KERNELS

#: (T, SCA M, CAT M) per the paper's Figure 13 groups.
THRESHOLD_CONFIGS = [(32768, 128, 64), (16384, 128, 64), (8192, 256, 128)]
MODES = ("heavy", "medium", "light")
#: subset of the 12 kernels per cell (REPRO_BENCH_* knobs raise this)
KERNELS = ATTACK_KERNELS[:4]


def build_plan(config: BenchConfig | None = None) -> Plan:
    """Attack grids: (scheme x mode x kernel) per iso-area threshold row.

    Attack cells are ordinary ExperimentSpecs with ``kind="attack"``;
    the kernel and mix mode are plan axes like any other spec field.
    ``config`` defaults to :func:`~_common.bench_config`.
    """
    config = config or bench_config()
    plan = None
    for t, sca_m, cat_m in THRESHOLD_CONFIGS:
        grid = Plan.grid(
            base_spec(
                config,
                kind="attack",
                attack_kernel=KERNELS[0].name,
                attack_mode=MODES[0],
                workload="libq",
                refresh_threshold=t,
            ),
            scheme=[
                SchemeSpec.create("sca", "SCA", n_counters=sca_m),
                SchemeSpec.create("prcat", "PRCAT", n_counters=cat_m),
                SchemeSpec.create("drcat", "DRCAT", n_counters=cat_m),
            ],
            attack_mode=list(MODES),
            attack_kernel=[k.name for k in KERNELS],
        )
        plan = grid if plan is None else plan + grid
    return plan


def build_rows(config):
    plan = build_plan(config)
    results = run_bench_plan(config, plan)
    cells = list(zip(plan.specs, results))
    rows = []
    for t, _sca_m, _cat_m in THRESHOLD_CONFIGS:
        for mode in MODES:
            row = {"T": f"{t // 1024}K", "mode": mode}
            for label in ("SCA", "PRCAT", "DRCAT"):
                row[label] = 100.0 * mean(
                    result.eto
                    for spec, result in cells
                    if spec.refresh_threshold == t
                    and spec.attack_mode == mode
                    and spec.scheme.display_label == label
                )
            rows.append(row)
    return rows


def emit_rows(config, rows):
    return emit(
        config, "fig13_attacks",
        "Figure 13: mean ETO (%) under kernel attacks "
        f"({len(KERNELS)} kernels per cell)",
        rows,
        ["T", "mode", "SCA", "PRCAT", "DRCAT"],
        parameters={"n_kernels": len(KERNELS)},
        plan=build_plan(config),
    )


def artifacts(config):
    """JSON artifacts for ``repro verify``."""
    return [emit_rows(config, build_rows(config))]


def test_fig13_kernel_attacks(benchmark):
    rows = benchmark.pedantic(build_rows, args=(bench_config(),), iterations=1, rounds=1)
    emit_rows(bench_config(), rows)
    cell = {(row["T"], row["mode"]): row for row in rows}
    # Heavier attacks cost more for SCA at every threshold.
    for t in ("32K", "16K", "8K"):
        assert cell[(t, "heavy")]["SCA"] >= cell[(t, "light")]["SCA"]
    # Paper shape: CAT confines attacks to small groups, SCA does not.
    worst_sca = cell[("16K", "heavy")]["SCA"]
    assert cell[("16K", "heavy")]["DRCAT"] < 0.5 * worst_sca
    assert cell[("16K", "heavy")]["PRCAT"] < 0.7 * worst_sca
    # T=8K stays in the same range as 16K despite the halved threshold,
    # because the counter budget doubles (the paper reports a slight
    # *decrease*; our model reproduces parity within 25%).
    assert cell[("8K", "heavy")]["SCA"] < 1.25 * cell[("16K", "heavy")]["SCA"]
