"""Ablation: pre-split depth λ vs traversal cost (ours, Section IV-C).

The paper notes that starting the CAT from a complete balanced tree
with λ <= log2(M) levels cuts the worst-case SRAM traversal from L to
L - λ + 1 accesses at the cost of committing 2^(λ-1) counters up
front.  This ablation measures both effects: the mean SRAM reads per
lookup and the refresh rows, as λ varies.
"""

from _common import bench_config, emit

from repro.core.counter_tree import CounterTree
from repro.core.thresholds import SplitThresholds
from repro.workloads.suites import get_workload

N_ROWS = 65536
M = 64
T = 2048  # pre-scaled threshold for a fast in-process run
L = 11


def run_lambda(presplit: int) -> dict:
    th = SplitThresholds.create(T, M, L, presplit_levels=presplit)
    tree = CounterTree(N_ROWS, th, track_weights=True)
    spec = get_workload("black")
    model = spec.stream_model(N_ROWS)
    rng = spec.rng(salt=99)
    layout = model.phase_layout(rng)
    rows = model.sample(rng, 30_000, layout)
    for row in rows:
        tree.access(int(row))
    return {
        "lambda": presplit,
        "initial_counters": 1 << (presplit - 1),
        "mean_sram_reads": tree.total_sram_reads / len(rows),
        "rows_refreshed": tree.total_rows_refreshed,
        "max_depth": max(tree.depth_histogram()),
    }


def build_rows():
    return [run_lambda(lam) for lam in (1, 2, 4, 6)]


def emit_rows(config, rows):
    return emit(
        config, "ablation_presplit",
        "Ablation: pre-split depth λ (M=64, L=11, blackscholes-like)",
        rows,
        [
            "lambda",
            "initial_counters",
            "mean_sram_reads",
            "rows_refreshed",
            "max_depth",
        ],
        parameters={"M": M, "T": T, "L": L},
        spec={"analytic": "ablation_presplit",
              "grid": {"lambda": [1, 2, 4, 6], "M": M, "T": T, "L": L}},
    )


def artifacts(config):
    """JSON artifacts for ``repro verify``."""
    return [emit_rows(config, build_rows())]


def test_ablation_presplit_depth(benchmark):
    rows = benchmark.pedantic(build_rows, iterations=1, rounds=1)
    emit_rows(bench_config(), rows)
    by_lambda = {row["lambda"]: row for row in rows}
    # Deeper pre-split shortens traversals (the paper's L - λ + 1 bound).
    assert (
        by_lambda[6]["mean_sram_reads"] < by_lambda[1]["mean_sram_reads"]
    )
    # Pre-splitting commits counters but must not inflate refresh rows
    # dramatically on a skewed workload.
    assert by_lambda[6]["rows_refreshed"] <= by_lambda[1]["rows_refreshed"] * 3
    # All variants reach deep levels for the hot region.
    for row in rows:
        assert row["max_depth"] >= L - 3
