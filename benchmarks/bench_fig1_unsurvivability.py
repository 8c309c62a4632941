"""Figure 1: PRA 5-year unsurvivability vs refresh threshold.

Regenerates the analytic grid (Eq. 1) for T ∈ {32K, 24K, 16K, 8K} and
p ∈ [0.001, 0.006] against the Chipkill 1E-4 reference, plus the
Section III-A Monte-Carlo result that an LFSR-driven PRA collapses to
unacceptable failure rates.
"""

from _common import bench_config, emit

from repro.analysis.prng import TrueRandomPRNG
from repro.analysis.unsurvivability import (
    CHIPKILL_UNSURVIVABILITY,
    figure1_grid,
    lfsr_effective_failure_rate,
    monte_carlo_window_failures,
)

PROBABILITIES = (0.001, 0.002, 0.003, 0.004, 0.005, 0.006)


def build_figure1_rows():
    grid = figure1_grid(probabilities=PROBABILITIES)
    rows = []
    for t in sorted(grid, reverse=True):
        row = {"T": f"{t // 1024}k"}
        for p, value in grid[t].items():
            row[f"p={p}"] = f"{value:.2e}"
        row["beats_chipkill"] = ",".join(
            f"p={p}" for p in PROBABILITIES
            if grid[t][p] < CHIPKILL_UNSURVIVABILITY
        )
        rows.append(row)
    return rows


def emit_grid(config, rows):
    return emit(
        config, "fig1_unsurvivability",
        "Figure 1: PRA 5-year unsurvivability (Chipkill = 1E-4)",
        rows,
        ["T"] + [f"p={p}" for p in PROBABILITIES] + ["beats_chipkill"],
        spec={"analytic": "fig1",
              "grid": {"T": [32768, 24576, 16384, 8192],
                       "p": list(PROBABILITIES)}},
    )


def test_fig1_unsurvivability_grid(benchmark):
    rows = benchmark.pedantic(build_figure1_rows, iterations=1, rounds=1)
    emit_grid(bench_config(), rows)
    grid = figure1_grid(probabilities=PROBABILITIES)
    # Paper shape: T=32K survives at p >= 0.002; smaller T needs larger p.
    assert grid[32768][0.002] < CHIPKILL_UNSURVIVABILITY
    assert grid[16384][0.002] > CHIPKILL_UNSURVIVABILITY
    assert grid[16384][0.003] < CHIPKILL_UNSURVIVABILITY
    assert grid[8192][0.005] < CHIPKILL_UNSURVIVABILITY


def run_lfsr_study():
    t, p = 2048, 0.002
    trng = monte_carlo_window_failures(
        TrueRandomPRNG(seed=11), p, t, n_windows=500
    )
    closed_form = (1 - max(1, round(p * 512)) / 512) ** t
    return {
        "refresh_threshold": t,
        "p": p,
        "trng_rate": trng.failure_rate,
        "closed_form": closed_form,
        # The PRA comparator consumes 9 bits per access; a 9-bit LFSR
        # *never* emits the all-zero draw, so a phase-aligned attacker
        # makes PRA fail with certainty.  Wider registers are correlated
        # rather than degenerate, still far above the closed form.
        "lfsr9_rate": lfsr_effective_failure_rate(9, p, t),
        "lfsr16_rate": lfsr_effective_failure_rate(16, p, t),
    }


def emit_lfsr(config, data):
    return emit(
        config, "fig1_lfsr_study",
        "Section III-A: LFSR vs TRNG window failure rates "
        f"(T={data['refresh_threshold']}, p={data['p']})",
        [
            {
                "source": "TRNG Monte-Carlo",
                "failure_rate": f"{data['trng_rate']:.3e}",
            },
            {
                "source": "closed form (1-p)^T",
                "failure_rate": f"{data['closed_form']:.3e}",
            },
            {
                "source": "LFSR-16 exact (phase-aligned)",
                "failure_rate": f"{data['lfsr16_rate']:.3e}",
            },
            {
                "source": "LFSR-9 exact (phase-aligned)",
                "failure_rate": f"{data['lfsr9_rate']:.3e}",
            },
        ],
        ["source", "failure_rate"],
        parameters={
            "refresh_threshold": data["refresh_threshold"],
            "p": data["p"],
        },
        spec={"analytic": "fig1_lfsr",
              "grid": {"source": ["trng", "closed_form", "lfsr16",
                                  "lfsr9"]}},
    )


def artifacts(config):
    """JSON artifacts for ``repro verify``."""
    return [emit_grid(config, build_figure1_rows()), emit_lfsr(config, run_lfsr_study())]


def test_fig1_lfsr_monte_carlo(benchmark):
    data = benchmark.pedantic(run_lfsr_study, iterations=1, rounds=1)
    emit_lfsr(bench_config(), data)
    # Paper shape: the LFSR's correlated draws fail far more often.
    assert data["lfsr16_rate"] > data["closed_form"]
    assert data["lfsr9_rate"] == 1.0
