"""Figure 2: SCA energy breakdown vs number of counters.

Sweeps M from 16 to 65536, printing counter energy, victim-refresh
energy and their total per 64 ms interval, plus the 2KB/8KB counter-
cache reference lines of [26].  The paper's shape: refresh dominates at
small M, counters dominate at large M, the total is minimised around
M = 128, and SCA128 undercuts the counter caches by >= 1.5 orders of
magnitude.
"""

from _common import bench_config, emit

from repro.analysis.sca_energy import (
    counter_cache_energy_nj,
    energy_crossover_m,
    figure2_sweep,
    optimal_m,
)

ACCESSES_PER_INTERVAL = 582_000.0


def build_sweep():
    return figure2_sweep(accesses_per_interval=ACCESSES_PER_INTERVAL)


def build_rows(points):
    cache2 = counter_cache_energy_nj("2KB", ACCESSES_PER_INTERVAL)
    cache8 = counter_cache_energy_nj("8KB", ACCESSES_PER_INTERVAL)
    rows = [
        {
            "M": p.n_counters,
            "counter_nJ": f"{p.counter_energy_nj:.3e}",
            "refresh_nJ": f"{p.refresh_energy_nj:.3e}",
            "total_nJ": f"{p.total_nj:.3e}",
        }
        for p in points
    ]
    rows.append({"M": "2KB cache", "total_nJ": f"{cache2:.3e}"})
    rows.append({"M": "8KB cache", "total_nJ": f"{cache8:.3e}"})
    return rows


def emit_rows(config, rows):
    return emit(
        config, "fig2_sca_energy",
        "Figure 2: SCA energy overhead vs #counters (nJ per 64 ms interval)",
        rows,
        ["M", "counter_nJ", "refresh_nJ", "total_nJ"],
        parameters={"accesses_per_interval": ACCESSES_PER_INTERVAL},
        spec={"analytic": "fig2",
              "grid": {"M": "16..65536 (x2)",
                       "caches": ["2KB", "8KB"]}},
    )


def artifacts(config):
    """JSON artifacts for ``repro verify``."""
    return [emit_rows(config, build_rows(build_sweep()))]


def test_fig2_sca_energy_breakdown(benchmark):
    points = benchmark.pedantic(build_sweep, iterations=1, rounds=1)
    cache2 = counter_cache_energy_nj("2KB", ACCESSES_PER_INTERVAL)
    cache8 = counter_cache_energy_nj("8KB", ACCESSES_PER_INTERVAL)
    emit_rows(bench_config(), build_rows(points))
    by_m = {p.n_counters: p for p in points}
    # Paper shapes:
    assert optimal_m(points) in (64, 128, 256), "minimum should sit near 128"
    assert 16 < energy_crossover_m(points) < 65536
    assert by_m[16].refresh_energy_nj > by_m[16].counter_energy_nj
    assert by_m[65536].counter_energy_nj > by_m[65536].refresh_energy_nj
    # SCA128 beats the 2KB cache by >= 1 order of magnitude.
    assert by_m[128].total_nj * 10 < cache2
    assert by_m[128].total_nj * 30 < cache8
