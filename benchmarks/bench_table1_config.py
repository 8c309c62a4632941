"""Table I: system configuration.

Prints the simulated system's configuration and checks it against the
paper's Table I values.
"""

from _common import bench_config, emit

from repro.dram.config import DUAL_CORE_2CH, NAMED_CONFIGS


def build_rows():
    rows = []
    for name, config in NAMED_CONFIGS.items():
        rows.append(
            {
                "config": name,
                "cores": config.n_cores,
                "channels": config.n_channels,
                "ranks/ch": config.ranks_per_channel,
                "banks": config.n_banks,
                "rows/bank": config.rows_per_bank,
                "mapping": config.address_mapping,
                "policy": config.page_policy,
            }
        )
    return rows


def emit_rows(config, rows):
    return emit(
        config, "table1_config",
        "Table I: system configurations",
        rows,
        [
            "config",
            "cores",
            "channels",
            "ranks/ch",
            "banks",
            "rows/bank",
            "mapping",
            "policy",
        ],
        spec={"analytic": "table1", "grid": {"config": list(NAMED_CONFIGS)}},
    )


def artifacts(config):
    """JSON artifacts for ``repro verify``."""
    return [emit_rows(config, build_rows())]


def test_table1_system_config(benchmark):
    rows = benchmark.pedantic(build_rows, iterations=1, rounds=1)
    emit_rows(bench_config(), rows)
    c = DUAL_CORE_2CH
    assert c.n_cores == 2 and c.core_freq_ghz == 3.2
    assert c.bus_freq_mhz == 800.0
    assert c.n_channels == 2 and c.banks_per_rank == 8
    assert c.rows_per_bank == 65536 and c.cache_line_bytes == 64
    assert c.rob_entries == 128 and c.fetch_width == 4 and c.retire_width == 2
    assert c.pipeline_depth == 10 and c.write_queue_capacity == 64
    assert c.scheduling == "FRFCFS" and c.page_policy == "closed"
