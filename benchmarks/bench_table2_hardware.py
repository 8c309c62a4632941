"""Table II: hardware energy (per bank) and area for DRCAT/PRCAT/SCA.

Regenerates the table rows for M in {32..512} at T=32K / L=11 from the
calibrated hardware model, plus the PRNG block for PRA, and checks the
paper's stated relations (iso-area PRCAT64 ~ SCA128, DRCAT ~ +4% area
over PRCAT, PRA's 9-bit draw energy).
"""

from _common import bench_config, emit

from repro.energy.hardware_model import (
    DRCAT_LATENCY_NS,
    DRCAT_RECONFIG_LATENCY_NS,
    PRCAT_LATENCY_NS,
    TABLE2_M,
    iso_area_counters,
    pra_hardware,
    scheme_hardware,
)


def build_rows():
    rows = []
    for m in TABLE2_M:
        row = {"M": m}
        for scheme in ("drcat", "prcat", "sca"):
            hw = scheme_hardware(scheme, m)
            row[f"{scheme}_dyn_nJ"] = f"{hw.dynamic_nj_per_access:.2e}"
            row[f"{scheme}_static_nJ"] = f"{hw.static_nj_per_interval:.2e}"
            row[f"{scheme}_area_mm2"] = f"{hw.area_mm2:.2e}"
        rows.append(row)
    return rows


def emit_hardware(config, rows):
    columns = ["M"]
    for scheme in ("drcat", "prcat", "sca"):
        columns += [
            f"{scheme}_dyn_nJ",
            f"{scheme}_static_nJ",
            f"{scheme}_area_mm2",
        ]
    return emit(
        config, "table2_hardware", "Table II: per-bank energy and area", rows, columns,
        spec={"analytic": "table2",
              "grid": {"M": list(TABLE2_M),
                       "scheme": ["drcat", "prcat", "sca"]}},
    )


def emit_prng(config):
    prng = pra_hardware()
    return emit(
        config, "table2_prng",
        "Table II (right): PRNG specification for PRA",
        [
            {
                "area_mm2": f"{prng.area_mm2:.3e}",
                "throughput_Gbps": prng.throughput_gbps,
                "power_mW": prng.power_mw,
                "eff_nJ_per_bit": f"{prng.energy_per_bit_nj:.2e}",
                "eng_PRNG_9b_nJ": f"{prng.energy_per_access_nj:.3e}",
            }
        ],
        [
            "area_mm2",
            "throughput_Gbps",
            "power_mW",
            "eff_nJ_per_bit",
            "eng_PRNG_9b_nJ",
        ],
        spec={"analytic": "table2_prng"},
    )


def artifacts(config):
    """JSON artifacts for ``repro verify``."""
    return [emit_hardware(config, build_rows()), emit_prng(config)]


def test_table2_hardware(benchmark):
    # Imported here: repro verify imports this module for artifacts()
    # alone, and pytest is slow to import.
    import pytest

    rows = benchmark.pedantic(build_rows, iterations=1, rounds=1)
    emit_hardware(bench_config(), rows)
    prng = pra_hardware()
    emit_prng(bench_config())
    # Paper relations.
    assert iso_area_counters("prcat", 64, "sca") == 128
    drcat64 = scheme_hardware("drcat", 64)
    prcat64 = scheme_hardware("prcat", 64)
    assert drcat64.area_mm2 / prcat64.area_mm2 == pytest.approx(1.044, abs=0.03)
    assert prng.energy_per_access_nj == pytest.approx(2.625e-2, rel=0.01)
    assert (PRCAT_LATENCY_NS, DRCAT_LATENCY_NS, DRCAT_RECONFIG_LATENCY_NS) == (
        3.6,
        4.0,
        7.5,
    )
