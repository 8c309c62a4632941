"""Figure 10: DRCAT CMRPO vs counters (32-512) and max depth (6-14).

The paper sweeps DRCAT over M in {32..512} and L in {6..14} against SCA
at each M, for T=32K and T=16K, finding: (a) with many counters static
power dominates and depth stops mattering; (b) with few counters deeper
trees save refresh energy; (c) the minimum sits at DRCAT_64 / L=11 and
SCA's own optimum at 128 counters; (d) at T=16K SCA degrades while
DRCAT's minimum barely moves.

The reproduction sweeps a representative workload subset and a trimmed
L grid (7/9/11/13) to keep runtime sane; REPRO_BENCH_* env knobs raise
fidelity.
"""

import functools

from _common import base_spec, bench_config, emit, mean, run_bench_plan

from repro.experiments import Plan, SchemeSpec

WORKLOADS = ("black", "face", "comm1")
M_VALUES = (32, 64, 128, 256, 512)
L_VALUES = (7, 9, 11, 13)


def valid_levels(m: int, l: int) -> bool:
    # the tree must be allowed to grow past the balanced log2(M) depth
    return l > m.bit_length() - 1


@functools.cache
def build_plan(config, refresh_threshold) -> Plan:
    """The declarative M x L x workload grid (invalid L cells omitted)."""
    schemes = [
        SchemeSpec.create("sca", f"SCA_{m}", n_counters=m) for m in M_VALUES
    ] + [
        SchemeSpec.create(
            "drcat", f"DRCAT_{m}_L{l}", n_counters=m, max_levels=l
        )
        for m in M_VALUES
        for l in L_VALUES
        if valid_levels(m, l)
    ]
    return Plan.grid(
        base_spec(config, refresh_threshold=refresh_threshold),
        scheme=schemes,
        workload=list(WORKLOADS),
    )


def build_rows(config, refresh_threshold):
    plan = build_plan(config, refresh_threshold)
    by_label: dict[str, list[float]] = {}
    for (workload, label), result in zip(
        plan.keys(), run_bench_plan(config, plan)
    ):
        by_label.setdefault(label, []).append(result.cmrpo)
    rows = []
    for m in M_VALUES:
        row = {"M": m}
        row["SCA"] = 100.0 * mean(by_label[f"SCA_{m}"])
        for l in L_VALUES:
            if not valid_levels(m, l):
                row[f"DRCAT_L{l}"] = float("nan")
                continue
            row[f"DRCAT_L{l}"] = 100.0 * mean(by_label[f"DRCAT_{m}_L{l}"])
        rows.append(row)
    return rows


def _min_drcat(row):
    import math

    vals = [
        v
        for k, v in row.items()
        if k.startswith("DRCAT") and isinstance(v, float) and not math.isnan(v)
    ]
    return min(vals) if vals else float("inf")


def emit_threshold(config, refresh_threshold, rows):
    t = refresh_threshold // 1024
    return emit(
        config, f"fig10_sweep_t{t}k",
        f"Figure 10 (T={t}K): mean CMRPO (%) vs M and max depth L",
        rows,
        ["M", "SCA"] + [f"DRCAT_L{l}" for l in L_VALUES],
        parameters={"refresh_threshold": refresh_threshold},
        plan=build_plan(config, refresh_threshold),
    )


def artifacts(config):
    """JSON artifacts for ``repro verify`` (both thresholds)."""
    return [emit_threshold(config, t, build_rows(config, t)) for t in (32768, 16384)]


def test_fig10_counter_depth_sweep_t32k(benchmark):
    rows = benchmark.pedantic(
        build_rows, args=(bench_config(), 32768), iterations=1, rounds=1
    )
    emit_threshold(bench_config(), 32768, rows)
    by_m = {row["M"]: row for row in rows}
    # Paper shape (a): at M=512 static power dominates -> depth barely
    # matters and DRCAT loses its edge over SCA.
    import math

    big = [
        v
        for k, v in by_m[512].items()
        if k.startswith("DRCAT") and not math.isnan(v)
    ]
    assert max(big) - min(big) < 0.35 * max(big)
    # Paper shape (c): the global DRCAT minimum sits at moderate M.
    best_m = min(by_m, key=lambda m: _min_drcat(by_m[m]))
    assert best_m in (32, 64, 128)
    # DRCAT at its optimum beats SCA at the same M.
    assert _min_drcat(by_m[best_m]) < by_m[best_m]["SCA"]


def test_fig10_counter_depth_sweep_t16k(benchmark):
    rows16 = benchmark.pedantic(
        build_rows, args=(bench_config(), 16384), iterations=1, rounds=1
    )
    emit_threshold(bench_config(), 16384, rows16)
    rows32 = build_rows(bench_config(), 32768)
    by16 = {row["M"]: row for row in rows16}
    by32 = {row["M"]: row for row in rows32}
    # Paper shape (d): lowering T inflates SCA's CMRPO at its optimum far
    # more than DRCAT's minimum.
    sca_growth = by16[64]["SCA"] - by32[64]["SCA"]
    drcat_growth = _min_drcat(by16[64]) - _min_drcat(by32[64])
    assert sca_growth > drcat_growth
