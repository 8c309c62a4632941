"""Figure 3: row-address access frequency of one DRAM bank.

The paper plots per-row activation counts over one refresh interval for
blackscholes and facesim, showing a small row group dominating.  This
bench regenerates the histograms from the workload models and prints
their concentration statistics.
"""

import numpy as np
from _common import bench_config, emit

from repro.workloads.suites import get_workload, row_frequency_histogram

N_ROWS = 65536


def build_histograms():
    out = {}
    for name in ("black", "face", "libq"):
        spec = get_workload(name)
        hist = row_frequency_histogram(spec, N_ROWS, int(spec.intensity))
        out[name] = hist
    return out


def concentration(hist, k):
    top = np.sort(hist)[::-1]
    return float(top[:k].sum()) / float(hist.sum())


def build_rows(hists):
    rows = []
    for name, hist in hists.items():
        rows.append(
            {
                "workload": name,
                "accesses": int(hist.sum()),
                "max_row_freq": int(hist.max()),
                "rows_touched": int((hist > 0).sum()),
                "top64_share": f"{concentration(hist, 64):.2f}",
                "top1024_share": f"{concentration(hist, 1024):.2f}",
            }
        )
    return rows


def emit_rows(config, rows):
    return emit(
        config, "fig3_row_frequency",
        "Figure 3: row access frequency in a 64K-row bank (one interval)",
        rows,
        [
            "workload",
            "accesses",
            "max_row_freq",
            "rows_touched",
            "top64_share",
            "top1024_share",
        ],
        parameters={"n_rows": N_ROWS},
        spec={"analytic": "fig3",
              "grid": {"workload": ["black", "face", "libq"],
                       "n_rows": N_ROWS}},
    )


def artifacts(config):
    """JSON artifacts for ``repro verify``."""
    return [emit_rows(config, build_rows(build_histograms()))]


def test_fig3_row_frequency(benchmark):
    hists = benchmark.pedantic(build_histograms, iterations=1, rounds=1)
    emit_rows(bench_config(), build_rows(hists))
    # Paper shape: blackscholes and facesim are dominated by a small
    # group of rows; libquantum is not.
    assert concentration(hists["black"], 64) > 0.5
    assert concentration(hists["face"], 64) > 0.5
    assert concentration(hists["libq"], 64) < 0.4
    # Hot rows see ~1E4-1E5 activations per interval as in the figure.
    assert hists["black"].max() > 5_000
