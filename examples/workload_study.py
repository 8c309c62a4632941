#!/usr/bin/env python3
"""Mini evaluation: sweep several workloads and thresholds like Fig. 8/12.

Runs a reduced version of the paper's evaluation matrix — a sample of
workloads from each suite, two refresh thresholds, all four schemes —
and prints per-suite mean CMRPO plus the iso-area comparison the paper
uses (PRCAT_64 vs SCA_128).

Usage::

    python examples/workload_study.py [scale]

``scale`` trades fidelity for speed (default 32; the benchmarks use 24
and lower is closer to full scale).
"""

import sys

from repro.experiments import ExperimentSpec, Plan, SchemeSpec, run_plan
from repro.sim.metrics import format_table, mean_over
from repro.workloads.suites import SUITES

SAMPLE = ("comm1", "black", "face", "libq", "mum")


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 32.0
    for threshold, pra_p in ((32768, 0.002), (16384, 0.003)):
        base = ExperimentSpec(
            scheme=SchemeSpec("drcat"),
            workload=SAMPLE[0],
            refresh_threshold=threshold,
            scale=scale,
            n_banks=1,
            n_intervals=2,
        )
        plan = Plan.grid(
            base,
            workload=list(SAMPLE),
            scheme=[
                SchemeSpec.create("pra", "pra", probability=pra_p),
                SchemeSpec.create("sca", "sca", n_counters=128),
                SchemeSpec("prcat"),
                SchemeSpec("drcat"),
            ],
        )
        results = dict(zip(plan.keys(), run_plan(plan)))
        rows = []
        for workload in SAMPLE:
            suite = next(s for s, names in SUITES.items() if workload in names)
            rows.append(
                {
                    "workload": f"{workload} ({suite})",
                    "PRA %": 100 * results[(workload, "pra")].cmrpo,
                    "SCA_128 %": 100 * results[(workload, "sca")].cmrpo,
                    "PRCAT_64 %": 100 * results[(workload, "prcat")].cmrpo,
                    "DRCAT_64 %": 100 * results[(workload, "drcat")].cmrpo,
                }
            )
        means = {
            label: mean_over([results[(w, label)] for w in SAMPLE], "cmrpo")
            for label in ("pra", "sca", "prcat", "drcat")
        }
        rows.append(
            {
                "workload": "MEAN",
                "PRA %": 100 * means["pra"],
                "SCA_128 %": 100 * means["sca"],
                "PRCAT_64 %": 100 * means["prcat"],
                "DRCAT_64 %": 100 * means["drcat"],
            }
        )
        print(f"\nCMRPO at T={threshold // 1024}K (PRA p={pra_p}):")
        print(
            format_table(
                rows,
                ["workload", "PRA %", "SCA_128 %", "PRCAT_64 %", "DRCAT_64 %"],
            )
        )
    print(
        "\nNote the paper's iso-area framing: PRCAT_64 occupies the same "
        "area as SCA_128\n(Table II), yet refreshes far fewer rows on "
        "skewed workloads."
    )


if __name__ == "__main__":
    main()
