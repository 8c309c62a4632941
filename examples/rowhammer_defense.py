#!/usr/bin/env python3
"""Rowhammer attack vs defense: watch a CAT confine an attacker.

Drives a DRCAT-protected bank with a malicious kernel-attack stream
(Section VIII-D of the paper) and shows, step by step:

1. the rowhammer-safety oracle — no row ever accumulates the refresh
   threshold of activations without its neighbours being refreshed;
2. how the adaptive tree zooms in on the hammered rows (group sizes
   around the attack targets shrink to a few rows);
3. the efficiency gap: rows refreshed by DRCAT vs SCA under the same
   attack.

Usage::

    python examples/rowhammer_defense.py [heavy|medium|light]
"""

import sys

from repro.core.base import ActivationLedger
from repro.core.drcat import DRCATScheme
from repro.core.sca import SCAScheme
from repro.workloads.attacks import get_kernel, attack_stream

N_ROWS = 65536
REFRESH_THRESHOLD = 2048   # scaled-down threshold for a fast demo
N_ACCESSES = 60_000


def run_defended(scheme, rows):
    """Replay the attack; return (max unsafe pressure, rows refreshed)."""
    ledger = ActivationLedger(scheme.n_rows)
    worst = refreshed = 0
    for row in rows:
        row = int(row)
        ledger.activate(row)
        for cmd in scheme.access(row):
            c = cmd.clamped(scheme.n_rows)
            ledger.refresh_range(c.low, c.high)
            refreshed += cmd.row_count(scheme.n_rows)
        worst = max(worst, ledger.max_pressure())
    return worst, refreshed


def main() -> None:
    mode = sys.argv[1] if len(sys.argv) > 1 else "heavy"
    kernel = get_kernel("kernel03")
    targets = kernel.pick_targets(N_ROWS, bank=0)
    rows = attack_stream(kernel, mode, N_ROWS, N_ACCESSES, bank=0)
    print(f"Attack kernel {kernel.name!r}, mode={mode}")
    print(f"Target rows (Gaussian-placed): {list(targets)}\n")

    drcat = DRCATScheme(N_ROWS, REFRESH_THRESHOLD, n_counters=64, max_levels=11)
    sca = SCAScheme(N_ROWS, REFRESH_THRESHOLD, n_counters=64)

    worst_drcat, rows_drcat = run_defended(drcat, rows)
    worst_sca, rows_sca = run_defended(sca, rows)

    print("Rowhammer-safety oracle (max unrefreshed activations of any row):")
    print(f"  refresh threshold T = {REFRESH_THRESHOLD}")
    print(f"  DRCAT worst pressure = {worst_drcat}  (safe: <= T)")
    print(f"  SCA   worst pressure = {worst_sca}  (safe: <= T)\n")
    assert worst_drcat <= REFRESH_THRESHOLD
    assert worst_sca <= REFRESH_THRESHOLD

    print("Adaptive tree resolution around the attack targets:")
    for target in targets:
        state = drcat.tree.counter_state(drcat.tree.lookup(int(target)))
        size = state["high"] - state["low"] + 1
        print(
            f"  row {int(target):6d}: counter level {state['level']:2d}, "
            f"group of {size} rows (SCA group: {N_ROWS // 64} rows)"
        )

    print("\nDefense cost (victim rows refreshed during the attack):")
    print(f"  DRCAT_64: {rows_drcat:8d} rows")
    print(f"  SCA_64:   {rows_sca:8d} rows")
    print(
        f"\nDRCAT confines the attack with {rows_sca / max(1, rows_drcat):.1f}x "
        "fewer refreshed rows — Section VIII-D's conclusion."
    )


if __name__ == "__main__":
    main()
