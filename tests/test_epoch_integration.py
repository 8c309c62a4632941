"""Epoch-boundary integration: CAT schemes inside the memory system."""

import numpy as np

from repro.core.cat import PRCATScheme
from repro.core.drcat import DRCATScheme
from repro.dram.config import SystemConfig
from repro.dram.memory_system import MemorySystem


def small_config():
    return SystemConfig(rows_per_bank=4096)


def drive(system, n_accesses, duration_ns, hot=7, hot_frac=0.6, seed=0):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0, duration_ns, size=n_accesses))
    for t in times:
        if rng.random() < hot_frac:
            row = hot
        else:
            row = int(rng.integers(0, 4096))
        system.access(float(t), 0, row)


class TestPRCATEpochs:
    def test_tree_resets_every_epoch(self):
        epoch_s = 1e-5  # 10 us epochs for a fast test
        system = MemorySystem(
            small_config(),
            lambda n: PRCATScheme(n, 256, n_counters=16, max_levels=10),
            n_banks=1,
            epoch_s=epoch_s,
        )
        drive(system, 4000, 3 * epoch_s * 1e9)
        assert system.epochs_completed >= 2

    def test_tree_regrows_after_reset(self):
        epoch_s = 1e-5
        system = MemorySystem(
            small_config(),
            lambda n: PRCATScheme(n, 256, n_counters=16, max_levels=10),
            n_banks=1,
            epoch_s=epoch_s,
        )
        drive(system, 6000, 2 * epoch_s * 1e9)
        scheme = system.schemes[0]
        # Crossing into epoch 2 reset the tree; the hot row was re-split.
        state = scheme.tree.counter_state(scheme.tree.lookup(7))
        assert state["high"] - state["low"] + 1 < 4096 // 8


class TestDRCATEpochs:
    def test_shape_survives_epochs(self):
        epoch_s = 1e-5
        system = MemorySystem(
            small_config(),
            lambda n: DRCATScheme(n, 256, n_counters=16, max_levels=10),
            n_banks=1,
            epoch_s=epoch_s,
        )
        drive(system, 6000, 3 * epoch_s * 1e9)
        scheme = system.schemes[0]
        assert system.epochs_completed >= 2
        # DRCAT carries the learned structure across epochs.
        assert scheme.tree.active_counters > 8
        scheme.tree.check_invariants()

    def test_invariants_after_long_multi_epoch_run(self):
        epoch_s = 5e-6
        system = MemorySystem(
            small_config(),
            lambda n: DRCATScheme(n, 128, n_counters=16, max_levels=11),
            n_banks=1,
            epoch_s=epoch_s,
        )
        rng = np.random.default_rng(5)
        duration = 8 * epoch_s * 1e9
        times = np.sort(rng.uniform(0, duration, size=8000))
        hots = [100, 2000, 3900]
        for i, t in enumerate(times):
            hot = hots[(i * 3) // len(times)]
            row = hot if rng.random() < 0.6 else int(rng.integers(0, 4096))
            system.access(float(t), 0, row)
        scheme = system.schemes[0]
        scheme.tree.check_invariants()
