"""Seeded inputs of every workload: the figure grids and the serve jobs.

One ``--seed`` drives all of them.  Seed 0 is the default and yields the
checked-in ci grids exactly (Figure 8/9 and Figure 13 at ci fidelity:
scale 24, one bank, two intervals, the batched engine, the historical
arrival seed, the first four attack kernels).  Any other seed derives,
from one ``random.Random``:

* the arrival seed (``ExperimentSpec.seed``);
* the benign row-stream seeds, as inline ``ExperimentSpec.workload_model``
  copies of the 18 workloads with only ``seed`` changed;
* the 4-of-12 attack-kernel subset;
* the serve job sequence (per-deck arrival seeds, repeat picks).
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.experiments import ExperimentSpec, SchemeSpec
from repro.experiments.spec import DEFAULT_SEED
from repro.workloads.attacks import ATTACK_KERNELS
from repro.workloads.suites import WORKLOAD_ORDER, WORKLOADS

#: The seed whose inputs are the ci figure grids.
CI_SEED = 0

#: ci fidelity knobs (``repro.report.config.FIDELITIES["ci"]``).
CI_KNOBS = dict(scale=24.0, n_banks=1, n_intervals=2, engine="batched")

#: Figure 8/9: thresholds and T-matched PRA probabilities.
FIG8_THRESHOLDS = (32768, 16384)
PRA_P_FOR_T = {32768: 0.002, 16384: 0.003, 8192: 0.005}

#: Figure 13: (T, SCA counters, CAT counters) iso-area rows and mixes.
FIG13_CONFIGS = ((32768, 128, 64), (16384, 128, 64), (8192, 256, 128))
ATTACK_MODES = ("heavy", "medium", "light")
KERNELS_PER_CELL = 4

#: serve jobs: small non-tree runs (no counter-tree work at all).
SERVE_KNOBS = dict(scale=96.0, n_banks=1, n_intervals=3, engine="batched",
                   refresh_threshold=32768)
#: one repeat after every this many fresh jobs: a quarter are repeats
SERVE_FRESH_PER_REPEAT = 3
#: fresh (scheme, workload) pairs in one deck, and jobs per deck
SERVE_DECK = 4 * len(WORKLOAD_ORDER)
SERVE_DECK_JOBS = SERVE_DECK + SERVE_DECK // SERVE_FRESH_PER_REPEAT


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{stream}")


def arrival_seed(seed: int) -> int:
    """``ExperimentSpec.seed`` of the sweep grids."""
    if seed == CI_SEED:
        return DEFAULT_SEED
    return _rng(seed, "arrival").getrandbits(32)


def benign_workloads(seed: int) -> list:
    """The 18 benign workloads: names at the ci seed, else inline models
    whose row-stream seeds are re-drawn."""
    if seed == CI_SEED:
        return list(WORKLOAD_ORDER)
    rng = _rng(seed, "rows")
    return [replace(WORKLOADS[name], seed=rng.getrandbits(31))
            for name in WORKLOAD_ORDER]


def attack_kernels(seed: int) -> list[str]:
    """The 4-of-12 attack-kernel subset (the first four at the ci seed)."""
    if seed == CI_SEED:
        picks = range(KERNELS_PER_CELL)
    else:
        picks = sorted(_rng(seed, "kernels").sample(
            range(len(ATTACK_KERNELS)), KERNELS_PER_CELL))
    return [ATTACK_KERNELS[i].name for i in picks]


def _fig8_schemes(threshold: int) -> list[SchemeSpec]:
    return [
        SchemeSpec.create("pra", "PRA", probability=PRA_P_FOR_T[threshold]),
        SchemeSpec.create("sca", "SCA_64", n_counters=64),
        SchemeSpec.create("sca", "SCA_128", n_counters=128),
        SchemeSpec.create("prcat", "PRCAT_64", n_counters=64, max_levels=11),
        SchemeSpec.create("drcat", "DRCAT_64", n_counters=64, max_levels=11),
    ]


def _cell(base: ExperimentSpec, workload) -> ExperimentSpec:
    if isinstance(workload, str):
        return replace(base, workload=workload, workload_model=None)
    return replace(base, workload_model=workload)


def benign_sweep(seed: int) -> list[ExperimentSpec]:
    """The Figure 8/9 grid: 18 workloads x 5 schemes x T in {32K, 16K}.

    Cell order is the bench's: threshold, then scheme, then workload.
    """
    workloads = benign_workloads(seed)
    specs = []
    for threshold in FIG8_THRESHOLDS:
        base = ExperimentSpec(scheme=SchemeSpec("drcat"), seed=arrival_seed(seed),
                              refresh_threshold=threshold, **CI_KNOBS)
        for scheme in _fig8_schemes(threshold):
            for workload in workloads:
                specs.append(_cell(replace(base, scheme=scheme), workload))
    return specs


def attack_tree(seed: int) -> list[ExperimentSpec]:
    """The Figure 13 grid: 4 kernels x 3 mixes x {SCA, PRCAT, DRCAT} x
    T in {32K, 16K, 8K} with iso-area counter budgets.

    Cell order is the bench's: threshold, then scheme, mix, kernel.
    """
    kernels = attack_kernels(seed)
    specs = []
    for threshold, sca_m, cat_m in FIG13_CONFIGS:
        base = ExperimentSpec(
            scheme=SchemeSpec("drcat"), kind="attack",
            attack_kernel=kernels[0], attack_mode=ATTACK_MODES[0],
            workload="libq", refresh_threshold=threshold,
            seed=arrival_seed(seed), **CI_KNOBS,
        )
        for scheme in (
            SchemeSpec.create("sca", "SCA", n_counters=sca_m),
            SchemeSpec.create("prcat", "PRCAT", n_counters=cat_m),
            SchemeSpec.create("drcat", "DRCAT", n_counters=cat_m),
        ):
            for mode in ATTACK_MODES:
                for kernel in kernels:
                    specs.append(replace(base, scheme=scheme, attack_mode=mode,
                                         attack_kernel=kernel))
    return specs


def _serve_deck() -> list[tuple[SchemeSpec, str]]:
    """One deck of fresh serve jobs: 4 non-tree schemes x 18 workloads,
    in one fixed well-mixed order shared by every seed."""
    schemes = (
        SchemeSpec.create("pra", probability=PRA_P_FOR_T[32768]),
        SchemeSpec.create("sca", n_counters=64),
        SchemeSpec.create("sca", n_counters=128),
        SchemeSpec.create("ccache"),
    )
    deck = [(scheme, name) for scheme in schemes for name in WORKLOAD_ORDER]
    _rng(CI_SEED, "deck").shuffle(deck)
    return deck


def serve_jobs(seed: int):
    """Endless job sequence: ``(spec, repeat_of)`` pairs.

    Fresh jobs walk decks of the same 72 (scheme, workload) pairs in the
    same order, so every seed has the same mix and the same pairing of
    concurrent jobs; the seed draws each deck's arrival seed (so no two
    fresh jobs share a content hash) and the repeats.  After every
    ``SERVE_FRESH_PER_REPEAT`` fresh jobs comes a repeat of an earlier
    fresh job at least two positions back: ``repeat_of`` is that job's
    position (None for fresh jobs).  A closed loop of two clients only
    submits a repeat once its original is done, so repeats are served
    from the result cache.
    """
    rng = _rng(seed, "serve")
    deck = _serve_deck()
    fresh: list[tuple[int, ExperimentSpec]] = []
    position = 0
    while True:
        deck_seed = rng.getrandbits(32)
        for scheme, workload in deck:
            spec = ExperimentSpec(scheme=scheme, workload=workload,
                                  seed=deck_seed, **SERVE_KNOBS)
            yield spec, None
            fresh.append((position, spec))
            position += 1
            if len(fresh) % SERVE_FRESH_PER_REPEAT == 0:
                eligible = [f for f in fresh if f[0] <= position - 2]
                if eligible:
                    original, spec = eligible[rng.randrange(len(eligible))]
                    yield spec, original
                    position += 1


WORKLOADS_BY_NAME = {"attack_tree": attack_tree, "benign_sweep": benign_sweep}
