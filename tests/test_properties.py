"""Property-based tests (hypothesis) for the core invariants.

These verify the DESIGN.md invariants over randomised access sequences:

1. the CAT partition always tiles the bank exactly;
2. rowhammer safety: with a deterministic scheme in the loop, no row's
   unrefreshed activation count ever exceeds the refresh threshold;
3. counter conservation across splits and merges;
4. CAT under uniform access degenerates to SCA's uniform grouping;
5. the PRCAT/DRCAT compiled kernel equals their scalar loop across
   segments, epoch resets and state round trips, with the counter pool
   free or exhausted (where DRCAT harvests and cascades happen);
6. the counter cache's compiled kernel equals its per-access loop
   across chunks, epoch resets and state round trips.
"""

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.base import ActivationLedger, RefreshCommand
from repro.core.counter_cache import CounterCacheScheme
from repro.core.counter_tree import CounterTree
from repro.core.sca import SCAScheme
from repro.core.cat import PRCATScheme
from repro.core.drcat import DRCATScheme
from repro.core.thresholds import SplitThresholds
from repro.dram.bank import BankState
from repro.dram.config import DRAMTimings
from repro.sim.kernel import serve_segment

N_ROWS = 256


def kernel_batch(scheme, rows: np.ndarray) -> list:
    """``access_batch`` the way the batched engine serves the scheme: one
    compiled-kernel call (on a throwaway bank), else the per-access
    default."""
    served = serve_segment(BankState(DRAMTimings()), scheme, np.zeros(len(rows)), rows)
    if served is None:
        return scheme.access_batch(rows)
    events, _done, reason = served
    grouped: dict = {}
    for position, low, high in zip(*events[:3].tolist()):
        grouped.setdefault(position, []).append(RefreshCommand(low, high, reason))
    return sorted(grouped.items())


def tree_strategy():
    return st.tuples(
        st.sampled_from([4, 8, 16]),          # counters
        st.sampled_from([64, 128, 256]),      # refresh threshold
        st.booleans(),                        # weights
    )


access_seq = st.lists(st.integers(0, N_ROWS - 1), min_size=1, max_size=400)


class TestPartitionInvariant:
    @settings(max_examples=60, deadline=None)
    @given(params=tree_strategy(), rows=access_seq, data=st.data())
    def test_partition_tiles_bank(self, params, rows, data):
        m, t, weights = params
        th = SplitThresholds.create(t, m, max_levels=int(np.log2(m)) + 3)
        tree = CounterTree(N_ROWS, th, track_weights=weights)
        for row in rows:
            tree.access(row)
        tree.check_invariants()

    @settings(max_examples=30, deadline=None)
    @given(rows=access_seq)
    def test_partition_after_reset(self, rows):
        th = SplitThresholds.create(64, 8, 6)
        tree = CounterTree(N_ROWS, th, track_weights=True)
        for i, row in enumerate(rows):
            tree.access(row)
            if i % 97 == 96:
                tree.reset()
        tree.reset()
        tree.check_invariants()
        assert tree.active_counters == 4  # presplit for M=8


class TestRowhammerSafety:
    """No row may accumulate more than T activations unrefreshed."""

    def _run_safety(self, scheme, rows, threshold):
        ledger = ActivationLedger(scheme.n_rows)
        for row in rows:
            ledger.activate(row)
            for cmd in scheme.access(row):
                c = cmd.clamped(scheme.n_rows)
                ledger.refresh_range(c.low, c.high)
            assert ledger.max_pressure() <= threshold, (
                f"row pressure {ledger.max_pressure()} exceeds T={threshold}"
            )

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(st.integers(0, N_ROWS - 1), min_size=50, max_size=600),
        m=st.sampled_from([4, 8, 16]),
    )
    def test_sca_is_safe(self, rows, m):
        scheme = SCAScheme(N_ROWS, 32, m)
        self._run_safety(scheme, rows, 32)

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(st.integers(0, N_ROWS - 1), min_size=50, max_size=600),
    )
    def test_prcat_is_safe(self, rows):
        scheme = PRCATScheme(N_ROWS, 64, n_counters=8, max_levels=6)
        self._run_safety(scheme, rows, 64)

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(st.integers(0, N_ROWS - 1), min_size=50, max_size=600),
    )
    def test_drcat_is_safe(self, rows):
        scheme = DRCATScheme(N_ROWS, 64, n_counters=8, max_levels=6)
        self._run_safety(scheme, rows, 64)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_drcat_safe_under_adversarial_hammer(self, data):
        """Focused hammering with drift — the hardest deterministic case."""
        scheme = DRCATScheme(N_ROWS, 64, n_counters=8, max_levels=7)
        targets = data.draw(
            st.lists(st.integers(0, N_ROWS - 1), min_size=1, max_size=4)
        )
        rows = []
        for t in targets:
            rows.extend([t] * 200)
        self._run_safety(scheme, rows, 64)


class TestCounterConservation:
    @settings(max_examples=40, deadline=None)
    @given(rows=access_seq)
    def test_active_plus_free_constant(self, rows):
        th = SplitThresholds.create(64, 8, 7)
        tree = CounterTree(N_ROWS, th, track_weights=True)
        for row in rows:
            tree.access(row)
            assert tree.active_counters + tree.free_counters == 8


class TestHarvestRegimeBatchEquivalence:
    """The compiled kernel serves PRCAT/DRCAT like the scalar loop,
    segment by segment.

    Skewed streams over an 8- or 16-counter pool drive DRCAT into the
    regime where every split must harvest a cold pair, so failed
    harvest attempts set blocked flags and successful ones spend the
    budget; 32-counter pools keep splits free for longer.  Each cut may
    bring an epoch reset on both sides and a JSON state round trip of
    the kernel side, so the flat registers cross into Python and back
    mid-stream.  Any inexact step shows up as a different command
    position, blocked flag, register or statistic.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from([DRCATScheme, PRCATScheme]),
        m=st.sampled_from([8, 16, 32]),
        t=st.sampled_from([64, 128, 256]),
        n_targets=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1000, 7000),
        cuts=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.booleans(), st.booleans()),
            max_size=4,
        ),
    )
    def test_batched_equals_scalar(self, kind, m, t, n_targets, seed, n, cuts):
        n_rows = 1024
        rng = np.random.default_rng(seed)
        targets = rng.integers(0, n_rows, size=n_targets)
        rows = np.where(
            rng.random(n) < 0.7,
            targets[rng.integers(0, n_targets, size=n)],
            rng.integers(0, n_rows, size=n),
        ).astype(np.int64)

        def build():
            return kind(n_rows, t, n_counters=m, max_levels=8)

        scalar, batched = build(), build()
        # cut position -> (epoch reset, state round trip) before it
        marks = {int(c * n): (reset, trip) for c, reset, trip in cuts}
        bounds = sorted({0, n, *marks})
        for lo, hi in zip(bounds, bounds[1:]):
            reset, trip = marks.get(lo, (False, False))
            if reset:
                scalar.on_interval_boundary()
                batched.on_interval_boundary()
            if trip:
                state = json.loads(json.dumps(batched.to_state()))
                batched = build()
                batched.restore_state(state)
            expected = []
            for position, row in enumerate(rows[lo:hi].tolist()):
                cmds = scalar.access(row)
                if cmds:
                    expected.append((position, cmds))
            assert kernel_batch(batched, rows[lo:hi]) == expected
            assert batched.to_state() == scalar.to_state()


def _ccache_chunks(n_rows: int):
    """1-5 chunks, each a short pattern of rows from a small pool
    repeated 1-12 times, then an optional epoch reset and an optional
    JSON state round trip."""
    pool = st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=8)
    return pool.flatmap(lambda pool: st.lists(
        st.tuples(
            st.lists(st.sampled_from(pool), max_size=24),
            st.integers(1, 12),
            st.booleans(),
            st.booleans(),
        ),
        min_size=1,
        max_size=5,
    ))


#: (n_rows, chunks); bank sizes include ones that are not a multiple
#: of the 32-counter line.
ccache_runs = st.one_of(st.sampled_from([48, 100]), st.integers(1, 1100)).flatmap(
    lambda n_rows: st.tuples(st.just(n_rows), _ccache_chunks(n_rows))
)


def _once(*patterns):
    """Chunks that each run one pattern once, with no reset between."""
    return [(list(pattern), 1, False, False) for pattern in patterns]


class TestCounterCacheBatchEquivalence:
    """Invariant 6: the counter cache served by the compiled kernel
    (:func:`kernel_batch`) equals per-access ``access`` in events,
    ``to_state()`` (registers and stats) and hit/miss/write-back totals.

    Repeated patterns from a small pool make counts cross T, lines come
    back after their eviction and small caches evict.  Without a reset
    or round trip, the next chunk starts with cached lines whose store
    counts are stale.  The explicit examples pin one write-back or
    refetch case each (the comment above each names it); the first is a
    counterexample this test shrank.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        run=ccache_runs,
        t=st.integers(1, 12),
        n_sets=st.integers(1, 4),
        n_ways=st.integers(1, 4),
    )
    # A refresh after the line's last eviction leaves 0 in the store.
    @example(run=(48, _once([0], [32, 0])), t=2, n_sets=1, n_ways=1)
    # Cached counts, not the stale store, seed the next chunk.
    @example(run=(48, _once([5, 5], [5, 5])), t=4, n_sets=1, n_ways=1)
    # An evicted start line writes back its untouched rows.
    @example(run=(48, _once([3], [40])), t=4, n_sets=1, n_ways=1)
    # A line cached throughout keeps its untouched rows' counts.
    @example(run=(48, _once([3], [4])), t=4, n_sets=1, n_ways=1)
    # The store holds the counts of the line's last eviction.
    @example(run=(48, _once([0, 32, 0, 32])), t=5, n_sets=1, n_ways=1)
    # The bank ends inside its last line.
    @example(run=(48, _once([40, 47, 40, 0, 40], [47, 40])), t=3, n_sets=1, n_ways=1)
    def test_batched_equals_scalar(self, run, t, n_sets, n_ways):
        n_rows, chunks = run
        scalar = CounterCacheScheme(n_rows, t, n_sets=n_sets, n_ways=n_ways)
        batched = CounterCacheScheme(n_rows, t, n_sets=n_sets, n_ways=n_ways)
        for pattern, repeats, reset, round_trip in chunks:
            rows = pattern * repeats
            expected = []
            for position, row in enumerate(rows):
                cmds = scalar.access(row)
                if cmds:
                    expected.append((position, cmds))
            assert kernel_batch(batched, np.array(rows, dtype=np.int64)) == expected
            assert batched.to_state() == scalar.to_state()
            if reset:
                scalar.on_interval_boundary()
                batched.on_interval_boundary()
            if round_trip:
                state = json.loads(json.dumps(batched.to_state()))
                batched = CounterCacheScheme(n_rows, t, n_sets=n_sets, n_ways=n_ways)
                batched.restore_state(state)


class TestSCAEquivalence:
    def test_uniform_cat_refreshes_same_groups_as_sca(self):
        """Invariant 4: under uniform access CAT converges to SCA_M.

        After convergence both schemes partition the bank into M equal
        groups, so their refresh ranges coincide.
        """
        m, t = 8, 64
        th = SplitThresholds.create(t, m, 6)
        tree = CounterTree(N_ROWS, th)
        rng = np.random.default_rng(0)
        for row in rng.integers(0, N_ROWS, size=3000):
            tree.access(int(row))
        assert tree.is_balanced()
        group = N_ROWS // m
        expected = {(i * group, (i + 1) * group - 1) for i in range(m)}
        got = {(lo, hi) for lo, hi, _ in tree.partition()}
        assert got == expected


class TestScaleInvariance:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_refresh_counts_stable_under_scaling(self, seed):
        """Invariant 6: dividing T and the access count by the same
        factor leaves refreshes-per-interval roughly unchanged."""
        rng = np.random.default_rng(seed)
        hot = int(rng.integers(0, N_ROWS))
        base_rows = [
            hot if rng.random() < 0.5 else int(rng.integers(0, N_ROWS))
            for _ in range(4000)
        ]
        results = []
        for scale in (1, 2):
            t = 256 // scale
            th = SplitThresholds.create(t, 8, 6)
            tree = CounterTree(N_ROWS, th)
            for row in base_rows[: len(base_rows) // scale]:
                tree.access(row)
            results.append(tree.total_refresh_commands)
        assert abs(results[0] - results[1]) <= max(3, results[0] // 2)
