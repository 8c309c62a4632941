"""SchemeState protocol: capture/restore fidelity at the object level.

The session-level tests prove end-to-end bit-identity; these tests pin
the protocol itself: for every registered scheme, ``to_state`` is
JSON-serializable, ``restore_state`` onto a freshly built instance
reproduces the *future behaviour* exactly (same commands on the same
continuation stream, same registers), and mismatched states are
rejected instead of silently corrupting.
"""

import json

import numpy as np
import pytest

from repro.analysis.prng import (
    CountingPRNG,
    LFSRPRNG,
    TrueRandomPRNG,
    prng_from_state,
)
from repro.core import make_scheme
from repro.core.base import RefreshCommand
from repro.core.counter_tree import HARVEST_BUDGET_PER_REFRESH
from repro.core.registry import get_scheme_info, scheme_names
from repro.dram.bank import BankState
from repro.dram.config import DRAMTimings, SystemConfig
from repro.dram.memory_system import MemorySystem
from repro.sim.kernel import serve_segment

N_ROWS = 4096
T = 256


def build(kind: str):
    """A small, eventful instance of one registered scheme."""
    info = get_scheme_info(kind)
    params = dict(info.safety_overrides.get("params", {}))
    return make_scheme(kind, N_ROWS, T, **params)


def sca_memory(n_banks: int) -> MemorySystem:
    """A small SCA-protected memory system of ``n_banks`` banks."""
    return MemorySystem(SystemConfig(rows_per_bank=N_ROWS),
                        lambda n: make_scheme("sca", n, T), n_banks=n_banks)


def stream(seed: int, n: int) -> list[int]:
    rng = np.random.default_rng(seed)
    # Skewed: a hot row plus background, so counters cross thresholds.
    hot = rng.random(n) < 0.5
    rows = rng.integers(0, N_ROWS, size=n)
    rows[hot] = 17
    return [int(r) for r in rows]


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


def drive(scheme, rows):
    """Feed rows; return the (position, command-tuple) event history."""
    out = []
    for i, row in enumerate(rows):
        for cmd in scheme.access(row):
            out.append((i, cmd.low, cmd.high, cmd.reason))
    return out


@pytest.mark.parametrize("kind", scheme_names())
class TestSchemeStateRoundTrip:
    def test_future_behaviour_identical(self, kind):
        prefix, suffix = stream(3, 4000), stream(4, 4000)
        original = build(kind)
        drive(original, prefix)
        state = json.loads(json.dumps(original.to_state()))

        clone = build(kind)
        clone.restore_state(state)
        assert drive(clone, suffix) == drive(original, suffix)
        assert clone.to_state() == original.to_state()

    def test_state_is_json_serializable(self, kind):
        scheme = build(kind)
        drive(scheme, stream(5, 1000))
        json.dumps(scheme.to_state())  # must not raise

    def test_batch_path_after_restore(self, kind):
        """The batched engine's path (the compiled kernel) on a restored
        scheme equals the original's."""
        prefix = stream(6, 3000)
        original = build(kind)
        drive(original, prefix)
        clone = build(kind)
        clone.restore_state(json.loads(json.dumps(original.to_state())))
        batch = np.asarray(stream(7, 3000), dtype=np.int64)
        events_a = [
            (p, [(c.low, c.high, c.reason) for c in cmds])
            for p, cmds in kernel_batch(original, batch.copy())
        ]
        events_b = [
            (p, [(c.low, c.high, c.reason) for c in cmds])
            for p, cmds in kernel_batch(clone, batch.copy())
        ]
        assert events_a == events_b
        assert clone.to_state() == original.to_state()


#: Malformed counter-cache states: case -> (field named, corruption).
CCACHE_MALFORMED = {
    "negative row": ("memory_counters", lambda s: s["memory_counters"].append([-1, 7])),
    "row past the bank": ("memory_counters", lambda s: s["memory_counters"].append([5000, 7])),
    "count at T": ("memory_counters", lambda s: s["memory_counters"].append([3, T])),
    "tag in the wrong set": ("sets", lambda s: s["sets"][0][0].__setitem__(0, 1)),
    "five ways in a 2-way set": (
        "sets", lambda s: s["sets"][0].extend([[4, [0] * 32], [6, [0] * 32], [8, [0] * 32]]),
    ),
    "tag cached twice": ("sets", lambda s: s["sets"][0].__setitem__(1, s["sets"][0][0])),
    "5-entry count list": ("sets", lambda s: s["sets"][1][0].__setitem__(1, [1, 2, 3, 4, 5])),
    "memory entry that is not a pair": (
        "memory_counters", lambda s: s["memory_counters"].append([1]),
    ),
    "negative misses": ("misses", lambda s: s.__setitem__("misses", -1)),
    "fractional hits": ("hits", lambda s: s.__setitem__("hits", 2.7)),
    "hits past int64": ("hits", lambda s: s.__setitem__("hits", 2**70)),
    "writebacks as a string": ("writebacks", lambda s: s.__setitem__("writebacks", "7")),
    "way that is not a pair": ("sets", lambda s: s["sets"][0].__setitem__(0, [1])),
    "count as a string": ("sets", lambda s: s["sets"][1][0][1].__setitem__(0, "x")),
    "sets that is not a list": ("sets", lambda s: s.__setitem__("sets", 5)),
    "fractional tag": (
        "sets", lambda s: next(w for w in s["sets"][0] if w[0] == 2).__setitem__(0, 2.5),
    ),
    "fractional count": ("sets", lambda s: s["sets"][1][0][1].__setitem__(0, 1.7)),
    "boolean count": ("sets", lambda s: s["sets"][1][0][1].__setitem__(0, True)),
}

#: Malformed SCA states: case -> corruption; each must name 'counts'.
SCA_MALFORMED = {
    "count past int64": lambda s: s["counts"].__setitem__(0, 2**70),
    "negative count": lambda s: s["counts"].__setitem__(0, -3),
    "count at T": lambda s: s["counts"].__setitem__(0, T),
    "fractional count": lambda s: s["counts"].__setitem__(0, 2.5),
    "short count list": lambda s: s["counts"].pop(),
}


def _swap_ranges(state):
    """Swap the row ranges of two active same-level counters: the ranges
    still tile the bank, but neither matches its path from the root."""
    active = [i for i, a in enumerate(state["counter_active"]) if a]
    a = active[0]
    b = next(i for i in active[1:] if state["level"][i] == state["level"][a])
    for field in ("low", "high"):
        values = state[field]
        values[a], values[b] = values[b], values[a]


#: Malformed counter-tree states: case -> (text the error names, corruption
#: of a DRCAT state with active and inactive counters and a free pool).
TREE_MALFORMED = {
    "short count list": ("'count'", lambda s: s["count"].pop()),
    "count that is not a number": ("'count'", lambda s: s["count"].__setitem__(0, "x")),
    "short harvest_blocked": ("'harvest_blocked'", lambda s: s["harvest_blocked"].pop()),
    "short child_l": ("'child_l'", lambda s: s["child_l"].pop()),
    "count at T": ("'count'", lambda s: s["count"].__setitem__(
        s["counter_active"].index(1), T)),
    "negative count": ("'count'", lambda s: s["count"].__setitem__(
        s["counter_active"].index(1), -1)),
    "weight past WEIGHT_MAX": ("'weight'", lambda s: s["weight"].__setitem__(
        s["counter_active"].index(1), 9)),
    "level at L": ("'level'", lambda s: s["level"].__setitem__(0, 99)),
    "count on an inactive counter": ("'count'", lambda s: s["count"].__setitem__(
        s["counter_active"].index(0), 5)),
    "budget past the cap": ("'harvest_budget'", lambda s: s.__setitem__(
        "harvest_budget", HARVEST_BUDGET_PER_REFRESH + 1)),
    "negative budget": ("'harvest_budget'", lambda s: s.__setitem__("harvest_budget", -1)),
    "free counter out of range": ("'free_counters'", lambda s: s["free_counters"].append(999)),
    "free counter repeated": ("'free_counters'", lambda s: s["free_counters"].append(
        s["free_counters"][0])),
    "free counter active": ("'free_counters'", lambda s: s["free_counters"].append(
        s["counter_active"].index(1))),
    "free inode out of range": ("'free_inodes'", lambda s: s["free_inodes"].append(-1)),
    "broken invariants": ("invariants", lambda s: s.__setitem__("n_active", s["n_active"] + 1)),
    "ranges swapped off their paths": ("path selects", _swap_ranges),
}


class TestTreeStateIntegrity:
    def test_restored_tree_passes_invariants(self):
        scheme = build("drcat")
        drive(scheme, stream(8, 6000))
        clone = build("drcat")
        clone.restore_state(json.loads(json.dumps(scheme.to_state())))
        clone.tree.check_invariants()
        assert clone.tree.partition() == scheme.tree.partition()
        assert clone.tree.depth_histogram() == scheme.tree.depth_histogram()

    def test_free_list_order_preserved(self):
        """Splits pop from the free-list tail; order is behavioural."""
        scheme = build("drcat")
        drive(scheme, stream(9, 6000))
        state = scheme.to_state()
        clone = build("drcat")
        clone.restore_state(state)
        assert clone.tree._free_counters == scheme.tree._free_counters
        assert clone.tree._free_inodes == scheme.tree._free_inodes

    def test_wrong_size_state_rejected(self):
        scheme = build("sca")
        state = scheme.to_state()
        state["counts"] = state["counts"][:-1]
        with pytest.raises(ValueError, match="counters"):
            build("sca").restore_state(state)

    @pytest.mark.parametrize("case", sorted(TREE_MALFORMED))
    def test_malformed_tree_state_rejected(self, case):
        """A tree state no DRCAT tree of this geometry can hold fails
        with a ValueError naming the field (or the broken invariant)."""
        named, corrupt = TREE_MALFORMED[case]
        scheme = build("drcat")
        drive(scheme, stream(8, 200))  # splits, with two counters still free
        state = json.loads(json.dumps(scheme.to_state()))
        assert 0 in state["tree"]["counter_active"] and state["tree"]["free_counters"]
        corrupt(state["tree"])
        with pytest.raises(ValueError, match=named):
            build("drcat").restore_state(state)

    @pytest.mark.parametrize("case", sorted(SCA_MALFORMED))
    def test_malformed_sca_state_rejected(self, case):
        """SCA counts cross into the compiled kernel as int64: a count
        that is not an integer in [0, T) fails with a ValueError naming
        the field."""
        scheme = build("sca")
        drive(scheme, stream(8, 200))
        state = json.loads(json.dumps(scheme.to_state()))
        SCA_MALFORMED[case](state)
        with pytest.raises(ValueError, match="'counts'"):
            build("sca").restore_state(state)

    @pytest.mark.parametrize("field", ["splits", "sram_reads"])
    def test_tree_total_past_int64_rejected(self, field):
        scheme = build("drcat")
        drive(scheme, stream(8, 200))
        state = json.loads(json.dumps(scheme.to_state()))
        state["tree"]["totals"][field] = 2**70
        with pytest.raises(ValueError, match="'totals'"):
            build("drcat").restore_state(state)

    @pytest.mark.parametrize("case", sorted(CCACHE_MALFORMED))
    def test_malformed_ccache_state_rejected(self, case):
        """A counter-cache state no 1024-row, 2-set, 2-way cache can
        hold fails with a ValueError naming the field."""
        field, corrupt = CCACHE_MALFORMED[case]
        scheme = make_scheme("ccache", 1024, T, n_sets=2, n_ways=2)
        for row in (0, 64, 64, 33):  # lines 0 and 2 in set 0, line 1 in set 1
            scheme.access(row)
        state = json.loads(json.dumps(scheme.to_state()))
        corrupt(state)
        with pytest.raises(ValueError, match=field):
            make_scheme("ccache", 1024, T, n_sets=2, n_ways=2).restore_state(state)


class TestPrngState:
    @pytest.mark.parametrize("prng", [
        TrueRandomPRNG(seed=42), LFSRPRNG(width=16), CountingPRNG(5),
    ])
    def test_stream_continues_exactly(self, prng):
        [prng.next_bits(9) for _ in range(137)]
        clone = prng_from_state(json.loads(json.dumps(prng.to_state())))
        assert [clone.next_bits(9) for _ in range(200)] == \
            [prng.next_bits(9) for _ in range(200)]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown PRNG kind"):
            prng_from_state({"kind": "quantum"})

    def test_lfsr_width_mismatch_rejected(self):
        state = LFSRPRNG(width=16).to_state()
        with pytest.raises(ValueError, match="width"):
            LFSRPRNG(width=24).restore_state(state)


class TestSubstrateState:
    @pytest.mark.parametrize("value", [2**70, -1, 1.5, "3"],
                             ids=["past int64", "negative", "fractional", "string"])
    def test_bank_integer_register_rejected(self, value):
        state = BankState(DRAMTimings()).to_state()
        state["refresh_backlog_rows"] = value
        with pytest.raises(ValueError, match="'refresh_backlog_rows'"):
            BankState(DRAMTimings()).restore_state(state)

    def test_bank_state_round_trip(self):
        bank = BankState(SystemConfig().timings)
        bank.serve_access(10.0)
        bank.serve_refresh(20.0, 64)
        bank.serve_access(25.0)
        clone = BankState(SystemConfig().timings)
        clone.restore_state(json.loads(json.dumps(bank.to_state())))
        assert clone == bank

    def test_memory_system_round_trip(self):
        config = SystemConfig(rows_per_bank=N_ROWS)

        def factory(n_rows):
            return make_scheme("drcat", n_rows, T,
                               n_counters=8, max_levels=6)

        rng = np.random.default_rng(11)
        times = np.sort(rng.uniform(0, 5e6, size=3000))
        banks = rng.integers(0, 4, size=3000)
        rows = rng.integers(0, N_ROWS, size=3000)
        system = MemorySystem(config, factory, 4, epoch_s=1e-3)
        for t, b, r in zip(times, banks, rows):
            system.access(float(t), int(b), int(r))

        clone = MemorySystem(config, factory, 4, epoch_s=1e-3)
        clone.restore_state(json.loads(json.dumps(system.to_state())))
        assert clone.to_state() == system.to_state()
        # Future behaviour agrees too.
        for t, b, r in zip(times, banks, rows):
            assert system.access(float(t) + 5e6, int(b), int(r)) == \
                clone.access(float(t) + 5e6, int(b), int(r))

    @pytest.mark.parametrize("field", ["banks", "schemes"])
    @pytest.mark.parametrize("states", [
        lambda docs: docs[:1],
        lambda docs: docs + docs[:1],
        lambda docs: {"0": docs[0], "1": docs[1]},
    ], ids=["short", "long", "not a list"])
    def test_one_state_per_bank(self, field, states):
        """``banks`` and ``schemes`` must each hold one state per
        simulated bank; a short scheme list used to leave the later
        banks with fresh schemes."""
        state = json.loads(json.dumps(sca_memory(2).to_state()))
        state[field] = states(state[field])
        with pytest.raises(ValueError, match=f"memory state field '{field}'"):
            sca_memory(2).restore_state(state)

    @pytest.mark.parametrize("field, value", [
        *[("next_epoch_ns", v) for v in (float("nan"), float("inf"), 0.0, -1.0, 10**400, "5", True)],
        ("epochs_completed", -1),
        ("total_refresh_commands", 1.5),
    ], ids=["nan", "inf", "zero", "negative", "past float", "string", "bool",
            "negative epochs", "fractional commands"])
    def test_epoch_clock_and_counts_checked(self, field, value):
        """The epoch clock must be a finite positive time and the counts
        integers in ``[0, 2^63)``; a NaN clock used to restore and then
        never cross another epoch."""
        state = sca_memory(1).to_state()
        state[field] = value
        with pytest.raises(ValueError, match=f"'{field}'"):
            sca_memory(1).restore_state(state)

    def test_scheme_kind_mismatch_rejected(self):
        config = SystemConfig(rows_per_bank=N_ROWS)
        sca = MemorySystem(config, lambda n: make_scheme("sca", n, T), 2)
        pra = MemorySystem(config, lambda n: make_scheme("pra", n, T), 2)
        with pytest.raises(ValueError, match="scheme"):
            pra.restore_state(sca.to_state())
