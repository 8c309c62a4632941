"""Streaming session API: equivalence, checkpointing, taps, injection.

The session layer's contract is *bit-identity*: however a run is
paused, stepped, observed, snapshot/restored (including through a JSON
byte round-trip), or forked, its final :class:`SimulationResult` must
equal the uninterrupted batch run's exactly.  These tests pin that
contract for every registered scheme on both engines, plus the facade
semantics (geometry, taps, injection, snapshot hygiene).
"""

import contextlib
import copy
import dataclasses
import functools
import gc
import json
import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    SNAPSHOT_KIND,
    SNAPSHOT_VERSION,
    EpochEvent,
    MitigationEvent,
    Session,
    SessionError,
    open_session,
)
from repro.core.registry import scheme_names
from repro.experiments import ExperimentSpec, SchemeSpec, run_spec
from repro.sim import tracestore

ENGINES = ("batched", "scalar")

#: Small-but-eventful economy point: enough traffic that every scheme
#: refreshes, splits (CAT), and crosses an interior epoch boundary.
KNOBS = dict(workload="mum", scale=96.0, n_banks=2, n_intervals=2)


def spec_for(kind: str, engine: str, **overrides) -> ExperimentSpec:
    fields = dict(scheme=SchemeSpec(kind), engine=engine, **KNOBS)
    fields.update(overrides)
    return ExperimentSpec(**fields)


def json_cycle(doc: dict) -> dict:
    """A byte-level JSON round-trip (what a snapshot file goes through)."""
    return json.loads(json.dumps(doc))


class TestSessionEqualsBatch:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kind", scheme_names())
    def test_run_to_completion_bit_identical(self, kind, engine):
        spec = spec_for(kind, engine)
        direct = run_spec(spec)
        assert open_session(spec).result().to_dict() == direct.to_dict()

    def test_stepping_bit_identical(self):
        for engine in ENGINES:
            spec = spec_for("drcat", engine)
            direct = run_spec(spec)
            session = open_session(spec)
            while not session.done:
                session.step(1234)
            assert session.result().to_dict() == direct.to_dict(), engine

    def test_advance_partition_bit_identical(self):
        """Arbitrary time cuts, including mid-epoch, change nothing."""
        for engine in ENGINES:
            spec = spec_for("prcat", engine)
            direct = run_spec(spec)
            session = open_session(spec)
            for fraction in (0.1, 0.37, 0.5, 0.93):
                session.advance(session.total_ns * fraction)
            assert session.result().to_dict() == direct.to_dict(), engine


class TestSnapshotRestoreProperty:
    """Satellite: snapshot -> restore -> finish == uninterrupted run,
    for every registered scheme, on both engines, through JSON."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kind", scheme_names())
    def test_mid_run_checkpoint_bit_identical(self, kind, engine):
        spec = spec_for(kind, engine)
        direct = run_spec(spec)
        session = open_session(spec)
        session.advance(session.total_ns * 0.4)
        restored = Session.restore(json_cycle(session.snapshot()))
        assert restored.result().to_dict() == direct.to_dict()

    @pytest.mark.parametrize("kind", scheme_names())
    def test_repeated_checkpoint_cycles(self, kind):
        """Checkpoint/restore after every few thousand accesses."""
        for engine in ENGINES:
            spec = spec_for(kind, engine)
            direct = run_spec(spec)
            session = open_session(spec)
            while not session.done:
                session.step(3000)
                session = Session.restore(json_cycle(session.snapshot()))
            assert session.result().to_dict() == direct.to_dict(), engine

    def test_fork_independence(self):
        """One snapshot, two continuations: equal results, no aliasing."""
        spec = spec_for("drcat", "batched")
        session = open_session(spec)
        session.advance(session.total_ns / 2)
        snap = json_cycle(session.snapshot())
        fork_a, fork_b = Session.restore(snap), Session.restore(snap)
        fork_a.step(500)  # drive one fork ahead of the other
        assert fork_a.result().to_dict() == fork_b.result().to_dict()
        assert fork_a.result().to_dict() == run_spec(spec).to_dict()

    def test_checkpoint_before_first_step(self):
        spec = spec_for("sca", "batched")
        session = open_session(spec)
        restored = Session.restore(json_cycle(session.snapshot()))
        assert restored.result().to_dict() == run_spec(spec).to_dict()

    def test_attack_spec_checkpoint(self):
        spec = ExperimentSpec(
            scheme=SchemeSpec("sca"), workload="libq", kind="attack",
            attack_kernel="kernel01", attack_mode="heavy",
            scale=96.0, n_banks=1, n_intervals=2,
        )
        direct = run_spec(spec)
        session = open_session(spec)
        session.advance(session.total_ns / 2)
        restored = Session.restore(json_cycle(session.snapshot()))
        assert restored.result().to_dict() == direct.to_dict()

    def test_engine_mismatch_rejected(self):
        session = open_session(spec_for("sca", "batched"))
        session.step(100)
        snap = session.snapshot()
        snap["spec"]["engine"] = "scalar"
        with pytest.raises(ValueError, match="engine"):
            Session.restore(snap)

    def test_bad_snapshot_rejected(self):
        with pytest.raises(SessionError, match=SNAPSHOT_KIND):
            Session.restore({"kind": "something-else"})
        # Version 1 scalar snapshots carried one merged stream, version
        # 2 the pending per-bank streams themselves.
        for version in (1, 2, 99):
            with pytest.raises(SessionError, match="snapshot_version"):
                Session.restore(
                    {"kind": SNAPSHOT_KIND, "snapshot_version": version}
                )

    def test_snapshot_holds_positions_not_streams(self):
        """A format-3 snapshot records where each bank is in its stream
        (and what was injected), never the generated accesses."""
        session = open_session(spec_for("sca", "batched"))
        session.advance(session.total_ns * 0.6)
        session.inject([3, 5], bank=1)
        snap = session.snapshot()
        assert snap["snapshot_version"] == SNAPSHOT_VERSION == 3
        core = snap["core"]
        assert "streams" not in core
        assert core["interval"] == 1 and len(core["cursors"]) == 2
        assert [entry[:1] for entry in core["injections"]] == [[1]]
        assert len(json.dumps(snap)) < 10 * 1024

    def test_save_load_file_round_trip(self, tmp_path):
        spec = spec_for("drcat", "scalar")
        direct = run_spec(spec)
        session = open_session(spec)
        session.step(5000)
        path = session.save(tmp_path / "snap.json")
        assert Session.load(path).result().to_dict() == direct.to_dict()


class TestMalformedSnapshots:
    """A damaged snapshot fails with an error naming what is wrong."""

    @pytest.fixture(scope="class")
    def snap(self):
        session = open_session(spec_for("sca", "batched"))
        session.step(100)
        return json_cycle(session.snapshot())

    @pytest.mark.parametrize(
        "path",
        [("spec",), ("core",), ("core", "memory"), ("core", "cursors")],
        ids=".".join,
    )
    def test_missing_field_named(self, snap, path):
        doc = copy.deepcopy(snap)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        with pytest.raises(SessionError, match=f"missing field '{path[-1]}'"):
            Session.restore(doc)

    def test_mistyped_field(self, snap):
        doc = copy.deepcopy(snap)
        doc["core"]["cursors"] = None
        with pytest.raises(SessionError, match="mistyped field"):
            Session.restore(doc)

    def test_cursor_beyond_stream_rejected(self, snap):
        doc = copy.deepcopy(snap)
        doc["core"]["cursors"][0] = 10 ** 9
        with pytest.raises(ValueError, match="cursors"):
            Session.restore(doc)


@contextlib.contextmanager
def trace_store(root):
    """Run with the trace store at ``root``, or disabled for None."""
    saved = {k: os.environ.get(k)
             for k in ("REPRO_TRACE_STORE", "REPRO_TRACE_STORE_DIR")}
    os.environ["REPRO_TRACE_STORE"] = "0" if root is None else "1"
    if root is not None:
        os.environ["REPRO_TRACE_STORE_DIR"] = str(root)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        if root is not None:
            tracestore._STORES.pop(str(root), None)


class TestTamperedSnapshots:
    """Restoring rebuilds the pending streams from the spec, so a
    snapshot whose streams rebuild differently is refused."""

    def _foreign_interval_rng(self, spec):
        session = open_session(spec)
        session.advance(session.total_ns * 0.6)
        snap = json_cycle(session.snapshot())
        other = open_session(dataclasses.replace(spec, seed=spec.seed + 1))
        other.advance(other.total_ns * 0.6)
        snap["core"]["interval_rng"] = other.snapshot()["core"]["interval_rng"]
        return snap

    def test_refused_regeneration_is_not_stored(self, tmp_path):
        """A store miss regenerates the interval; a refused one must not
        be published, or it would poison every later run of the key."""
        spec = spec_for("sca", "batched")
        with trace_store(None):
            reference = run_spec(spec).to_dict()
            snap = self._foreign_interval_rng(spec)
        with trace_store(tmp_path / "traces"):
            with pytest.raises(ValueError, match="digest"):
                Session.restore(snap)
            assert tracestore.open_store().stats()["entries"] == 0
            assert run_spec(spec).to_dict() == reference

    def test_other_row_generator_fails_the_digest(self, monkeypatch):
        """A build whose generator yields other rows, while drawing the
        arrival RNG exactly as before, is refused by the digest alone."""
        from repro.sim import simulator

        spec = spec_for("sca", "batched")
        with trace_store(None):
            session = open_session(spec)
            session.advance(session.total_ns * 0.6)
            snap = json_cycle(session.snapshot())
            plan = simulator.stream_plan

            def reversed_rows(spec):
                label, intensity, rows_fn = plan(spec)
                return label, intensity, lambda b, i: rows_fn(b, i)[::-1]

            monkeypatch.setattr(simulator, "stream_plan", reversed_rows)
            with pytest.raises(ValueError, match="digest"):
                Session.restore(snap)

    def test_tampered_rng_fails(self):
        session = open_session(spec_for("drcat", "batched"))
        session.advance(session.total_ns * 0.6)
        snap = json_cycle(session.snapshot())
        snap["core"]["rng"]["pcg64"]["state"]["state"] += 1
        with pytest.raises(ValueError, match="arrival-RNG"):
            Session.restore(snap)


#: A fixed burst the property test may inject before its cut.
BURST_AT, BURST = 700, [11] * 900 + [4000] * 300


def _open_with_burst(spec, inject):
    session = open_session(spec)
    if inject:
        session.step(BURST_AT)
        session.inject(BURST, bank=spec.n_banks - 1)
    return session


def _finish(session):
    """The session's result and its final registers (every bank and
    scheme), which the result alone does not show."""
    return session.result().to_dict(), session.memory.to_state()


def _run_cut(spec, inject, cut, store_snap, store_restore):
    """Finish ``spec`` with an optional burst, snapshot-restored after
    ``cut`` further accesses under the given trace-store settings (a
    root, or None for off)."""
    with trace_store(store_snap):
        session = _open_with_burst(spec, inject)
        session.step(cut)
        snap = json_cycle(session.snapshot())
    with trace_store(store_restore):
        return _finish(Session.restore(snap))


@functools.lru_cache(maxsize=16)
def _uninterrupted(spec, inject):
    with trace_store(None):
        return _finish(_open_with_burst(spec, inject))


class TestSnapshotRestoreHypothesis:
    """snapshot -> JSON -> restore -> finish equals the uninterrupted
    run, in its result and its final registers, at any cut, with or
    without an injected burst, with the trace store on or off at either
    end.  Both ends share one fresh store directory, so a restore with
    the store on hits it when the snapshot side had it on too, and
    regenerates into it otherwise."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["sca", "drcat", "ccache"]),
        n_banks=st.integers(1, 2),
        n_intervals=st.integers(2, 3),
        inject=st.booleans(),
        cut=st.integers(0, 45_000),
        store_snap=st.booleans(),
        store_restore=st.booleans(),
    )
    def test_restore_equals_uninterrupted(
        self, tmp_path_factory, kind, n_banks, n_intervals, inject, cut,
        store_snap, store_restore,
    ):
        spec = spec_for(kind, "batched", n_banks=n_banks,
                        n_intervals=n_intervals)
        root = tmp_path_factory.mktemp("traces")
        result = _run_cut(spec, inject, cut,
                          root if store_snap else None,
                          root if store_restore else None)
        assert result == _uninterrupted(spec, inject)


class TestSessionFacade:
    def test_geometry(self):
        session = open_session(spec_for("sca", "batched"))
        assert session.total_ns == pytest.approx(
            KNOBS["n_intervals"] * session.epoch_ns
        )
        assert not session.done
        assert session.accesses_served == 0

    def test_step_serves_exactly_n(self):
        session = open_session(spec_for("sca", "batched"))
        assert session.step(100) == 100
        assert session.accesses_served == 100

    def test_advance_respects_time(self):
        session = open_session(spec_for("sca", "batched"))
        session.advance(session.total_ns / 4)
        assert 0 < session.position_ns < session.total_ns / 4
        assert not session.done

    def test_metrics_partial_then_final(self):
        spec = spec_for("drcat", "batched")
        session = open_session(spec)
        session.advance(session.total_ns / 2)
        partial = session.metrics()
        assert 0 < partial.accesses < run_spec(spec).totals.accesses
        final = session.result()
        assert session.metrics() == final.totals

    def test_open_session_overrides(self):
        session = open_session(spec_for("sca", "batched"), n_intervals=4)
        assert session.spec.n_intervals == 4

    def test_open_session_accepts_spec_dict(self):
        doc = spec_for("sca", "batched").to_dict()
        assert open_session(doc).spec == spec_for("sca", "batched")


class TestObserverTaps:
    def test_on_epoch_stream(self):
        spec = spec_for("drcat", "batched", n_intervals=3)
        session = open_session(spec)
        events: list[EpochEvent] = []
        session.on_epoch(events.append)
        result = session.result()
        assert [e.epoch for e in events] == [1, 2, 3]
        # Deltas telescope to the final cumulative totals.
        assert sum(e.delta.accesses for e in events) == result.totals.accesses
        assert sum(
            e.delta.rows_refreshed for e in events
        ) == result.totals.rows_refreshed
        assert events[-1].totals.accesses == result.totals.accesses
        # Each delta covers one epoch.
        assert events[0].delta.elapsed_ns == pytest.approx(session.epoch_ns)

    def test_on_mitigation_stream(self):
        session = open_session(spec_for("sca", "batched"))
        events: list[MitigationEvent] = []
        session.on_mitigation(events.append)
        result = session.result()
        assert len(events) == result.totals.refresh_commands
        assert sum(e.rows for e in events) == result.totals.rows_refreshed
        assert all(e.time_ns >= 0 and e.bank in (0, 1) for e in events)

    def test_taps_do_not_change_numbers(self):
        spec = spec_for("prcat", "scalar")
        direct = run_spec(spec)
        session = open_session(spec)
        session.on_epoch(lambda e: None)
        session.on_mitigation(lambda e: None)
        assert session.result().to_dict() == direct.to_dict()

    def _epoch2_delta(self, session):
        events = []
        session.on_epoch(events.append)
        session.result()
        return {
            e.epoch: (e.delta.accesses, e.delta.rows_refreshed,
                      e.delta.stall_ns)
            for e in events
        }[2]

    def test_resumed_session_deltas_cover_whole_epochs(self):
        """EpochEvent.delta spans the full epoch even when the session
        was restored (or the tap registered) mid-epoch."""
        spec = spec_for("drcat", "batched")
        reference = self._epoch2_delta(open_session(spec))
        # Resume mid-epoch-2: the epoch-2 delta must still be whole.
        resumed = open_session(spec)
        resumed.advance(resumed.epoch_ns * 1.5)
        resumed = Session.restore(json_cycle(resumed.snapshot()))
        assert self._epoch2_delta(resumed) == reference
        # Tap registered mid-epoch-2: same guarantee.
        late = open_session(spec)
        late.advance(late.epoch_ns * 1.5)
        assert self._epoch2_delta(late) == reference

    def test_snapshot_inside_epoch_tap(self):
        """Epoch boundaries are clean checkpoint cut points.

        The tap fires inside the access that crosses the boundary; that
        access must still be pending in the snapshot (a cursor moves
        past an access only once it is served).
        """
        for engine in ENGINES:
            spec = spec_for("drcat", engine)
            direct = run_spec(spec)
            grabbed: list[dict] = []
            session = open_session(spec)
            session.on_epoch(
                lambda e: grabbed.append(json_cycle(session.snapshot()))
                if e.epoch == 1 else None
            )
            session.result()
            (snap,) = grabbed
            restored = Session.restore(snap).result()
            assert restored.to_dict() == direct.to_dict(), engine

    def test_finished_session_is_freed_without_gc(self):
        """Finishing unhooks the taps, so no reference cycle keeps a
        finished session alive until the cyclic collector runs."""
        session = open_session(spec_for("sca", "batched"))
        session.on_epoch(lambda e: None)
        session.on_mitigation(lambda e: None)
        session.result()
        ref = weakref.ref(session)
        gc.disable()
        try:
            del session
            assert ref() is None
        finally:
            gc.enable()


class TestInjection:
    def test_inject_adds_traffic(self):
        spec = spec_for("drcat", "batched")
        base = run_spec(spec)
        session = open_session(spec)
        session.advance(session.total_ns / 3)
        injected = session.inject([7] * 5000)
        result = session.result()
        assert injected == 5000
        assert result.totals.accesses == base.totals.accesses + 5000
        assert result.totals.rows_refreshed > base.totals.rows_refreshed

    def test_inject_attack_triggers_refreshes(self):
        spec = spec_for("sca", "batched", workload="libq")
        base = run_spec(spec)
        session = open_session(spec)
        session.advance(session.total_ns / 3)
        n = session.inject_attack("kernel03", "heavy")
        result = session.result()
        assert n > 0
        assert result.totals.accesses == base.totals.accesses + n
        assert result.totals.rows_refreshed > base.totals.rows_refreshed

    @pytest.mark.parametrize("engine", ENGINES)
    def test_injection_then_checkpoint(self, engine):
        """Injected traffic survives snapshot/restore bit-identically."""
        def run(checkpoint: bool):
            session = open_session(spec_for("drcat", engine))
            session.advance(session.total_ns / 3)
            session.inject_attack("kernel05", "medium", seed_salt=7)
            if checkpoint:
                session.step(999)
                session = Session.restore(json_cycle(session.snapshot()))
            return session.result()

        assert run(True).to_dict() == run(False).to_dict()

    def test_numpy_int_arguments_snapshot_as_json(self):
        """Cursors and the injection log are plain ints in a snapshot,
        even when the session was driven with numpy integers."""
        spec = spec_for("sca", "batched")

        def run(ints):
            session = open_session(spec)
            session.step(ints(1000))
            session.inject([3, 4], bank=ints(1))
            return session

        snap = json.loads(json.dumps(run(np.int64).snapshot()))
        assert Session.restore(snap).result().to_dict() == \
            run(int).result().to_dict()

    def test_inject_rejects_bad_rows_and_banks(self):
        session = open_session(spec_for("sca", "batched"))
        with pytest.raises(ValueError, match="bank"):
            session.inject([1], bank=99)
        with pytest.raises(ValueError, match="rows"):
            session.inject([10 ** 9])

    def test_inject_rejects_out_of_window_times(self):
        session = open_session(spec_for("sca", "batched"))
        with pytest.raises(ValueError, match="interval window"):
            session.inject([1], times_ns=[session.total_ns * 10])


class TestSessionModes:
    """REPRO_SESSION_MODE routes run_spec through the session paths."""

    def test_modes_bit_identical(self, monkeypatch):
        spec = spec_for("drcat", "batched")
        results = {}
        for mode in ("direct", "checkpoint"):
            monkeypatch.setenv("REPRO_SESSION_MODE", mode)
            results[mode] = run_spec(spec).to_dict()
        assert results["direct"] == results["checkpoint"]

    def test_invalid_mode_fails_clearly(self, monkeypatch):
        from repro.report.config import EnvConfigError

        # "session" was a third mode until every run became a session.
        for mode in ("warp", "session"):
            monkeypatch.setenv("REPRO_SESSION_MODE", mode)
            with pytest.raises(EnvConfigError, match="REPRO_SESSION_MODE"):
                run_spec(spec_for("sca", "batched"))

    def test_non_direct_mode_bypasses_cache(self, tmp_path, monkeypatch):
        from repro.experiments import ResultCache, run_plan

        spec = spec_for("sca", "batched")
        cache = ResultCache(tmp_path)
        monkeypatch.setenv("REPRO_SESSION_MODE", "checkpoint")
        run_plan([spec], cache=cache)
        assert cache.hits == 0 and cache.misses == 0
        assert not list(tmp_path.rglob("*.json"))


class TestSpecCheckpointConfig:
    def test_checkpoint_every_round_trips_and_is_cosmetic(self):
        spec = spec_for("sca", "batched")
        tagged = dataclasses.replace(spec, checkpoint_every=2)
        assert ExperimentSpec.from_dict(tagged.to_dict()) == tagged
        # Cosmetic for the numbers: hashing (and hence caching) ignores it.
        assert tagged.content_hash() == spec.content_hash()

    def test_checkpoint_every_validated(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            spec_for("sca", "batched", checkpoint_every=0)


class TestCachePartialRuns:
    def test_snapshot_keyed_by_spec_and_tag(self, tmp_path):
        from repro.experiments import ResultCache

        cache = ResultCache(tmp_path)
        spec = spec_for("drcat", "batched")
        direct = run_spec(spec)
        session = open_session(spec)
        session.advance(session.total_ns / 2)
        cache.put_snapshot(spec, "half", session.snapshot())
        # A differently-labelled writer of the same experiment hits it.
        relabelled = dataclasses.replace(
            spec, scheme=SchemeSpec("drcat", label="DRCAT_64")
        )
        stored = cache.get_snapshot(relabelled, "half")
        assert stored is not None
        assert Session.restore(stored).result().to_dict() == direct.to_dict()
        # Unknown tags and different specs miss.
        assert cache.get_snapshot(spec, "other-tag") is None
        assert cache.get_snapshot(
            dataclasses.replace(spec, seed=1), "half"
        ) is None
