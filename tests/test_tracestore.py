"""Trace-store guarantees: bit-identity, keying, robustness, bypass.

The content-addressed activation-trace store
(:mod:`repro.sim.tracestore`) may never change a number: a stored
stream is served back byte-exact, the arrival RNG is left exactly where
generation would have left it, and any doubt about an entry (corrupt,
truncated, colliding, unwritable) silently falls back to generation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.registry import scheme_names
from repro.experiments import ExperimentSpec, SchemeSpec, run_spec
from repro.sim import tracestore
from repro.sim.engine import ENGINES
from repro.sim.tracestore import stream_key, stream_key_doc


def _spec(scheme="drcat", engine="batched", **overrides) -> ExperimentSpec:
    fields = dict(
        scheme=SchemeSpec(scheme) if isinstance(scheme, str) else scheme,
        workload="black",
        scale=96.0,
        n_banks=2,
        n_intervals=2,
        engine=engine,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def _run(spec: ExperimentSpec) -> dict:
    return run_spec(spec).to_dict()


@pytest.fixture()
def store_root(tmp_path, monkeypatch):
    """A fresh store location, isolated from the repo's default dir."""
    root = tmp_path / "traces"
    monkeypatch.setenv("REPRO_TRACE_STORE_DIR", str(root))
    monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
    # Singletons are keyed by root, so a fresh tmp root is enough; drop
    # them anyway so each test starts with cold in-process caches.
    tracestore._STORES.clear()
    yield root
    tracestore._STORES.clear()


def _reference(spec, monkeypatch) -> dict:
    """The store-off result (PR-4 behaviour)."""
    monkeypatch.setenv("REPRO_TRACE_STORE", "0")
    try:
        return _run(spec)
    finally:
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scheme", sorted(scheme_names()))
def test_cached_and_regenerated_streams_bit_identical(
    scheme, engine, store_root, monkeypatch
):
    """Store-off, store-cold and store-warm runs agree exactly.

    Registry-parametrized: a newly registered scheme is covered
    automatically, on both engines.
    """
    spec = _spec(scheme, engine)
    reference = _reference(spec, monkeypatch)
    cold = _run(spec)   # populates the store
    warm = _run(spec)   # serves every interval from it
    assert cold == reference
    assert warm == reference
    store = tracestore.open_store()
    assert store is not None
    assert store.stats()["entries"] == spec.n_intervals
    assert store.hits >= spec.n_intervals


def test_hits_are_zero_copy_memmap_views(store_root):
    spec = _spec("sca")
    _run(spec)
    # A fresh store (new process's view): entries come back as
    # read-only views of the on-disk memmaps, not heap copies.
    tracestore._STORES.clear()
    store = tracestore.open_store()
    doc = stream_key_doc(spec)
    per_bank, rng_state = store.get(stream_key(doc), doc, 0, spec.n_banks)
    for times, rows in per_bank:
        assert isinstance(times.base, np.memmap)
        assert isinstance(rows.base, np.memmap)
        assert not times.flags.writeable
    assert rng_state["bit_generator"] == "PCG64"


def test_longer_run_extends_a_shorter_runs_entries(store_root, monkeypatch):
    """n_intervals is excluded from the key: a 4-interval run hits the
    2-interval run's entries for intervals 0-1 and generates 2-3 from
    the restored RNG chain — bit-identical to generating everything."""
    short = _spec("sca", n_intervals=2)
    long = _spec("sca", n_intervals=4)
    reference = _reference(long, monkeypatch)
    _run(short)
    store = tracestore.open_store()
    assert store.stats()["entries"] == 2
    assert _run(long) == reference
    assert store.stats()["entries"] == 4


def test_scheme_threshold_and_engine_share_one_key(store_root):
    key = stream_key(stream_key_doc(_spec("drcat")))
    for other in (
        _spec("pra"),
        _spec(SchemeSpec.create("sca", n_counters=128)),
        _spec("drcat", refresh_threshold=16384),
        _spec("drcat", engine="scalar"),
    ):
        doc = stream_key_doc(other)
        assert stream_key(doc) == key


def test_stream_relevant_fields_change_the_key(store_root):
    key = stream_key(stream_key_doc(_spec("drcat")))
    for other in (
        _spec("drcat", seed=123),
        _spec("drcat", scale=24.0),
        _spec("drcat", n_banks=1),
        _spec("drcat", workload="libq"),
        _spec("drcat", intensity_scale=2.0),
        _spec("drcat", kind="attack", attack_kernel="kernel01",
              attack_mode="heavy"),
    ):
        doc = stream_key_doc(other)
        assert stream_key(doc) != key


def test_key_miss_actually_regenerates(store_root):
    _run(_spec("sca"))
    store = tracestore.open_store()
    assert store.stats()["entries"] == 2
    _run(_spec("sca", seed=123))
    # Distinct seed populated distinct entries instead of hitting.
    assert store.stats()["entries"] == 4


@pytest.mark.parametrize("corruption", ["truncate_times", "unlink_rows",
                                        "garbage_meta"])
def test_corrupt_entries_regenerate_never_crash(
    corruption, store_root, monkeypatch
):
    spec = _spec("drcat")
    reference = _reference(spec, monkeypatch)
    assert _run(spec) == reference
    store = tracestore.open_store()
    doc = stream_key_doc(spec)
    key = stream_key(doc)
    target = {
        "truncate_times": store._times_path(key, 0),
        "unlink_rows": store._rows_path(key, 0),
        "garbage_meta": store._meta_path(key, 0),
    }[corruption]
    if corruption == "truncate_times":
        target.write_bytes(target.read_bytes()[:40])
    elif corruption == "unlink_rows":
        target.unlink()
    else:
        target.write_text("{not json", encoding="utf-8")
    # Fresh process-level view: the in-RAM entry cache must not mask
    # the on-disk corruption for this check.
    tracestore._STORES.clear()
    assert _run(spec) == reference
    # The corrupt entry was dropped and rewritten; a further run hits.
    tracestore._STORES.clear()
    assert _run(spec) == reference


@pytest.mark.parametrize("mutation", ["nonmonotonic_offsets", "bogus_rng"])
def test_consistent_looking_corruption_regenerates(
    mutation, store_root, monkeypatch
):
    """Total-preserving offset shuffles and malformed RNG states must
    degrade to regeneration — never silent wrong numbers, never a
    crash."""
    import json

    spec = _spec("sca")
    reference = _reference(spec, monkeypatch)
    _run(spec)
    store = tracestore.open_store()
    doc = stream_key_doc(spec)
    key = stream_key(doc)
    meta_path = store._meta_path(key, 0)
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    if mutation == "nonmonotonic_offsets":
        total = meta["offsets"][-1]
        meta["offsets"] = [0, total + 5, total]
    else:
        meta["rng_after"] = {"bogus": 1}
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    tracestore._STORES.clear()
    assert _run(spec) == reference


def test_hash_collision_detected_by_key_doc(store_root):
    spec = _spec("sca")
    _run(spec)
    store = tracestore.open_store()
    doc = stream_key_doc(spec)
    other = dict(doc, seed=999)  # same requested key, different identity
    assert store.get(stream_key(doc), other, 0, spec.n_banks) is None


def test_store_off_env_bypasses_cleanly(store_root, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_STORE", "0")
    assert tracestore.open_store() is None
    spec = _spec("sca")
    result = _run(spec)
    assert not store_root.exists()
    monkeypatch.setenv("REPRO_TRACE_STORE", "1")
    assert _run(spec) == result


def test_unwritable_root_degrades_to_generation(tmp_path, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    monkeypatch.setenv("REPRO_TRACE_STORE_DIR", str(blocker / "traces"))
    tracestore._STORES.clear()
    spec = _spec("sca")
    result = _run(spec)
    monkeypatch.setenv("REPRO_TRACE_STORE", "0")
    assert _run(spec) == result


def test_checkpoint_resume_with_store_matches_uninterrupted(
    store_root, monkeypatch
):
    """Snapshot/restore across a store-warm boundary stays bit-exact:
    the restored session serves remaining intervals from the store with
    the RNG chain intact."""
    import json

    from repro.api import Session

    spec = _spec("drcat", n_intervals=2)
    reference = _reference(spec, monkeypatch)
    _run(spec)  # warm the store
    session = Session(spec)
    session.advance(session.total_ns / 2.0)
    restored = Session.restore(json.loads(json.dumps(session.snapshot())))
    assert restored.result().to_dict() == reference


def test_clear_and_stats_roundtrip(store_root):
    _run(_spec("sca"))
    store = tracestore.open_store()
    stats = store.stats()
    assert stats["entries"] == 2 and stats["bytes"] > 0
    assert store.clear() == 2
    assert store.stats()["entries"] == 0
