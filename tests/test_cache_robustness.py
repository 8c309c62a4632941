"""Tests for store robustness: corrupt entries, orphaned tmp residue,
atomic writes, and what each store's stats and clear touch."""

import json

import pytest

from repro.api import Session
from repro.experiments import ExperimentSpec, ResultCache, SchemeSpec
from repro.experiments.cache import publish
from repro.experiments.run import run_spec
from repro.server.journal import JOURNAL_DIR, Journal
from repro.sim.tracestore import TraceStore
from repro.testing.faults import ENV_VAR, reset_faults

FAST = dict(scale=128.0, n_banks=1, n_intervals=1)


def fast_spec(**overrides):
    fields = dict(scheme=SchemeSpec("drcat"), workload="libq", **FAST)
    fields.update(overrides)
    return ExperimentSpec(**fields)


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    reset_faults()
    yield
    reset_faults()


@pytest.fixture(scope="module")
def one_result():
    return run_spec(fast_spec())


class TestCorruptResultEntries:
    @pytest.mark.parametrize("mangle", [
        lambda text: text[: len(text) // 2],          # truncated write
        lambda text: "not json at all {{{",           # garbage
        lambda text: "",                              # empty file
        lambda text: json.dumps({"result": None}),    # missing spec
    ])
    def test_corrupt_entry_is_a_miss_and_dropped(
        self, tmp_path, one_result, mangle
    ):
        spec = fast_spec()
        cache = ResultCache(tmp_path)
        path = cache.put(spec, one_result)
        path.write_text(mangle(path.read_text(encoding="utf-8")),
                        encoding="utf-8")
        fresh = ResultCache(tmp_path)
        assert fresh.get(spec) is None
        assert fresh.misses == 1 and fresh.hits == 0
        assert not path.exists()  # dropped, so the next put heals it

    def test_injected_corrupt_put_degrades_to_cold_start(
        self, tmp_path, one_result, monkeypatch
    ):
        spec = fast_spec()
        cache = ResultCache(tmp_path)
        monkeypatch.setenv(ENV_VAR, "cache.put:corrupt:5")
        reset_faults()
        path = cache.put(spec, one_result)
        assert path.exists()
        fresh = ResultCache(tmp_path)
        assert fresh.get(spec) is None  # detected, not served


class TestCorruptSnapshots:
    @pytest.mark.parametrize("mangle", [
        lambda text: text[: len(text) // 2],
        lambda text: "\x00\x01\x02",
        lambda text: json.dumps({"snapshot": {}}),    # missing spec
    ])
    def test_corrupt_snapshot_is_a_miss_never_an_error(
        self, tmp_path, mangle
    ):
        spec = fast_spec()
        cache = ResultCache(tmp_path)
        session = Session(spec)
        session.advance(session.total_ns / 4)
        path = cache.put_snapshot(spec, "quarter", session.snapshot())
        path.write_text(mangle(path.read_text(encoding="utf-8")),
                        encoding="utf-8")
        fresh = ResultCache(tmp_path)
        assert fresh.get_snapshot(spec, "quarter") is None
        assert fresh.misses == 1
        assert not path.exists()

    def test_snapshot_for_other_spec_is_a_miss(self, tmp_path):
        spec = fast_spec()
        other = fast_spec(workload="black")
        cache = ResultCache(tmp_path)
        session = Session(spec)
        session.advance(session.total_ns / 4)
        good = cache.put_snapshot(spec, "q", session.snapshot())
        # Simulate a hash collision / hand-copied entry: the stored doc
        # claims a different producing spec.
        doc = json.loads(good.read_text(encoding="utf-8"))
        doc["spec"] = other.to_dict()
        good.write_text(json.dumps(doc), encoding="utf-8")
        fresh = ResultCache(tmp_path)
        assert fresh.get_snapshot(spec, "q") is None

    def test_intact_snapshot_round_trips(self, tmp_path):
        spec = fast_spec()
        cache = ResultCache(tmp_path)
        session = Session(spec)
        session.advance(session.total_ns / 2)
        snapshot = json.loads(json.dumps(session.snapshot()))
        cache.put_snapshot(spec, "half", snapshot)
        fresh = ResultCache(tmp_path)
        restored = fresh.get_snapshot(spec, "half")
        assert restored == snapshot
        assert Session.restore(restored).result().to_dict() == \
            Session(spec).result().to_dict()


class TestOrphanTmpSweep:
    def test_stores_sweep_only_their_own_tmp(self, tmp_path):
        """Each store's stats() deletes the residue in its own
        directories, and nothing outside them."""
        cache = ResultCache(tmp_path)
        traces = TraceStore(tmp_path / "traces")
        journal = Journal(tmp_path / JOURNAL_DIR, fsync=False)
        stale = tmp_path / STALE
        for directory in (cache.root, stale, traces.root, journal.root):
            directory.mkdir(parents=True)
        keep = cache.root / "deadbeef.json"
        keep.write_text("{}", encoding="utf-8")
        (cache.root / "deadbeefab12.tmp").write_text("torn")
        (stale / "old.tmp").write_text("torn")
        (traces.root / "k-i0.rows.abc.tmp").write_bytes(b"\x93")
        (journal.root / "seg-00000002.abc.tmp").write_bytes(b"\x00")
        foreign = [tmp_path / "important" / "draft.tmp",
                   tmp_path / "traces" / "notes.tmp",
                   tmp_path / "v1-abc" / "other.tmp"]
        for path in foreign:
            path.parent.mkdir(exist_ok=True)
            path.write_text("mine", encoding="utf-8")
        assert cache.stats()["tmp_removed"] == 2
        assert traces.stats()["tmp_removed"] == 1
        assert journal.stats()["tmp_removed"] == 1
        assert keep.exists()
        assert all(path.exists() for path in foreign)
        # Idempotent.
        assert cache.stats()["tmp_removed"] == 0
        assert journal.stats()["tmp_removed"] == 0

    def test_missing_store_sweeps_nothing(self, tmp_path):
        assert ResultCache(tmp_path / "nope").stats()["tmp_removed"] == 0
        assert Journal(tmp_path / "nope").stats()["tmp_removed"] == 0

    def test_cli_cache_stats_reports_sweep(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        result_root = tmp_path / "results"
        orphan = ResultCache(result_root).root / "orphan-xyz.tmp"
        orphan.parent.mkdir(parents=True)
        orphan.write_text("torn")
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(result_root))
        trace_root = tmp_path / "traces"
        assert main(["cache", "stats", "--trace-dir", str(trace_root),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tmp_removed"] == doc["results"]["tmp_removed"] == 1
        assert not orphan.exists()

    def test_cli_cache_stats_keeps_foreign_tmp(self, tmp_path, capsys,
                                               monkeypatch):
        """A ``.tmp`` file no store wrote survives ``repro cache stats``
        and ``clear`` on its directory."""
        from repro.cli import main

        monkeypatch.delenv("REPRO_TRACE_STORE_DIR", raising=False)
        draft = tmp_path / "important" / "draft.tmp"
        draft.parent.mkdir()
        draft.write_text("mine", encoding="utf-8")
        for action in ("stats", "clear"):
            assert main(["cache", action, "--cache-dir",
                         str(tmp_path)]) == 0
            assert draft.read_text(encoding="utf-8") == "mine"
        capsys.readouterr()


class TestAtomicSessionSave:
    def test_save_leaves_no_tmp_residue(self, tmp_path):
        spec = fast_spec()
        session = Session(spec)
        session.advance(session.total_ns / 4)
        path = session.save(tmp_path / "snap.json")
        assert path.is_file()
        assert list(tmp_path.glob("*.tmp")) == []
        assert Session.load(path).result().to_dict() == \
            Session(spec).result().to_dict()

    def test_failed_save_preserves_previous_snapshot(
        self, tmp_path, monkeypatch
    ):
        import os as os_mod

        spec = fast_spec()
        session = Session(spec)
        target = tmp_path / "snap.json"
        session.save(target)
        before = target.read_text(encoding="utf-8")

        def broken_replace(src, dst):
            raise OSError("no rename for you")

        monkeypatch.setattr(os_mod, "replace", broken_replace)
        with pytest.raises(OSError):
            session.save(target)
        monkeypatch.undo()
        assert target.read_text(encoding="utf-8") == before
        assert list(tmp_path.glob("*.tmp")) == []


class TestPublish:
    def test_failed_write_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "entry.json"
        publish(target, lambda handle: handle.write(b"old"))

        def torn(handle):
            handle.write(b"half")
            raise OSError("disk full")

        with pytest.raises(OSError):
            publish(target, torn)
        assert target.read_bytes() == b"old"
        assert list(tmp_path.glob("*.tmp")) == []


#: A partition name older code could have written.
STALE = "v0-0123456789abcdef"


class TestResultStoreStatsAndClear:
    def test_stats_split_active_stale_and_snapshots(self, tmp_path,
                                                    one_result):
        spec = fast_spec()
        cache = ResultCache(tmp_path)
        cache.put(spec, one_result)
        cache.put_snapshot(spec, "serve", {"core": {}})
        stale = tmp_path / STALE
        stale.mkdir()
        (stale / "old.json").write_text("{}", encoding="utf-8")
        (tmp_path / "notes").mkdir()  # not a partition: not counted
        stats = cache.stats()
        assert stats["root"] == str(tmp_path)
        assert stats["entries"] == 1 and stats["snapshots"] == 1
        assert stats["partitions"] == 2 and stats["stale_partitions"] == 1
        assert stats["bytes"] == sum(
            path.stat().st_size
            for partition in (cache.root, stale)
            for path in partition.iterdir()
        )

    def test_empty_or_missing_store(self, tmp_path):
        stats = ResultCache(tmp_path / "nope").stats()
        assert stats["entries"] == stats["snapshots"] == 0
        assert stats["partitions"] == stats["bytes"] == 0
        assert ResultCache(tmp_path / "nope").clear() == 0

    def test_clear_leaves_traces_journal_and_other_files(self, tmp_path,
                                                         one_result):
        spec = fast_spec()
        cache = ResultCache(tmp_path)
        cache.put(spec, one_result)
        (tmp_path / STALE).mkdir()
        traces = TraceStore(tmp_path / "traces")
        traces.root.mkdir(parents=True)
        (traces.root / "k-i0.meta.json").write_text("{}", encoding="utf-8")
        journal = Journal(tmp_path / JOURNAL_DIR, fsync=False)
        journal.record_submit("j00001-abababab", "run", "ab" * 32, 1,
                              {"spec": {}})
        journal.close()
        mine = tmp_path / "important" / "notes.txt"
        mine.parent.mkdir()
        mine.write_text("mine", encoding="utf-8")
        assert cache.clear() == 1
        assert cache.stats()["partitions"] == 0
        assert ResultCache(tmp_path).get(spec) is None
        assert traces.stats()["entries"] == 1
        assert journal.stats()["entries"] == 1
        assert mine.read_text(encoding="utf-8") == "mine"
