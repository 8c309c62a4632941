"""The durable job journal: framing, torn tails, idempotent replay.

The journal's one job is to survive arbitrary process death: every
accepted submission and state transition is a CRC-framed, fsync'd
record, and replay must (a) be idempotent — replaying twice, or
replaying a journal concatenated with itself, yields the identical job
table — and (b) degrade to the last good frame when the tail is torn,
truncated, or corrupted, never to an error or a wrong table.
"""

import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.journal import (
    TERMINAL,
    Journal,
    JournaledJob,
    replay_records,
)
from repro.testing.faults import reset_faults


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    reset_faults()
    yield
    reset_faults()


def make_journal(tmp_path, **kwargs):
    return Journal(tmp_path / "journal", **kwargs)


def submit(journal, job_id, kind="run", n=1):
    return journal.record_submit(job_id, kind, "ab" * 32, n,
                                 {"spec": {"seed": 1}})


def new_segment(journal, index):
    """Append to segment ``index`` from now on: the segments a crash
    between compaction's rename and its deletes leaves behind."""
    journal.close()
    journal._open_segment(index)


class TestFraming:
    def test_records_round_trip(self, tmp_path):
        journal = make_journal(tmp_path)
        assert submit(journal, "j00001-abababab")
        assert journal.record_state("j00001-abababab", "running")
        journal.close()
        records = journal.records()
        assert [r["rec"] for r in records] == ["submit", "state"]
        assert records[0]["doc"] == {"spec": {"seed": 1}}
        assert records[1]["status"] == "running"

    def test_appends_survive_reopen(self, tmp_path):
        journal = make_journal(tmp_path)
        submit(journal, "j00001-abababab")
        journal.close()
        # A fresh instance (the restarted process) appends to the same
        # segment and sees the whole history.
        reopened = make_journal(tmp_path)
        reopened.record_state("j00001-abababab", "done")
        reopened.close()
        assert [r["rec"] for r in reopened.records()] == ["submit", "state"]

    def test_appends_stay_in_one_segment(self, tmp_path):
        """Nothing rotates a segment, however large it grows; start-up
        compaction is what bounds the journal."""
        journal = make_journal(tmp_path, fsync=False)
        doc = {"spec": {"pad": "x" * (1 << 20)}}
        for i in range(3):
            journal.record_submit(f"j{i + 1:05d}-abababab", "run",
                                  "ab" * 32, 1, doc)
        journal.close()
        assert len(journal.segments()) == 1
        assert journal.segments()[0].stat().st_size > 3 << 20
        assert len(journal.records()) == 3

    def test_torn_tail_degrades_to_last_good_frame(self, tmp_path):
        journal = make_journal(tmp_path)
        submit(journal, "j00001-abababab")
        journal.record_state("j00001-abababab", "running")
        journal.close()
        segment = journal.segments()[0]
        # Simulate a crash mid-append: half a frame of garbage at EOF.
        with open(segment, "ab") as handle:
            handle.write(struct.pack("<II", 4096, 0) + b"\xde\xad")
        assert [r["rec"] for r in journal.records()] == ["submit", "state"]

    def test_truncated_tail_degrades_to_last_good_frame(self, tmp_path):
        journal = make_journal(tmp_path)
        submit(journal, "j00001-abababab")
        journal.record_state("j00001-abababab", "running")
        journal.close()
        segment = journal.segments()[0]
        data = segment.read_bytes()
        segment.write_bytes(data[:-7])  # tear the final frame
        records = journal.records()
        assert [r["rec"] for r in records] == ["submit"]

    def test_crc_mismatch_ends_the_segment(self, tmp_path):
        journal = make_journal(tmp_path)
        submit(journal, "j00001-abababab")
        journal.record_state("j00001-abababab", "done")
        journal.close()
        segment = journal.segments()[0]
        data = bytearray(segment.read_bytes())
        data[-3] ^= 0xFF  # flip a payload byte of the last frame
        segment.write_bytes(bytes(data))
        assert [r["rec"] for r in journal.records()] == ["submit"]

    def test_unreadable_header_skips_the_segment(self, tmp_path):
        journal = make_journal(tmp_path)
        submit(journal, "j00001-abababab")
        journal.close()
        journal.segments()[0].write_bytes(b"not a journal segment")
        assert journal.records() == []
        assert journal.replay() == {}


class TestReplay:
    def records(self):
        return [
            {"rec": "submit", "job": "j1", "kind": "run", "hash": "aa",
             "cells": 1, "doc": {"spec": {}}, "unix": 1.0},
            {"rec": "state", "job": "j1", "status": "running",
             "unix": 2.0},
            {"rec": "submit", "job": "j2", "kind": "plan", "hash": "bb",
             "cells": 3, "doc": {"plan": {}}, "unix": 3.0},
            {"rec": "state", "job": "j1", "status": "done", "unix": 4.0},
        ]

    def table(self, jobs):
        return {
            job_id: (j.kind, j.status, j.error, j.n_cells)
            for job_id, j in jobs.items()
        }

    def test_fold(self):
        jobs = replay_records(self.records())
        assert self.table(jobs) == {
            "j1": ("run", "done", None, 1),
            "j2": ("plan", "queued", None, 3),
        }

    def test_replay_twice_is_identical(self):
        once = replay_records(self.records())
        twice = replay_records(self.records() + self.records())
        assert self.table(once) == self.table(twice)
        assert list(once) == list(twice)  # submission order preserved

    def test_terminal_states_absorb_later_transitions(self):
        records = self.records() + [
            {"rec": "state", "job": "j1", "status": "running", "unix": 9.0},
            {"rec": "state", "job": "j1", "status": "failed",
             "error": "late", "unix": 10.0},
        ]
        jobs = replay_records(records)
        assert jobs["j1"].status == "done"
        assert jobs["j1"].error is None

    def test_requeue_transition_is_replayed(self):
        records = self.records()[:2] + [
            {"rec": "state", "job": "j1", "status": "queued", "unix": 5.0},
        ]
        assert replay_records(records)["j1"].status == "queued"

    def test_state_for_unknown_job_is_dropped(self):
        jobs = replay_records(
            [{"rec": "state", "job": "ghost", "status": "done", "unix": 1}]
        )
        assert jobs == {}

    def test_duplicate_submit_keeps_the_first(self):
        records = self.records() + [
            {"rec": "submit", "job": "j1", "kind": "plan", "hash": "zz",
             "cells": 9, "doc": {"plan": {}}, "unix": 99.0},
        ]
        jobs = replay_records(records)
        assert jobs["j1"].kind == "run" and jobs["j1"].n_cells == 1


JOB_IDS = [f"j{i:05d}-abababab" for i in (1, 2, 3)]

#: a job no drawn record submits: its state records are always dropped
GHOST = "j00099-abababab"


@st.composite
def journals(draw):
    """Record lists a server can write: submits and terminal states, a
    job's states after its first submit (extra submits and terminal
    records included, which replay must absorb)."""
    records, submitted = [], []
    for unix in range(draw(st.integers(0, 10))):
        if draw(st.booleans()):
            job = draw(st.sampled_from(JOB_IDS))
            if job not in submitted:
                submitted.append(job)
            records.append({
                "rec": "submit", "job": job,
                "kind": draw(st.sampled_from(["run", "plan"])),
                "hash": "ab" * 32, "cells": draw(st.integers(1, 4)),
                "doc": {"spec": {"seed": draw(st.integers(0, 9))}},
                "unix": float(unix),
            })
            continue
        record = {"rec": "state",
                  "job": draw(st.sampled_from(submitted + [GHOST])),
                  "status": draw(st.sampled_from(TERMINAL)),
                  "unix": float(unix)}
        if draw(st.booleans()):
            record["error"] = draw(st.sampled_from(["boom", "CellTimeout: x"]))
        if draw(st.booleans()):
            record["cached"] = True
        records.append(record)
    return records


def frame_ends(data):
    """The end offset of each frame in an uncut segment (header first),
    read from the length fields alone."""
    ends, offset = [], 0
    while offset < len(data):
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 8 + length
        ends.append(offset)
    return ends


class TestReplayProperties:
    @settings(max_examples=80, deadline=None)
    @given(records=journals(), split=st.integers(0, 10),
           cut=st.integers(0, 1 << 12))
    def test_a_cut_tail_replays_the_records_wholly_before_it(
        self, records, split, cut
    ):
        """The records from ``split`` on go to a second segment; the
        cut tears the last one."""
        with tempfile.TemporaryDirectory() as root:
            journal = Journal(Path(root) / "journal", fsync=False)
            for i, record in enumerate(records):
                if i == split:
                    new_segment(journal, 2)
                assert journal.append(record)
            journal.close()
            kept = records
            segments = journal.segments()
            if segments:
                data = segments[-1].read_bytes()
                cut %= len(data) + 1
                segments[-1].write_bytes(data[:cut])
                header_end, *record_ends = frame_ends(data)
                earlier = len(records) - len(record_ends)
                whole = 0 if cut < header_end else \
                    sum(end <= cut for end in record_ends)
                kept = records[:earlier + whole]
            replayed = journal.replay()
        assert list(replayed.items()) == list(replay_records(kept).items())

    @settings(max_examples=80, deadline=None)
    @given(records=journals())
    def test_replaying_twice_equals_replaying_once(self, records):
        once = replay_records(records)
        twice = replay_records(records + records)
        assert list(twice.items()) == list(once.items())


class TestCompaction:
    def test_compact_folds_to_one_segment(self, tmp_path):
        journal = make_journal(tmp_path)
        for i in range(6):
            job = f"j{i + 1:05d}-abababab"
            new_segment(journal, i + 1)
            submit(journal, job)
            journal.record_state(job, "done")
        assert len(journal.segments()) == 6
        survivors = [
            JournaledJob(id="j00006-abababab", kind="run",
                         content_hash="ab" * 32, n_cells=1,
                         doc={"spec": {"seed": 1}}, submitted_unix=1.0,
                         status="queued"),
        ]
        journal.compact(survivors)
        assert len(journal.segments()) == 1
        jobs = journal.replay()
        assert list(jobs) == ["j00006-abababab"]
        assert jobs["j00006-abababab"].status == "queued"
        # Post-compaction appends land in the compacted segment.
        journal.record_state("j00006-abababab", "done")
        journal.close()
        assert len(journal.segments()) == 1
        assert journal.replay()["j00006-abababab"].status == "done"

    def test_stats_counts(self, tmp_path):
        journal = make_journal(tmp_path)
        submit(journal, "j00001-abababab")
        journal.record_state("j00001-abababab", "done")
        submit(journal, "j00002-abababab")
        journal.close()
        stats = journal.stats()
        assert stats["root"] == str(tmp_path / "journal")
        assert stats["segments"] == 1
        assert stats["entries"] == 3
        assert stats["live_jobs"] == 1 and stats["finished_jobs"] == 1
        assert stats["bytes"] > 0
        assert stats["writes"] == 3 and stats["write_errors"] == 0

    def test_clear_deletes_only_segments(self, tmp_path):
        journal = make_journal(tmp_path)
        submit(journal, "j00001-abababab")
        new_segment(journal, 2)
        submit(journal, "j00002-abababab")
        keep = tmp_path / "journal" / "notes.txt"
        keep.write_text("mine", encoding="utf-8")
        assert journal.clear() == 2
        assert journal.segments() == [] and journal.replay() == {}
        assert keep.read_text(encoding="utf-8") == "mine"
        # The cleared journal starts over on the next append.
        submit(journal, "j00003-abababab")
        journal.close()
        assert list(journal.replay()) == ["j00003-abababab"]


class TestFaultSites:
    def test_write_raise_is_counted_not_fatal(self, tmp_path, monkeypatch):
        journal = make_journal(tmp_path)
        monkeypatch.setenv("REPRO_FAULTS", "server.journal.write:raise")
        reset_faults()
        assert journal.append({"rec": "state", "job": "j1",
                               "status": "done", "unix": 1.0}) is False
        assert journal.write_errors == 1
        # One-shot: the next append lands.
        assert submit(journal, "j00001-abababab")
        journal.close()
        assert len(journal.records()) == 1

    def test_write_corrupt_tears_the_tail(self, tmp_path, monkeypatch):
        journal = make_journal(tmp_path)
        submit(journal, "j00001-abababab")
        monkeypatch.setenv("REPRO_FAULTS", "server.journal.write:corrupt")
        reset_faults()
        journal.record_state("j00001-abababab", "done")  # garbled frame
        monkeypatch.delenv("REPRO_FAULTS")
        reset_faults()
        journal.record_state("j00001-abababab", "running")  # after tear
        journal.close()
        # Replay stops at the garbled frame: the job is still queued.
        jobs = journal.replay()
        assert jobs["j00001-abababab"].status == "queued"

    def test_read_corrupt_degrades_to_prefix(self, tmp_path, monkeypatch):
        journal = make_journal(tmp_path)
        for i in range(6):
            submit(journal, f"j{i + 1:05d}-abababab")
        journal.close()
        monkeypatch.setenv("REPRO_FAULTS", "server.journal.read:corrupt")
        reset_faults()
        torn = journal.replay()
        # Truncation at half the segment loses the tail but the
        # surviving prefix replays cleanly (one-shot: only once).
        assert 0 < len(torn) < 6
        reset_faults()
        monkeypatch.delenv("REPRO_FAULTS")
        assert len(journal.replay()) == 6
