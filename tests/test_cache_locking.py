"""Advisory-lock tests and the multi-process cache publish stress.

The contract under test: concurrent writers — threads or whole
processes — hammering one result store always leave it with complete,
readable entries (one winner per entry, no torn JSON, no leaked temp
files), because every publish is ``mkstemp`` → ``os.replace`` under a
per-store advisory lock.
"""

import concurrent.futures
import contextlib
import fcntl
import json
import os
import threading
import time

import pytest

from repro.experiments import ExperimentSpec, ResultCache, SchemeSpec
from repro.experiments.run import run_spec
from repro.locking import (
    LOCK_SUFFIX,
    LockTimeout,
    advisory_lock,
    lock_stats,
    reset_lock_stats,
)

FAST = dict(scale=128.0, n_banks=1, n_intervals=1)


def fast_spec(**overrides):
    fields = dict(scheme=SchemeSpec("drcat"), workload="libq", **FAST)
    fields.update(overrides)
    return ExperimentSpec(**fields)


@contextlib.contextmanager
def _held_elsewhere(target):
    """flock ``target``'s lock file on a second descriptor: the lock is
    per open file, so this process's own acquires contend with it."""
    fd = os.open(target.parent / (target.name + LOCK_SUFFIX),
                 os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


class TestAdvisoryLock:
    def test_acquire_release_cycle(self, tmp_path):
        target = tmp_path / "store"
        with advisory_lock(target):
            pass
        with advisory_lock(target):  # re-acquirable
            pass

    def test_lock_artifact_lives_beside_target(self, tmp_path):
        target = tmp_path / "store"
        with advisory_lock(target):
            assert (tmp_path / ("store" + LOCK_SUFFIX)).exists()

    def test_mutual_exclusion_across_threads(self, tmp_path):
        target = tmp_path / "store"
        active = []
        overlaps = []

        def worker():
            for _ in range(20):
                with advisory_lock(target):
                    active.append(1)
                    if len(active) > 1:
                        overlaps.append(True)
                    time.sleep(0.0005)
                    active.pop()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not overlaps

    def test_contended_lock_times_out(self, tmp_path):
        target = tmp_path / "store"
        release = threading.Event()
        held = threading.Event()

        def holder():
            with advisory_lock(target):
                held.set()
                release.wait(10)

        t = threading.Thread(target=holder)
        t.start()
        try:
            assert held.wait(5)
            # Contend from a second process: flock conflicts between
            # open files of one process too, but keep the test honest.
            start = time.monotonic()
            with pytest.raises(LockTimeout):
                _flock_in_subprocess(target, timeout=0.3)
            assert time.monotonic() - start < 5
        finally:
            release.set()
            t.join()


def _flock_in_subprocess(target, timeout):
    import subprocess
    import sys

    code = (
        "import sys\n"
        "from repro.locking import advisory_lock, LockTimeout\n"
        "try:\n"
        f"    with advisory_lock({str(target)!r}, timeout={timeout}):\n"
        "        pass\n"
        "except LockTimeout:\n"
        "    sys.exit(42)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ,
                               "PYTHONPATH": _pythonpath()},
                          timeout=30)
    if proc.returncode == 42:
        raise LockTimeout("contended in subprocess")


def _pythonpath():
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    return f"{src}{os.pathsep}{existing}" if existing else src


class TestLockStats:
    @pytest.fixture(autouse=True)
    def _fresh_counters(self):
        reset_lock_stats()
        yield
        reset_lock_stats()

    def test_acquires_are_counted(self, tmp_path):
        with advisory_lock(tmp_path / "store"):
            pass
        stats = lock_stats()
        assert stats["acquires"] == 1
        assert stats["contended"] == 0
        assert stats["timeouts"] == 0

    def test_timeouts_and_contention_are_counted(self, tmp_path):
        target = tmp_path / "store"
        with _held_elsewhere(target):
            with pytest.raises(LockTimeout):
                with advisory_lock(target, timeout=0.2):
                    pass
        stats = lock_stats()
        assert stats["timeouts"] == 1
        assert stats["contended"] == 1
        assert stats["acquires"] == 0

    def test_reset_zeroes_every_counter(self, tmp_path):
        with advisory_lock(tmp_path / "store"):
            pass
        reset_lock_stats()
        assert lock_stats() == {"acquires": 0, "contended": 0, "timeouts": 0}


# -- multi-process publish stress -------------------------------------------

def _hammer(cache_root: str, writer: int, rounds: int) -> int:
    """One stress process: publish the shared and a private entry."""
    cache = ResultCache(cache_root)
    result = run_spec(fast_spec())
    shared = fast_spec(seed=777)
    private = fast_spec(seed=1000 + writer)
    for _ in range(rounds):
        cache.put(shared, result)
        cache.put(private, result)
    return writer


class TestMultiProcessStress:
    def test_eight_writers_one_store(self, tmp_path):
        """8 processes × 12 publishes each into one store: every entry
        must come out complete and readable, with no temp residue."""
        rounds = 12
        with concurrent.futures.ProcessPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(_hammer, str(tmp_path), w, rounds)
                       for w in range(8)]
            done = [f.result(timeout=300) for f in futures]
        assert sorted(done) == list(range(8))

        cache = ResultCache(tmp_path)
        # The contended entry parses and round-trips through get().
        assert cache.get(fast_spec(seed=777)) is not None
        # Every private entry landed too.
        for writer in range(8):
            assert cache.get(fast_spec(seed=1000 + writer)) is not None
        assert cache.hits == 9 and cache.misses == 0
        # Raw files are all complete JSON documents...
        entries = list(cache.root.glob("*.json"))
        assert len(entries) == 9
        for path in entries:
            json.loads(path.read_text(encoding="utf-8"))
        # ...and no mkstemp temp file survived.
        assert not list(cache.root.glob("*.tmp"))
