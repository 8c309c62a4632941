"""Removal gates for deleted surfaces.

The pre-spec keyword shims lived for one release behind
``DeprecationWarning`` and were then removed; the request-level trace
replay stack and the ``repro.sim.runner`` keyword facade were deleted
outright, leaving an ``ExperimentSpec`` as the only simulator input;
the merged-stream batched driver went too, leaving the per-bank
``advance_batched_streams`` as the one batched driver; and
``TraceDrivenSimulator`` went, leaving a ``Session`` (a ``SessionCore``
built from its spec) as the one object per run.  This module
pins the *removal guarantees*: every former shim raises
(``TypeError`` / ``AttributeError``) instead of silently doing
something, deleted modules and names stay gone, and the canonical spec
and session paths stay free of deprecation warnings.
"""

import importlib
import inspect
import warnings

import pytest

import repro
from repro.core.base import RefreshCommand
from repro.dram.config import DUAL_CORE_2CH
from repro.api import Session
from repro.experiments import ExperimentSpec, Plan, SchemeSpec, run_plan, run_spec
from repro.sim import simulator

FAST = dict(scale=128.0, n_banks=1, n_intervals=1)


def fast_spec(**overrides):
    fields = dict(scheme=SchemeSpec("drcat"), workload="libq", **FAST)
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestSimulatorCtorRemoved:
    """A run is built from a spec; the pre-spec forms raise."""

    def test_config_positional_raises(self):
        with pytest.raises(TypeError, match="ExperimentSpec"):
            Session(DUAL_CORE_2CH)

    def test_legacy_ctor_raises(self):
        with pytest.raises(TypeError):
            Session(DUAL_CORE_2CH, "sca")

    def test_legacy_kwargs_raise(self):
        with pytest.raises(TypeError):
            Session(
                DUAL_CORE_2CH, "sca", scale=128.0,
                n_banks_simulated=1, n_intervals=1,
            )

    def test_spec_ctor_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Session(fast_spec())


class TestSchemeKwargSoupRemoved:
    def test_spec_path_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_spec(fast_spec())
            run_plan(Plan.grid(fast_spec(), workload=["libq"]))


#: The request-level replay stack (CPU front end, controller, address
#: decode, refresh accountant), the keyword facade over run_spec, the
#: helpers of the Python batch paths the compiled kernel replaced, and
#: the shared-work registry the job table absorbed.
DELETED_MODULES = (
    "repro.cpu",
    "repro.sim.runner",
    "repro.sim.replay",
    "repro.dram.controller",
    "repro.dram.address",
    "repro.dram.refresh",
    "repro.core.batch",
    "repro.experiments.shared",
)


class TestSecondSimulatorRemoved:
    @pytest.mark.parametrize("module", DELETED_MODULES)
    def test_module_unimportable(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_facade_not_exported(self):
        assert not hasattr(repro, "simulate_workload")
        assert not hasattr(repro, "sweep")

    def test_simulator_does_not_run(self):
        """Every run is a Session; the simulator module only holds
        functions of the spec."""
        for name in simulator.__all__:
            assert inspect.isfunction(getattr(simulator, name)), name

    def test_spec_is_the_only_input(self):
        params = inspect.signature(simulator.stream_plan).parameters
        assert list(params) == ["spec"]

    def test_one_object_per_run(self):
        """A Session is its session core: no wrapped core, no simulator
        object, and the core's own ``advance`` drives every run."""
        from repro.sim.session import SessionCore

        session = Session(fast_spec())
        assert isinstance(session, SessionCore)
        assert not hasattr(session, "_core")
        assert not hasattr(session, "sim")
        for name in ("advance", "step", "run", "position_ns", "epoch_ns",
                     "total_ns", "done", "accesses_served"):
            assert name not in vars(Session), name


#: The merged-stream batched driver and two helpers nothing called, the
#: headroom-bisection tree loop, and the counter cache's batch path and
#: the bank's drain closed form, all replaced by the compiled kernel;
#: the simulator object a session core absorbed, with the core's own
#: restore constructor and injection entry (a Session injects and
#: restores); the parameter leniency that object's legacy attributes
#: served; and the tree-wide ``.tmp`` sweep each store replaced with
#: its own.  A name in a module of DELETED_MODULES is gone with its
#: module.
DELETED_NAMES = (
    ("repro.core.batch", "find_first_event"),
    ("repro.sim.engine", "run_batched"),
    ("repro.sim.engine", "run_batched_streams"),
    ("repro.sim", "run_batched"),
    ("repro.dram.memory_system", "MemorySystem.access_batch"),
    ("repro.core.counter_tree", "CounterTree.hottest_saturated_counter"),
    ("repro.core.batch", "counter_scheme_access_batch"),
    ("repro.core.batch", "BATCH_WINDOW"),
    ("repro.core.counter_tree", "CounterTree._headroom"),
    ("repro.core.counter_tree", "CounterTree._doomed_harvests"),
    ("repro.core.batch", "threshold_crossings"),
    ("repro.dram.bank", "_drain_run"),
    ("repro.dram.bank", "DRAIN_VECTOR_MIN_BACKLOG"),
    ("repro.core.counter_cache", "CounterCacheScheme._replay_lru"),
    ("repro.core.counter_cache", "_slots"),
    ("repro.sim.simulator", "TraceDrivenSimulator"),
    ("repro.sim", "TraceDrivenSimulator"),
    ("repro.sim.session", "SessionCore.from_state"),
    ("repro.sim.session", "SessionCore.inject"),
    ("repro.core.registry", "LEGACY_KWARGS"),
    ("repro.experiments.cache", "sweep_orphan_tmp"),
)


#: The per-scheme copies of the banks' counts, the memory system's merge
#: of them, and the second name of the counter cache's SCA equivalent.
DELETED_COUNT_NAMES = (
    ("repro.core", "SchemeStats"),
    ("repro.core.base", "SchemeStats"),
    ("repro.dram.memory_system", "MemorySystem.scheme_stats"),
    ("repro.energy.cmrpo", "COUNTER_CACHE_EQUIVALENT_M"),
)


#: The environment plumbing a RunContext replaced (run settings travel
#: as a value, the fault round is a scope), and the lock fallbacks that
#: POSIX-only locking dropped.
DELETED_ENV_NAMES = (
    ("repro.report.verify", "_scoped_env"),
    ("repro.experiments.run", "_POOL_ENV_KEYS"),
    ("repro.experiments.run", "_pool_env"),
    ("repro.experiments.run", "session_mode"),
    ("repro.testing.faults", "ROUND_VAR"),
    ("repro.testing.faults", "faults_armed"),
    ("repro.testing.faults", "faults_summary"),
    ("repro.sim.tracestore", "default_root"),
    ("repro.sim.tracestore", "store_enabled"),
    ("repro.locking", "stale_lock_s"),
    ("repro.locking", "STALE_LOCK_S"),
    ("repro.locking", "STALE_ENV_VAR"),
    ("repro.locking", "lock_backend"),
)


#: The stall supervisor and what guarded against a second driver of one
#: job: a served job has one driver, which bounds its own worker.
DELETED_SUPERVISION_NAMES = (
    ("repro.experiments", "SharedWorkRegistry"),
    ("repro.server.app", "ReproServer.supervise_once"),
    ("repro.server.app", "ReproServer._supervise_forever"),
    ("repro.server.app", "ReproServer._spawn"),
    ("repro.server.jobs", "JobTable.touch"),
    ("repro.server.jobs", "JobTable.stalled"),
    ("repro.server.jobs", "Job.generation"),
    ("repro.server.jobs", "Job.heartbeat_s"),
)


#: What each store now owns: the CLI's walks of their directories, the
#: hand-rolled atomic writes one publish helper replaced, and journal
#: segment rotation and GC (start-up compaction bounds the journal).
DELETED_STORE_NAMES = (
    ("repro.cli", "_result_store_stats"),
    ("repro.cli", "_trace_store_stats"),
    ("repro.cli", "_journal_stats"),
    ("repro.sim.tracestore", "TraceStore._write_npy"),
    ("repro.sim.tracestore", "TraceStore._write_text"),
    ("repro.server.journal", "DEFAULT_SEGMENT_BYTES"),
    ("repro.server.journal", "JournalStats"),
    ("repro.server.journal", "Journal.gc"),
)


class TestDeadBatchedDriversRemoved:
    @pytest.mark.parametrize(("module", "name"),
                             DELETED_NAMES + DELETED_ENV_NAMES
                             + DELETED_SUPERVISION_NAMES
                             + DELETED_STORE_NAMES + DELETED_COUNT_NAMES)
    def test_name_removed(self, module, name):
        if module in DELETED_MODULES:
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
            return
        owner, _, attr = name.rpartition(".")
        target = importlib.import_module(module)
        if owner:
            target = getattr(target, owner)
        assert not hasattr(target, attr)

    def test_journal_does_not_rotate(self, tmp_path):
        from repro.server.journal import Journal

        params = inspect.signature(Journal).parameters
        assert "max_segment_bytes" not in params
        assert not hasattr(Journal(tmp_path), "max_segment_bytes")

    def test_counter_cache_inherits_the_per_access_batch(self):
        """The counter cache defines no batch path of its own; the
        compiled kernel serves it, else the per-access default."""
        from repro.core.base import MitigationScheme
        from repro.core.counter_cache import CounterCacheScheme

        assert "access_batch" not in vars(CounterCacheScheme)
        assert CounterCacheScheme.access_batch is MitigationScheme.access_batch


class TestCountsHaveOneOwner:
    """The banks own a run's counts: schemes keep no statistics, the
    memory system keeps no completion tally, and it builds only the
    banks a run simulates, each with its scheme."""

    @staticmethod
    def _memory(**kwargs):
        from repro.core import make_scheme
        from repro.dram.memory_system import MemorySystem

        return MemorySystem(DUAL_CORE_2CH, lambda n: make_scheme("sca", n, 128), **kwargs)

    def test_no_completion_tally(self):
        memory = self._memory(n_banks=1)
        memory.access(0.0, 0, 5)
        assert not hasattr(memory, "last_completion_ns")
        assert "last_completion_ns" not in memory.to_state()

    def test_active_banks_keyword_removed(self):
        with pytest.raises(TypeError, match="active_banks"):
            self._memory(n_banks=1, active_banks=1)

    def test_unprotected_mode_removed(self):
        from repro.dram.memory_system import MemorySystem

        with pytest.raises(TypeError, match="not callable"):
            MemorySystem(DUAL_CORE_2CH, None, n_banks=1)

    def test_schemes_carry_no_statistics(self):
        from repro.core import make_scheme
        from repro.core.registry import scheme_names

        for kind in scheme_names():
            scheme = make_scheme(kind, 1024, 128)
            assert not hasattr(scheme, "stats"), kind
            assert "stats" not in scheme.to_state(), kind

    def test_session_builds_only_simulated_banks(self):
        memory = Session(fast_spec()).memory
        assert len(memory.banks) == len(memory.schemes) == FAST["n_banks"]


class TestRefreshCommandSpan:
    def test_span(self):
        assert RefreshCommand(3, 12).span == 10

    def test_n_rows_alias_removed(self):
        with pytest.raises(AttributeError):
            RefreshCommand(3, 12).n_rows

    def test_span_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            RefreshCommand(0, 0).span


class TestSessionSurfaceIsCanonical:
    """The new public surface stays warning-free from day one."""

    def test_session_paths_are_silent(self):
        import json

        from repro.api import Session, open_session

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = open_session(fast_spec())
            session.step(100)
            doc = json.loads(json.dumps(session.snapshot()))
            Session.restore(doc).result()
