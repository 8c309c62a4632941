"""In-memory span recorder and the layer wrappers of the traced run.

A span is ``(id, name, start, end, parent, info)``: ``parent`` is the id
of the span that was open on the same thread when this one started (-1
at top level) and ``info`` carries a per-call observation such as
whether a scalar replay emitted a refresh.  Spans stay in memory while
the run measures and are written out once it ends.

:func:`install` wraps the public entry points of every measured layer
with span-recording shims and returns a handle whose
:meth:`Tracer.uninstall` restores the originals.  Nothing under
``src/`` is modified: the wrappers replace class attributes and module
globals at run time only.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

_MISSING = object()


class Recorder:
    """Thread-aware span store (append-only while the run measures)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> str | None:
        """Name of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def call(self, name: str, fn, args, kwargs, info_of=None):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else -1
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        info = info_of(result) if info_of is not None else None
        self.spans.append((span_id, name, start, end, parent, info))
        return result

    def record(self, name: str, start: float, end: float, info=None) -> None:
        """Add a span whose interval was measured by the caller."""
        stack = self._stack()
        parent = stack[-1][0] if stack else -1
        self.spans.append((next(self._ids), name, start, end, parent, info))

    def dump(self, path) -> None:
        """Write every span as one JSON line (id, name, start, end, parent,
        info), start-ordered."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s[2]):
                handle.write(json.dumps(span) + "\n")


def summarize(spans) -> dict:
    """Per-name totals: ``{name: {"calls", "total_s", "self_s", "info"}}``.

    ``total_s`` sums only the outermost span of each name (a span nested
    inside another of the same name is not counted twice); ``self_s``
    is each span's duration minus what its direct children cover;
    ``info`` counts truthy ``info`` fields.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[4] in by_id:
            child_time[span[4]] += span[3] - span[2]
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "info": 0}
    )
    for span in spans:
        span_id, name, start, end, parent, info = span
        entry = out[name]
        entry["self_s"] += (end - start) - child_time.get(span_id, 0.0)
        if info:
            entry["info"] += 1
        ancestor = by_id.get(parent)
        nested = False
        while ancestor is not None:
            if ancestor[1] == name:
                nested = True
                break
            ancestor = by_id.get(ancestor[4])
        if not nested:
            entry["calls"] += 1
            entry["total_s"] += end - start
    return dict(out)


def merge_summaries(*summaries: dict) -> dict:
    """Add several :func:`summarize` results together."""
    out: dict[str, dict] = {}
    for summary in summaries:
        for name, entry in summary.items():
            into = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "info": 0}
            )
            for key in into:
                into[key] += entry[key]
    return out


class _TimedEnter:
    """Context manager proxy that records how long ``__enter__`` took."""

    def __init__(self, recorder: Recorder, name: str, inner) -> None:
        self._recorder = recorder
        self._name = name
        self._inner = inner

    def __enter__(self):
        start = time.perf_counter()
        value = self._inner.__enter__()
        self._recorder.record(self._name, start, time.perf_counter())
        return value

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)


class Tracer:
    """The installed wrappers of one traced run (undo with uninstall)."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def span(self, owner, attr: str, name: str, info_of=None) -> None:
        """Record a span around every call of ``owner.attr``; ``info_of``
        maps the call's result to the span's ``info``."""
        fn = getattr(owner, attr)
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.call(name, fn, args, kwargs, info_of)

        self._set(owner, attr, wrapper)

    def replays(self, owner, batch_name: str, name: str) -> None:
        """Record ``owner.access`` calls made directly inside a
        ``batch_name`` span: those are the batch's scalar replays, and a
        replay is useful (``info``) when it emitted refresh commands."""
        fn = owner.access
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recorder.parent_name() != batch_name:
                return fn(*args, **kwargs)
            return recorder.call(name, fn, args, kwargs, info_of=bool)

        self._set(owner, "access", wrapper)

    def lock_wait(self, module, attr: str, name: str) -> None:
        """Time the acquire of every ``module.attr(...)`` context."""
        fn = getattr(module, attr)
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedEnter(recorder, name, fn(*args, **kwargs))

        self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped attribute back as it was."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _hit(result) -> bool:
    """A store lookup hit: it returned something."""
    return result is not None


def install(recorder: Recorder, *, server: bool = False) -> Tracer:
    """Wrap each measured layer's public calls; returns the handle.

    ``server=True`` also wraps the server process's journal appends and
    run checkpoints (the traced ``repro serve`` launcher passes it).
    """
    from repro.core.cat import PRCATScheme
    from repro.core.counter_cache import CounterCacheScheme
    from repro.core.counter_tree import CounterTree
    from repro.core.drcat import DRCATScheme
    from repro.core.pra import PRAScheme
    from repro.core.sca import SCAScheme
    from repro.dram.bank import BankState
    from repro.dram.memory_system import MemorySystem
    from repro.experiments import cache as cache_mod
    from repro.experiments import run as run_mod
    from repro.sim import session as session_mod
    from repro.sim import simulator as simulator_mod
    from repro.sim.tracestore import TraceStore
    from repro.workloads.synthetic import StreamModel

    tracer = Tracer(recorder)
    # core: scheme batches, the replays inside tree-scheme batches, and
    # the counter tree's bulk path.
    tracer.span(DRCATScheme, "access_batch", "core.drcat.batch")
    tracer.replays(DRCATScheme, "core.drcat.batch", "core.drcat.replay")
    tracer.span(PRCATScheme, "access_batch", "core.prcat.batch")
    tracer.replays(PRCATScheme, "core.prcat.batch", "core.prcat.replay")
    tracer.span(SCAScheme, "access_batch", "core.sca.batch")
    tracer.span(PRAScheme, "access_batch", "core.pra.batch")
    tracer.span(CounterCacheScheme, "access_batch", "core.ccache.batch")
    tracer.span(CounterTree, "apply_bulk_counts", "core.tree.bulk")
    tracer.span(CounterTree, "map_rows_to_counters", "core.tree.map")
    # dram: the bank drain closed form and refresh application.
    tracer.span(BankState, "serve_accesses_batch", "dram.drain")
    tracer.span(MemorySystem, "apply_refresh", "dram.refresh")
    # sim.session / sim.engine: the re-entrant loop.
    tracer.span(session_mod.SessionCore, "advance", "engine.advance")
    # workloads: stream generation (one layer name, so nesting dedups).
    tracer.span(StreamModel, "sample", "workloads.gen")
    tracer.span(simulator_mod, "attack_stream", "workloads.gen")
    tracer.span(session_mod, "interarrival_times_ns", "workloads.gen")
    # sim.tracestore
    tracer.span(TraceStore, "get", "tracestore.get", _hit)
    tracer.span(TraceStore, "put", "tracestore.put")
    # experiments (run + cache) and locking
    tracer.span(run_mod, "run_spec", "experiments.cell")
    tracer.span(cache_mod.ResultCache, "get", "experiments.cache_get", _hit)
    tracer.span(cache_mod.ResultCache, "put", "experiments.cache_put")
    tracer.lock_wait(cache_mod, "advisory_lock", "locking.wait")
    if server:
        from repro.server.journal import Journal

        tracer.span(Journal, "append", "server.journal_append")
        tracer.span(cache_mod.ResultCache, "put_snapshot",
                    "server.checkpoint")
    return tracer
