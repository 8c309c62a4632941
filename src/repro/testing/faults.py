"""Deterministic fault injection for the sweep fault-tolerance layer.

The robustness claims of :func:`repro.experiments.run.run_plan` —
per-cell isolation, bounded retries, pool recovery, crash-safe resume —
are only claims until something actually fails.  This module plants
named *injection sites* on the hot failure surfaces and arms them from
the environment, so CI can make every failure mode happen on demand,
reproducibly, and then assert the sweep still converges to bit-identical
golden results.

Arming
------
``REPRO_FAULTS`` holds a comma-separated list of ``site:kind[:seed]``
triples::

    REPRO_FAULTS="tracestore.write:raise:3,pool.worker:kill-worker" \
        repro sweep --workers 2 --keep-going ...

Sites (where the fault fires):

========================  ====================================================
``tracestore.read``       :meth:`TraceStore.get <repro.sim.tracestore.TraceStore.get>`
``tracestore.write``      :meth:`TraceStore.put <repro.sim.tracestore.TraceStore.put>`
``cache.put``             :meth:`ResultCache.put <repro.experiments.cache.ResultCache.put>`
``pool.worker``           worker-side, per cell, inside a sweep chunk
``session.advance``       :meth:`SessionCore.advance <repro.sim.session.SessionCore.advance>`
``server.journal.write``  :meth:`Journal.append <repro.server.journal.Journal.append>`
``server.journal.read``   journal segment bytes on replay (``corrupt``:
                          torn-tail recovery must degrade to the last
                          good frame)
``server.driver``         top of a ``repro serve`` job-driver execution
                          (``raise`` exercises retryable requeue)
``server.checkpoint``     :meth:`ResultCache.put_snapshot
                          <repro.experiments.cache.ResultCache.put_snapshot>`
                          (a failed/corrupt checkpoint must degrade to
                          a longer recompute, never a wrong result)
========================  ====================================================

Kinds (what happens):

* ``raise`` — raise :class:`~repro.errors.InjectedFault` (a
  :class:`~repro.errors.RetryableError`);
* ``corrupt`` — mangle the bytes flowing through the site (truncate at
  half plus seeded byte noise), exercising the torn-write/torn-read
  detection paths;
* ``delay`` — sleep ``0.01 * (1 + seed % 5)`` seconds (drives timeout
  paths when a cell budget is set);
* ``kill-worker`` — ``os._exit(86)``, the closest stand-in for an OOM
  kill of the process that reaches the site.  Meaningful where that is
  a worker of the :class:`~repro.experiments.SweepPool`:
  ``pool.worker`` (a worker running a chunk of plan cells) and
  ``session.advance`` (a worker running plan cells or a ``repro
  serve`` run job); anywhere else it kills the caller.

Determinism
-----------
Each armed fault fires **exactly once per process**, on the first call
that reaches its site, and only while the scheduler is on retry round
zero (``REPRO_FAULTS_ROUND``, set by ``run_plan`` and threaded through
worker chunk environments, and set to the job's requeue count by the
worker of each served-run attempt) — so recovery attempts run clean
and every injected failure is transient by construction.  A worker
forked to replace a killed one has not fired yet, so it fires again on
its first round-zero cell.  The seed feeds the corruption noise and
delay length, keeping runs byte-reproducible.

The sites themselves cost one dict lookup when ``REPRO_FAULTS`` is
unset; production runs never pay for the harness.
"""

from __future__ import annotations

import os
import time

from repro.errors import InjectedFault

FAULT_SITES = (
    "tracestore.read",
    "tracestore.write",
    "cache.put",
    "pool.worker",
    "session.advance",
    "server.journal.write",
    "server.journal.read",
    "server.driver",
    "server.checkpoint",
)

FAULT_KINDS = ("raise", "corrupt", "delay", "kill-worker")

ENV_VAR = "REPRO_FAULTS"
ROUND_VAR = "REPRO_FAULTS_ROUND"

#: Exit code an injected worker kill dies with (distinguishable from
#: genuine crashes in CI logs).
KILL_EXIT_CODE = 86


class FaultConfigError(ValueError):
    """``REPRO_FAULTS`` holds an unusable value."""


class FaultSpec:
    """One armed fault: a (site, kind, seed) triple."""

    __slots__ = ("site", "kind", "seed")

    def __init__(self, site: str, kind: str, seed: int = 0) -> None:
        if site not in FAULT_SITES:
            raise FaultConfigError(
                f"unknown fault site {site!r}: expected one of "
                f"{', '.join(FAULT_SITES)}"
            )
        if kind not in FAULT_KINDS:
            raise FaultConfigError(
                f"unknown fault kind {kind!r}: expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        self.site = site
        self.kind = kind
        self.seed = seed

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.site, self.kind, self.seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSpec({self.site}:{self.kind}:{self.seed})"


def parse_faults(raw: str) -> tuple[FaultSpec, ...]:
    """Parse a ``REPRO_FAULTS`` value; empty string means disarmed."""
    specs: list[FaultSpec] = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) not in (2, 3):
            raise FaultConfigError(
                f"malformed fault {part!r}: expected site:kind[:seed]"
            )
        seed = 0
        if len(pieces) == 3:
            try:
                seed = int(pieces[2])
            except ValueError:
                raise FaultConfigError(
                    f"malformed fault seed {pieces[2]!r} in {part!r}: "
                    "expected an integer"
                ) from None
        specs.append(FaultSpec(pieces[0], pieces[1], seed))
    return tuple(specs)


#: Per-process harness state: the raw env string last parsed, the armed
#: specs, and which of them already fired (faults are one-shot).
_state: dict = {"raw": None, "specs": (), "fired": set()}


def _armed() -> tuple[FaultSpec, ...]:
    raw = os.environ.get(ENV_VAR, "")
    if raw != _state["raw"]:
        _state["raw"] = raw
        _state["specs"] = parse_faults(raw)
        _state["fired"] = set()
    return _state["specs"]


def reset_faults() -> None:
    """Forget fired-fault state (tests re-arm within one process)."""
    _state["raw"] = None
    _state["specs"] = ()
    _state["fired"] = set()


def faults_armed() -> bool:
    """Whether any fault is currently armed."""
    return bool(os.environ.get(ENV_VAR)) and bool(_armed())


def faults_summary() -> str:
    """The armed-fault description for status headers (``off`` if none)."""
    raw = os.environ.get(ENV_VAR, "").strip()
    return raw if raw else "off"


def _recovery_round() -> bool:
    """True once the scheduler is past round zero (faults hold fire)."""
    raw = os.environ.get(ROUND_VAR, "")
    try:
        return int(raw) > 0 if raw else False
    except ValueError:
        return False


def _take(site: str, kinds: tuple[str, ...]) -> FaultSpec | None:
    """The first matching un-fired fault for ``site``, marked fired."""
    if not os.environ.get(ENV_VAR):
        return None
    specs = _armed()
    if not specs or _recovery_round():
        return None
    for spec in specs:
        if spec.site == site and spec.kind in kinds \
                and spec.key not in _state["fired"]:
            _state["fired"].add(spec.key)
            return spec
    return None


def fault_point(site: str) -> None:
    """Give an armed ``raise``/``delay``/``kill-worker`` fault its shot.

    Call this at the top of an instrumented operation.  No armed fault
    (the overwhelmingly common case) returns immediately.
    """
    spec = _take(site, ("raise", "delay", "kill-worker"))
    if spec is None:
        return
    if spec.kind == "raise":
        raise InjectedFault(f"injected fault at {site} (seed {spec.seed})")
    if spec.kind == "delay":
        time.sleep(0.01 * (1 + spec.seed % 5))
        return
    # kill-worker: die the way an OOM-killed worker dies — no cleanup,
    # no exception, no exit handlers.
    os._exit(KILL_EXIT_CODE)


def corrupting(site: str, data):
    """Pass ``data`` (str or bytes) through an armed ``corrupt`` fault.

    Instrumented writers route their payload through this just before
    persisting (and readers just after loading) so a fired fault
    produces exactly the torn/garbled artifact the robustness paths
    must detect.  Truncating an object document at half length plus
    seeded byte noise is never valid JSON and never a valid ``.npy``,
    so detection is guaranteed rather than probabilistic.
    """
    spec = _take(site, ("corrupt",))
    if spec is None:
        return data
    is_text = isinstance(data, str)
    raw = data.encode("utf-8", errors="replace") if is_text else bytes(data)
    cut = max(1, len(raw) // 2)
    noise = bytes((7 + spec.seed * 31 + i) % 256 for i in range(4))
    mangled = raw[:cut] + noise
    if is_text:
        return mangled.decode("utf-8", errors="replace")
    return mangled


__all__ = [
    "ENV_VAR",
    "ROUND_VAR",
    "KILL_EXIT_CODE",
    "FAULT_SITES",
    "FAULT_KINDS",
    "FaultConfigError",
    "FaultSpec",
    "parse_faults",
    "reset_faults",
    "faults_armed",
    "faults_summary",
    "fault_point",
    "corrupting",
]
