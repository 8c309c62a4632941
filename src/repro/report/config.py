"""Validated run settings: env knobs, run contexts and named fidelities.

Runs are tuned through ``REPRO_*`` environment variables.  This module
is the single place they are parsed, once per entry point (the CLI,
``ReproServer`` start-up, ``repro verify``, or a library call that is
passed no settings): values are validated eagerly
and a malformed setting fails with a message naming the variable, the
offending value, and what was expected — instead of a ``ValueError:
invalid literal`` five frames deep in a bench.  The parsed settings are
frozen values that travel with the work:

* :class:`RunContext` — how one run executes (session mode, trace
  store, armed fault plan), passed from ``run_plan`` to every cell and
  pool chunk, to ``run_spec`` and :class:`~repro.api.Session`, and to
  a served run's worker;
* :class:`BenchConfig` — the ``REPRO_BENCH_*`` fidelity knobs of a
  figure bench, carrying the :class:`RunContext` its plans run under;
* :func:`store_roots` — where the sweep-cell result cache and the
  activation-trace store live.

A *fidelity* is a named (scale, intervals, banks) point:

* ``ci``    — the default economy knobs every figure bench and the
  checked-in ``benchmarks/golden/ci`` store use;
* ``smoke`` — cheaper still, for the CI ``verify`` job and quick local
  runs (``benchmarks/golden/smoke``);
* ``full``  — closer to paper scale; no golden store is checked in.
"""

from __future__ import annotations

import functools
import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

from repro.testing.faults import parse_faults

#: Engines accepted by the simulator: ``scalar`` is the per-event
#: reference loop, ``batched`` the per-segment compiled kernel; the two are
#: contractually bit-identical.  Defined here, in stdlib-only config, so
#: config parsing does not import the simulation stack;
#: :data:`repro.sim.engine.ENGINES` re-exports it.
ENGINE_NAMES = ("scalar", "batched")

#: How ``run_spec`` drives its session (:attr:`RunContext.session`):
#: straight through, or cut at half horizon by a snapshot, a JSON
#: round-trip and a restore — bit-identical by contract (see
#: :mod:`repro.experiments.run`).
SESSION_MODES = ("direct", "checkpoint")

#: Named fidelity points: the env values ``repro verify`` applies.
FIDELITIES: dict[str, dict[str, str]] = {
    "ci": {
        "REPRO_BENCH_SCALE": "24",
        "REPRO_BENCH_INTERVALS": "2",
        "REPRO_BENCH_BANKS": "1",
    },
    "smoke": {
        "REPRO_BENCH_SCALE": "96",
        "REPRO_BENCH_INTERVALS": "1",
        "REPRO_BENCH_BANKS": "1",
    },
    "full": {
        "REPRO_BENCH_SCALE": "4",
        "REPRO_BENCH_INTERVALS": "2",
        "REPRO_BENCH_BANKS": "2",
    },
}


class EnvConfigError(ValueError):
    """A ``REPRO_BENCH_*`` variable holds an unusable value."""


def _parse(name: str, raw: str, kind, describe: str):
    try:
        return kind(raw)
    except (TypeError, ValueError):
        raise EnvConfigError(
            f"{name}={raw!r} is not a valid value: expected {describe}"
        ) from None


def env_int(env: Mapping[str, str], name: str, default: int,
            minimum: int) -> int:
    """Read an integer knob; fail clearly on garbage or out-of-range."""
    raw = env.get(name)
    if raw is None or raw == "":
        return default
    value = _parse(name, raw, int, f"an integer >= {minimum}")
    if value < minimum:
        raise EnvConfigError(
            f"{name}={raw!r} is out of range: expected an integer "
            f">= {minimum}"
        )
    return value


def env_float(env: Mapping[str, str], name: str, default: float,
              minimum: float) -> float:
    """Read a float knob; fail clearly on garbage or out-of-range."""
    raw = env.get(name)
    if raw is None or raw == "":
        return default
    value = _parse(name, raw, float, f"a number >= {minimum}")
    if not value >= minimum:  # also rejects NaN
        raise EnvConfigError(
            f"{name}={raw!r} is out of range: expected a number "
            f">= {minimum}"
        )
    return value


def env_bool(env: Mapping[str, str], name: str, default: bool) -> bool:
    """Read an on/off knob; fail clearly on unrecognised values."""
    raw = env.get(name)
    if raw is None or raw == "":
        return default
    lowered = raw.strip().lower()
    if lowered in ("1", "on", "true", "yes"):
        return True
    if lowered in ("0", "off", "false", "no"):
        return False
    raise EnvConfigError(
        f"{name}={raw!r} is not a valid value: expected one of "
        "1/on/true/yes or 0/off/false/no"
    )


def env_choice(env: Mapping[str, str], name: str, default: str,
               choices: tuple[str, ...]) -> str:
    """Read an enumerated knob; fail clearly on unknown values."""
    raw = env.get(name)
    if raw is None or raw == "":
        return default
    if raw not in choices:
        raise EnvConfigError(
            f"{name}={raw!r} is not a valid value: expected one of "
            f"{', '.join(choices)}"
        )
    return raw


@functools.cache
def default_benchmarks_dir() -> Path | None:
    """This checkout's ``benchmarks/`` directory (None when installed)."""
    candidate = Path(__file__).resolve().parents[3] / "benchmarks"
    return candidate if candidate.is_dir() else None


def store_roots(cache_dir: str | None = None,
                env: Mapping[str, str] | None = None) -> tuple[Path, Path]:
    """``(sweep-cache root, trace-store root)``.

    The sweep-cell result cache lives at ``cache_dir`` (``--cache-dir``),
    else ``REPRO_BENCH_CACHE_DIR``, else ``benchmarks/results/sweep_cache``
    of this checkout, else (an installed package) a per-user temporary
    directory.  The trace store lives at ``REPRO_TRACE_STORE_DIR``, else
    in ``traces/`` under the cache root, so one CI cache path covers
    both stores.
    """
    if env is None:
        env = os.environ
    chosen = cache_dir or env.get("REPRO_BENCH_CACHE_DIR")
    bench_dir = default_benchmarks_dir()
    if chosen:
        root = Path(chosen)
    elif bench_dir is not None:
        root = bench_dir / "results" / "sweep_cache"
    else:
        # Per-user, not world-shared: another local user could otherwise
        # pre-plant entries or squat the directory.
        root = Path(tempfile.gettempdir()) / f"repro-sweep-cache-{os.getuid()}"
    return root, Path(env.get("REPRO_TRACE_STORE_DIR") or root / "traces")


@dataclass(frozen=True)
class RunContext:
    """The settings a run executes under, as one frozen value.

    ``session`` is how ``run_spec`` drives its session (one of
    :data:`SESSION_MODES`); ``trace_store`` is the activation-trace
    store's directory, or None when the store is off; ``faults`` is the
    armed fault plan, a ``REPRO_FAULTS`` value (``""``: none armed; see
    :mod:`repro.testing.faults`).  A context is passed by value along
    every path a run takes — ``run_plan`` to its cells and pool chunks,
    ``run_spec``, :class:`~repro.api.Session`, a served run's worker —
    so a forked worker never acts on settings it inherited.
    """

    session: str = "direct"
    trace_store: str | None = None
    faults: str = ""

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None,
                 cache_dir: str | None = None) -> "RunContext":
        """Parse ``REPRO_SESSION_MODE``, ``REPRO_TRACE_STORE``,
        ``REPRO_TRACE_STORE_DIR`` and ``REPRO_FAULTS``.

        The trace store is on unless ``REPRO_TRACE_STORE`` turns it
        off, where :func:`store_roots` puts it: under ``cache_dir``
        (the command's ``--cache-dir``) unless ``REPRO_TRACE_STORE_DIR``
        names another place.  A malformed fault plan raises
        :class:`~repro.testing.faults.FaultConfigError` here.
        """
        if env is None:
            env = os.environ
        trace_store = None
        if env_bool(env, "REPRO_TRACE_STORE", default=True):
            trace_store = str(store_roots(cache_dir, env)[1])
        faults = env.get("REPRO_FAULTS", "").strip()
        parse_faults(faults)
        return cls(
            session=env_choice(env, "REPRO_SESSION_MODE", default="direct",
                               choices=SESSION_MODES),
            trace_store=trace_store,
            faults=faults,
        )


@dataclass(frozen=True)
class BenchConfig:
    """One resolved set of bench knobs (hashable: used as a cache key)."""

    scale: float
    n_intervals: int
    n_banks: int
    engine: str
    workers: int
    fidelity: str
    #: the settings every plan of the bench runs under; its session
    #: mode is part of the cache keys, so one process can gate several
    #: paths without cross-talk
    context: RunContext
    #: sweep-cell result cache (see :mod:`repro.experiments.cache`):
    #: enabled by default; ``REPRO_BENCH_CACHE=0`` disables, and
    #: :func:`store_roots` decides the location
    cache: bool
    cache_dir: str

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "BenchConfig":
        """Parse and validate the ``REPRO_BENCH_*`` environment.

        ``REPRO_BENCH_WORKERS=0`` means one worker per CPU; negative or
        non-integer values are rejected with a clear message.
        """
        if env is None:
            env = os.environ
        workers = env_int(env, "REPRO_BENCH_WORKERS", default=1, minimum=0)
        if workers == 0:
            workers = os.cpu_count() or 1
        return cls(
            scale=env_float(env, "REPRO_BENCH_SCALE", default=24.0,
                            minimum=1.0),
            n_intervals=env_int(env, "REPRO_BENCH_INTERVALS", default=2,
                                minimum=1),
            n_banks=env_int(env, "REPRO_BENCH_BANKS", default=1, minimum=1),
            engine=env_choice(env, "REPRO_BENCH_ENGINE", default="batched",
                              choices=ENGINE_NAMES),
            workers=workers,
            fidelity="custom",
            context=RunContext.from_env(env),
            cache=env_bool(env, "REPRO_BENCH_CACHE", default=True),
            cache_dir=str(store_roots(env=env)[0]),
        )


def fidelity_env(
    fidelity: str,
    engine: str | None = None,
    session: str | None = None,
) -> dict[str, str]:
    """The environment a named fidelity (plus overrides) pins."""
    if fidelity not in FIDELITIES:
        raise EnvConfigError(
            f"unknown fidelity {fidelity!r}: expected one of "
            f"{', '.join(FIDELITIES)}"
        )
    env = dict(FIDELITIES[fidelity])
    # Always pin the engine and session mode: ambient REPRO_BENCH_ENGINE
    # / REPRO_SESSION_MODE must not leak into a named-fidelity run whose
    # header reports the default.
    if engine is None:
        engine = "batched"
    if engine not in ENGINE_NAMES:
        raise EnvConfigError(
            f"unknown engine {engine!r}: expected one of "
            f"{', '.join(ENGINE_NAMES)}"
        )
    env["REPRO_BENCH_ENGINE"] = engine
    if session is None:
        session = "direct"
    if session not in SESSION_MODES:
        raise EnvConfigError(
            f"unknown session mode {session!r}: expected one of "
            f"{', '.join(SESSION_MODES)}"
        )
    env["REPRO_SESSION_MODE"] = session
    return env


def fidelity_config(fidelity: str, engine: str | None = None,
                    session: str | None = None) -> BenchConfig:
    """The environment's bench config with a named fidelity (plus
    overrides) pinned over it and its name as the label — what ``repro
    verify`` runs under."""
    config = BenchConfig.from_env(
        {**os.environ, **fidelity_env(fidelity, engine, session)})
    return replace(config, fidelity=fidelity)
