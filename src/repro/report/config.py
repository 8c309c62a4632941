"""Validated bench configuration: env knobs and named fidelities.

The benchmark harness is tuned through ``REPRO_BENCH_*`` environment
variables.  This module is the single place they are parsed: values are
validated eagerly and a malformed setting fails with a message naming
the variable, the offending value, and what was expected — instead of a
``ValueError: invalid literal`` five frames deep in a bench.

A *fidelity* is a named (scale, intervals, banks) point:

* ``ci``    — the default economy knobs every figure bench and the
  checked-in ``benchmarks/golden/ci`` store use;
* ``smoke`` — cheaper still, for the CI ``verify`` job and quick local
  runs (``benchmarks/golden/smoke``);
* ``full``  — closer to paper scale; no golden store is checked in.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping

#: Engines accepted by the simulator: ``scalar`` is the per-event
#: reference loop, ``batched`` the per-segment compiled kernel; the two are
#: contractually bit-identical.  Defined here, in stdlib-only config, so
#: config parsing does not import the simulation stack;
#: :data:`repro.sim.engine.ENGINES` re-exports it.
ENGINE_NAMES = ("scalar", "batched")

#: How ``run_spec`` drives its session (``REPRO_SESSION_MODE``):
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


@dataclass(frozen=True)
class BenchConfig:
    """One resolved set of bench knobs (hashable: used as a cache key)."""

    scale: float
    n_intervals: int
    n_banks: int
    engine: str
    workers: int
    fidelity: str
    #: spec execution path (``REPRO_SESSION_MODE``): part of the memo
    #: keys so one process can gate several paths without cross-talk.
    session: str = "direct"
    #: sweep-cell result cache (see :mod:`repro.experiments.cache`):
    #: enabled by default; ``REPRO_BENCH_CACHE=0`` disables,
    #: ``REPRO_BENCH_CACHE_DIR`` overrides the store location.
    cache: bool = True
    cache_dir: str = ""

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
            fidelity=env.get("REPRO_BENCH_FIDELITY", "") or "custom",
            session=env_choice(env, "REPRO_SESSION_MODE", default="direct",
                               choices=SESSION_MODES),
            cache=env_bool(env, "REPRO_BENCH_CACHE", default=True),
            cache_dir=env.get("REPRO_BENCH_CACHE_DIR", ""),
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
    env["REPRO_BENCH_FIDELITY"] = fidelity
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
