"""Scheme registry: typed per-scheme parameters and factories.

Every mitigation scheme registers itself here under its short name
(``"sca"``, ``"pra"``, ``"prcat"``, ``"drcat"``, ``"ccache"``) together
with a frozen *params dataclass* describing the knobs that scheme —
and only that scheme — accepts, plus a factory that builds a configured
instance for one bank.  The registry is what :func:`repro.core.make_scheme`,
:class:`repro.experiments.SchemeSpec` and the ``repro list schemes`` CLI
are driven by: adding a scheme means one :func:`register_scheme` call,
after which spec validation, serialization, sweeps and the
registry-parametrized safety tests all pick it up automatically.

The params dataclasses replace the historical "kwarg soup" where every
call site carried ``n_counters``/``pra_probability``/``max_levels``
whether relevant or not.  :func:`build_params` validates keyword
arguments against the scheme's declared fields and rejects unknown ones
with a message listing what the scheme actually takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable

from repro.core.base import MitigationScheme
from repro.core.cat import PRCATScheme
from repro.core.counter_cache import CounterCacheScheme
from repro.core.drcat import DRCATScheme
from repro.core.pra import PRAScheme
from repro.core.sca import SCAScheme


# -- typed per-scheme parameter records ----------------------------------


@dataclass(frozen=True)
class ScaParams:
    """Static Counter Assignment: M counters over fixed equal groups."""

    n_counters: int = 64


@dataclass(frozen=True)
class PraParams:
    """Probabilistic Row Activation: neighbour refresh with probability p."""

    probability: float = 0.002


@dataclass(frozen=True)
class CatParams:
    """Counter-based Adaptive Tree knobs shared by PRCAT and DRCAT."""

    n_counters: int = 64
    max_levels: int = 11
    threshold_strategy: str = "auto"
    presplit_levels: int | None = None


@dataclass(frozen=True)
class PrcatParams(CatParams):
    """PRCAT (periodic-reset CAT) parameters."""


@dataclass(frozen=True)
class DrcatParams(CatParams):
    """DRCAT (dynamic-reconfiguration CAT) parameters."""


@dataclass(frozen=True)
class CCacheParams:
    """Per-row-counter cache comparator of [26] (sets × ways of lines)."""

    n_sets: int = 8
    n_ways: int = 8


# -- registry ------------------------------------------------------------


@dataclass(frozen=True)
class SchemeInfo:
    """One registered scheme: name, typed params, factory, test hints."""

    name: str
    params_cls: type
    factory: Callable[..., MitigationScheme]
    description: str = ""
    #: Overrides the registry-parametrized safety property test applies
    #: when driving this scheme with a small threshold (e.g. PRA needs a
    #: large ``probability`` for its probabilistic guarantee to hold with
    #: certainty over a short seeded stream).
    safety_overrides: dict[str, Any] = field(default_factory=dict)

    def default_params(self):
        """A params instance holding this scheme's documented defaults."""
        return self.params_cls()


_REGISTRY: dict[str, SchemeInfo] = {}


def register_scheme(info: SchemeInfo) -> SchemeInfo:
    """Register (or replace) one scheme; returns ``info`` for chaining."""
    if not is_dataclass(info.params_cls):
        raise TypeError(
            f"scheme {info.name!r}: params_cls must be a dataclass, "
            f"got {info.params_cls!r}"
        )
    _REGISTRY[info.name] = info
    return info


def scheme_names() -> tuple[str, ...]:
    """All registered scheme names, in registration order."""
    return tuple(_REGISTRY)


def get_scheme_info(kind: str) -> SchemeInfo:
    """Look up a scheme; unknown names raise ``ValueError`` (not KeyError)
    to match the historical ``make_scheme`` contract."""
    try:
        return _REGISTRY[kind.lower()]
    except KeyError:
        raise ValueError(
            f"unknown scheme kind {kind!r}; registered schemes: "
            f"{', '.join(_REGISTRY)}"
        ) from None


def build_params(kind: str, **kwargs):
    """Build the typed params record for ``kind`` from keyword arguments.

    A keyword the scheme does not declare raises ``TypeError`` listing
    the scheme's real fields: a scheme only carries knobs it has.
    """
    info = get_scheme_info(kind)
    valid = {f.name for f in fields(info.params_cls)}
    for key in kwargs:
        if key not in valid:
            raise TypeError(
                f"scheme {info.name!r} takes no parameter {key!r}; "
                f"valid parameters: {', '.join(sorted(valid)) or '(none)'}"
            )
    return info.params_cls(**kwargs)


def params_to_dict(params) -> dict:
    """JSON-safe dict form of one params record."""
    return {f.name: getattr(params, f.name) for f in fields(params)}


def params_from_dict(kind: str, doc: dict):
    """Inverse of :func:`params_to_dict` (validates against the registry).

    Strict: a serialized params document must name only the scheme's
    real fields — a stray legacy knob in a spec file is an error, not
    something to silently drop.
    """
    return build_params(kind, **dict(doc))


# -- the paper's five schemes --------------------------------------------


def _make_sca(n_rows: int, refresh_threshold: int, p: ScaParams) -> SCAScheme:
    return SCAScheme(n_rows, refresh_threshold, p.n_counters)


def _make_pra(
    n_rows: int, refresh_threshold: int, p: PraParams, prng=None
) -> PRAScheme:
    return PRAScheme(n_rows, refresh_threshold, p.probability, prng=prng)


def _make_prcat(
    n_rows: int, refresh_threshold: int, p: PrcatParams
) -> PRCATScheme:
    return PRCATScheme(
        n_rows,
        refresh_threshold,
        p.n_counters,
        p.max_levels,
        threshold_strategy=p.threshold_strategy,
        presplit_levels=p.presplit_levels,
    )


def _make_drcat(
    n_rows: int, refresh_threshold: int, p: DrcatParams
) -> DRCATScheme:
    return DRCATScheme(
        n_rows,
        refresh_threshold,
        p.n_counters,
        p.max_levels,
        threshold_strategy=p.threshold_strategy,
        presplit_levels=p.presplit_levels,
    )


def _make_ccache(
    n_rows: int, refresh_threshold: int, p: CCacheParams
) -> CounterCacheScheme:
    return CounterCacheScheme(
        n_rows, refresh_threshold, n_sets=p.n_sets, n_ways=p.n_ways
    )


register_scheme(SchemeInfo(
    name="sca",
    params_cls=ScaParams,
    factory=_make_sca,
    description="Static Counter Assignment (M fixed equal groups)",
))
register_scheme(SchemeInfo(
    name="pra",
    params_cls=PraParams,
    factory=_make_pra,
    description="Probabilistic Row Activation (coin-flip neighbour refresh)",
    # Deterministic-looking safety over a short seeded stream needs a
    # high coin-flip rate; at the paper's p=0.002 the guarantee is
    # statistical over billions of activations, not a 500-access test.
    safety_overrides={"params": {"probability": 0.5}},
))
register_scheme(SchemeInfo(
    name="prcat",
    params_cls=PrcatParams,
    factory=_make_prcat,
    description="CAT with periodic reset at refresh-interval boundaries",
    safety_overrides={"params": {"n_counters": 8, "max_levels": 6}},
))
register_scheme(SchemeInfo(
    name="drcat",
    params_cls=DrcatParams,
    factory=_make_drcat,
    description="CAT with weight-driven merge/split reconfiguration",
    safety_overrides={"params": {"n_counters": 8, "max_levels": 6}},
))
register_scheme(SchemeInfo(
    name="ccache",
    params_cls=CCacheParams,
    factory=_make_ccache,
    description="Per-row counters behind an SRAM counter cache ([26])",
))


def make_scheme(
    kind: str,
    n_rows: int,
    refresh_threshold: int,
    *,
    params=None,
    prng=None,
    **kwargs,
) -> MitigationScheme:
    """Factory used by the simulator, specs, and benchmarks.

    Either pass a typed ``params`` record (e.g. ``DrcatParams(...)``)
    or keyword arguments validated against the scheme's declared
    fields.  ``kind`` is any registered scheme name.  ``prng`` is a
    construction-time object (not a serializable parameter) accepted by
    PRA only.
    """
    info = get_scheme_info(kind)
    if params is not None:
        if kwargs:
            raise TypeError(
                "make_scheme: pass either params= or keyword parameters, "
                "not both"
            )
        if not isinstance(params, info.params_cls):
            raise TypeError(
                f"scheme {info.name!r} expects {info.params_cls.__name__}, "
                f"got {type(params).__name__}"
            )
    else:
        params = build_params(info.name, **kwargs)
    extra = {}
    if prng is not None:
        if info.name != "pra":
            raise TypeError(f"scheme {info.name!r} takes no prng")
        extra["prng"] = prng
    return info.factory(n_rows, refresh_threshold, params, **extra)
