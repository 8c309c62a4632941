"""Core mitigation schemes: the CAT family and the SCA / PRA baselines.

Schemes are constructed through the registry in
:mod:`repro.core.registry`: each registers a name, a typed params
dataclass and a factory, and :func:`make_scheme` validates per-scheme
parameters against it.  See :class:`repro.experiments.SchemeSpec` for
the declarative form experiment specs carry.
"""

from __future__ import annotations

from repro.core.base import (
    ActivationLedger,
    MitigationScheme,
    RefreshCommand,
)
from repro.core.cat import PRCATScheme
from repro.core.counter_cache import CounterCacheScheme
from repro.core.counter_tree import CounterTree
from repro.core.drcat import DRCATScheme
from repro.core.pra import PRAScheme
from repro.core.registry import (
    CatParams,
    CCacheParams,
    DrcatParams,
    PraParams,
    PrcatParams,
    ScaParams,
    SchemeInfo,
    build_params,
    get_scheme_info,
    make_scheme,
    params_from_dict,
    params_to_dict,
    register_scheme,
    scheme_names,
)
from repro.core.sca import SCAScheme
from repro.core.thresholds import PAPER_THRESHOLDS, SplitThresholds

__all__ = [
    "ActivationLedger",
    "MitigationScheme",
    "RefreshCommand",
    "CounterTree",
    "SplitThresholds",
    "PAPER_THRESHOLDS",
    "SCAScheme",
    "CounterCacheScheme",
    "PRAScheme",
    "PRCATScheme",
    "DRCATScheme",
    "make_scheme",
    # registry surface
    "SchemeInfo",
    "register_scheme",
    "scheme_names",
    "get_scheme_info",
    "build_params",
    "params_to_dict",
    "params_from_dict",
    "ScaParams",
    "PraParams",
    "CatParams",
    "PrcatParams",
    "DrcatParams",
    "CCacheParams",
]
