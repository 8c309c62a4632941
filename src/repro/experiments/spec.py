"""Declarative experiment specifications with stable content hashing.

An :class:`ExperimentSpec` is the complete, serializable description of
one simulator run: what system, what workload (or attack mix), which
mitigation scheme with which typed parameters, and the simulation
economy knobs (scale, banks, intervals, engine, seed).  Everything the
stack historically threaded through ~12 positional/keyword arguments
lives here once, with ``to_dict``/``from_dict`` round-tripping and a
stable :meth:`~ExperimentSpec.content_hash` that keys the on-disk sweep
result cache (:mod:`repro.experiments.cache`).

:class:`SchemeSpec` pairs a registered scheme name with its typed
params record from :mod:`repro.core.registry`, plus an optional display
label (``"SCA_128"``) used when grids key results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace

from repro.core.registry import (
    build_params,
    get_scheme_info,
    params_from_dict,
    params_to_dict,
)
from repro.dram.config import NAMED_CONFIGS, DRAMTimings, SystemConfig
from repro.report.config import ENGINE_NAMES
from repro.report.schema import ARRIVAL_SEED
from repro.workloads.suites import WorkloadSpec, resolve_workload

#: Bump on incompatible spec-layout changes; ``from_dict`` rejects
#: other versions with a regeneration hint.
SPEC_VERSION = 1

#: Base seed of the simulator's arrival-time stream (part of the spec so
#: runs can be re-seeded); the artifact schema records the same value.
DEFAULT_SEED = ARRIVAL_SEED

#: Default simulation economy knobs of a spec that leaves them unset.
DEFAULT_SCALE = 16.0
DEFAULT_BANKS = 2
DEFAULT_INTERVALS = 2

#: The paper's default system, by registry name.
DEFAULT_SYSTEM = "dual-core/2channels"


class SpecError(ValueError):
    """A spec document or field combination is invalid."""


def _encode_tagged(value):
    """JSON form of config/workload objects embedded in a spec."""
    if isinstance(value, SystemConfig):
        return {"__type__": "SystemConfig", **asdict(value)}
    if isinstance(value, WorkloadSpec):
        return {"__type__": "WorkloadSpec", **asdict(value)}
    return value


def _decode_tagged(value):
    if isinstance(value, dict) and value.get("__type__") == "SystemConfig":
        doc = {k: v for k, v in value.items() if k != "__type__"}
        if isinstance(doc.get("timings"), dict):
            doc["timings"] = DRAMTimings(**doc["timings"])
        return SystemConfig(**doc)
    if isinstance(value, dict) and value.get("__type__") == "WorkloadSpec":
        doc = {k: v for k, v in value.items() if k != "__type__"}
        return WorkloadSpec(**doc)
    return value


@dataclass(frozen=True)
class SchemeSpec:
    """A registered scheme name plus its typed parameter record."""

    kind: str
    params: object | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        info = get_scheme_info(self.kind)
        object.__setattr__(self, "kind", info.name)
        if self.params is None:
            object.__setattr__(self, "params", info.default_params())
        elif not isinstance(self.params, info.params_cls):
            raise TypeError(
                f"scheme {info.name!r} expects {info.params_cls.__name__} "
                f"params, got {type(self.params).__name__}"
            )

    @classmethod
    def create(cls, kind: str, label: str | None = None, **params) -> "SchemeSpec":
        """Build a spec from loose keyword parameters (strictly validated:
        unlike legacy ``make_scheme`` kwargs, a knob the scheme does not
        have — even a cross-scheme legacy name — is a ``TypeError``)."""
        return cls(kind, build_params(kind, **params), label)

    @classmethod
    def from_legacy(
        cls,
        kind: str,
        *,
        counters: int = 64,
        max_levels: int = 11,
        pra_probability: float = 0.002,
        threshold_strategy: str = "auto",
        label: str | None = None,
    ) -> "SchemeSpec":
        """The SchemeSpec the CLI's cross-scheme flags mean.

        The CLI takes one flat flag set (``--counters``, ``--levels``,
        ``--pra-p``) for every scheme; this is the single place those
        names map onto each scheme's typed fields, dropping the knobs a
        scheme does not have.
        """
        kind = kind.lower()
        if kind in ("prcat", "drcat"):
            return cls.create(
                kind,
                label,
                n_counters=counters,
                max_levels=max_levels,
                threshold_strategy=threshold_strategy,
            )
        if kind == "sca":
            return cls.create(kind, label, n_counters=counters)
        if kind == "pra":
            return cls.create(kind, label, probability=pra_probability)
        # Other kinds (ccache, future registrants) take none of the
        # legacy soup names; unknown kinds raise the registry's
        # ValueError here, preserving construction-time failure.
        return cls.create(kind, label)

    @property
    def display_label(self) -> str:
        """Label used when grids key results (falls back to the kind)."""
        return self.label or self.kind

    def to_dict(self) -> dict:
        """JSON-ready form: kind, params dict, optional label."""
        return {
            "kind": self.kind,
            "params": params_to_dict(self.params),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SchemeSpec":
        """Rebuild a scheme spec serialized by :meth:`to_dict`."""
        try:
            kind = doc["kind"]
        except (TypeError, KeyError):
            raise SpecError(f"scheme document {doc!r} has no 'kind'") from None
        return cls(
            kind,
            params_from_dict(kind, doc.get("params") or {}),
            doc.get("label"),
        )


def coerce_scheme(value) -> SchemeSpec:
    """Accept a SchemeSpec, a bare kind string, or a serialized dict."""
    if isinstance(value, SchemeSpec):
        return value
    if isinstance(value, str):
        return SchemeSpec(value)
    if isinstance(value, dict):
        return SchemeSpec.from_dict(value)
    raise TypeError(f"cannot interpret {value!r} as a scheme spec")


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete declarative description of one simulator run."""

    scheme: SchemeSpec
    #: canonical workload label (aliases are resolved on construction);
    #: for ``kind="attack"`` this is the *benign* workload of the mix
    workload: str = "black"
    #: ``"workload"`` (Figure 8/9 style) or ``"attack"`` (Figure 13)
    kind: str = "workload"
    attack_kernel: str | None = None
    attack_mode: str | None = None
    #: a :data:`repro.dram.config.NAMED_CONFIGS` key, or an inline
    #: :class:`SystemConfig` for off-catalogue systems
    system: str | SystemConfig = DEFAULT_SYSTEM
    #: inline workload model overriding ``workload`` (rarely needed;
    #: grids that scale traffic use ``intensity_scale`` instead)
    workload_model: WorkloadSpec | None = None
    #: multiplier applied to the workload's mean activation intensity
    #: (Figure 11's quad-core traffic scaling)
    intensity_scale: float = 1.0
    refresh_threshold: int = 32768
    scale: float = DEFAULT_SCALE
    n_banks: int = DEFAULT_BANKS
    n_intervals: int = DEFAULT_INTERVALS
    engine: str = "batched"
    seed: int = DEFAULT_SEED
    #: session epoch/checkpoint policy: auto-snapshot every this many
    #: epochs when the run is driven through a streaming session with a
    #: snapshot sink (``repro run --stream --snapshot-dir``).  Like the
    #: scheme label this is *cosmetic for the numbers* — checkpointing
    #: is bit-identical by contract — so it is excluded from
    #: :meth:`content_hash`.
    checkpoint_every: int | None = None

    def __post_init__(self) -> None:
        scheme = coerce_scheme(self.scheme)
        object.__setattr__(self, "scheme", scheme)
        if self.kind not in ("workload", "attack"):
            raise SpecError(
                f"spec kind must be 'workload' or 'attack', got {self.kind!r}"
            )
        if self.kind == "attack":
            if not self.attack_kernel or not self.attack_mode:
                raise SpecError(
                    "attack specs need attack_kernel and attack_mode"
                )
        if self.workload_model is None:
            # Resolve aliases eagerly so equal experiments hash equally.
            object.__setattr__(
                self, "workload", resolve_workload(self.workload).name
            )
        if isinstance(self.system, dict):
            # Hand-written spec documents may inline a system object
            # (with or without the serializer's "__type__" tag); coerce
            # eagerly so a malformed one fails at load time with the
            # field named, not at run time.
            doc = {k: v for k, v in self.system.items() if k != "__type__"}
            try:
                if isinstance(doc.get("timings"), dict):
                    doc["timings"] = DRAMTimings(**doc["timings"])
                object.__setattr__(self, "system", SystemConfig(**doc))
            except (TypeError, ValueError) as exc:
                raise SpecError(
                    f"invalid inline system config: {exc}"
                ) from None
        elif isinstance(self.system, str):
            if self.system not in NAMED_CONFIGS:
                raise SpecError(
                    f"unknown system {self.system!r}; named systems: "
                    f"{', '.join(NAMED_CONFIGS)}"
                )
        elif not isinstance(self.system, SystemConfig):
            raise SpecError(
                f"system must be a named-config string, a SystemConfig, "
                f"or an inline config object; got "
                f"{type(self.system).__name__}"
            )
        if self.scale < 1.0:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        if self.n_banks < 1 or self.n_intervals < 1:
            raise ValueError("need at least one bank and one interval")
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"engine must be one of {ENGINE_NAMES}, got {self.engine!r}"
            )
        if self.refresh_threshold <= 0:
            raise ValueError("refresh_threshold must be positive")
        if self.intensity_scale <= 0:
            raise ValueError("intensity_scale must be positive")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1 epoch or None, got "
                f"{self.checkpoint_every}"
            )

    # -- resolution -------------------------------------------------------

    def resolve_system(self) -> SystemConfig:
        """The :class:`SystemConfig` this spec runs on."""
        if isinstance(self.system, SystemConfig):
            return self.system
        return NAMED_CONFIGS[self.system]

    def resolve_workload_model(self) -> WorkloadSpec:
        """The (possibly intensity-scaled) workload model to simulate."""
        model = (
            self.workload_model
            if self.workload_model is not None
            else resolve_workload(self.workload)
        )
        if self.intensity_scale != 1.0:
            model = replace(
                model, intensity=model.intensity * self.intensity_scale
            )
        return model

    @property
    def workload_label(self) -> str:
        """Display name of the workload (inline models use their own)."""
        if self.workload_model is not None:
            return self.workload_model.name
        return self.workload

    def key(self) -> tuple[str, str]:
        """The (workload, scheme-label) pair sweeps key results by."""
        return (self.workload_label, self.scheme.display_label)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form, stable key order, JSON-ready."""
        doc = {"spec_version": SPEC_VERSION, "scheme": self.scheme.to_dict()}
        for f in fields(self):
            if f.name == "scheme":
                continue
            doc[f.name] = _encode_tagged(getattr(self, f.name))
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSpec":
        """Validate and rebuild a spec serialized by :meth:`to_dict`."""
        if not isinstance(doc, dict):
            raise SpecError("spec document must be an object")
        version = doc.get("spec_version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise SpecError(
                f"spec_version {version} is not supported (this build "
                f"reads version {SPEC_VERSION})"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known - {"spec_version"}
        if unknown:
            raise SpecError(
                f"spec document has unknown field(s): {', '.join(sorted(unknown))}"
            )
        kwargs = {}
        for key, value in doc.items():
            if key == "spec_version":
                continue
            if key == "scheme":
                kwargs[key] = SchemeSpec.from_dict(value)
            else:
                kwargs[key] = _decode_tagged(value)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise SpecError(f"invalid spec document: {exc}") from None

    def to_json(self) -> str:
        """The :meth:`to_dict` document as indented JSON text."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    def canonical_dict(self) -> dict:
        """:meth:`to_dict` minus cosmetic fields (the scheme's display
        label and the checkpoint policy cannot change the numbers), the
        form hashing and cache equality use."""
        doc = self.to_dict()
        doc["scheme"] = dict(doc["scheme"], label=None)
        doc["checkpoint_every"] = None
        return doc

    def content_hash(self) -> str:
        """Stable 16-hex-digit digest of the spec's semantic content.

        Equal experiments hash equally — workload aliases resolve at
        construction and the cosmetic scheme label is excluded, so a
        labelled bench cell and an unlabelled CLI spec of the same run
        share cache entries.  Any semantic field change — scheme
        params, engine, seed — changes the digest.
        """
        canonical = json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def load_spec(path) -> ExperimentSpec:
    """Read one ExperimentSpec JSON file."""
    from pathlib import Path

    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: not valid JSON ({exc})") from None
    return ExperimentSpec.from_dict(doc)


__all__ = [
    "SPEC_VERSION",
    "DEFAULT_SEED",
    "DEFAULT_SCALE",
    "DEFAULT_BANKS",
    "DEFAULT_INTERVALS",
    "DEFAULT_SYSTEM",
    "SpecError",
    "SchemeSpec",
    "coerce_scheme",
    "ExperimentSpec",
    "load_spec",
]
