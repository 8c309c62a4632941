"""Scheme-registry tests: validation, and registry-wide safety.

The safety test is the important one: it asserts, for *every* entry in
the scheme registry, that a random access stream can never accumulate
``T`` unrefreshed activations on any row (the ActivationLedger
invariant, DESIGN.md invariant 2).  Because it parametrizes over
``scheme_names()``, a future scheme registered with ``register_scheme``
is covered automatically — its author only supplies
``safety_overrides`` if the default small-threshold configuration does
not suit it (as PRA's probabilistic guarantee requires).
"""

import numpy as np
import pytest

from repro.core import (
    ActivationLedger,
    CatParams,
    DrcatParams,
    PraParams,
    ScaParams,
    build_params,
    get_scheme_info,
    make_scheme,
    scheme_names,
)

N_ROWS = 256
SAFETY_T = 64


class TestRegistryLookup:
    def test_all_paper_schemes_registered(self):
        assert set(scheme_names()) >= {"sca", "pra", "prcat", "drcat",
                                       "ccache"}

    def test_unknown_scheme_lists_registered(self):
        with pytest.raises(ValueError, match="registered schemes"):
            get_scheme_info("magic")

    def test_case_insensitive(self):
        assert get_scheme_info("DRCAT").name == "drcat"


class TestBuildParams:
    def test_defaults(self):
        assert build_params("sca") == ScaParams(n_counters=64)
        assert build_params("pra") == PraParams(probability=0.002)

    def test_explicit(self):
        params = build_params("drcat", n_counters=128, max_levels=9)
        assert isinstance(params, CatParams)
        assert (params.n_counters, params.max_levels) == (128, 9)

    def test_unknown_param_rejected_with_field_list(self):
        with pytest.raises(TypeError, match="valid parameters"):
            build_params("sca", probability_of_rain=0.5)

    def test_cross_scheme_kwargs_rejected(self):
        # A knob of another scheme is as foreign as an unknown one, on
        # make_scheme exactly as on SchemeSpec.create.
        with pytest.raises(TypeError, match="takes no parameter"):
            build_params("sca", probability=0.5)
        with pytest.raises(TypeError, match="takes no parameter"):
            make_scheme("pra", N_ROWS, 1024, n_counters=128)


class TestMakeScheme:
    def test_params_object_path(self):
        scheme = make_scheme("drcat", N_ROWS, 1024,
                             params=DrcatParams(n_counters=8, max_levels=6))
        assert scheme.n_counters == 8

    def test_params_type_checked(self):
        with pytest.raises(TypeError, match="expects"):
            make_scheme("drcat", N_ROWS, 1024, params=ScaParams())

    def test_params_and_kwargs_conflict(self):
        with pytest.raises(TypeError, match="not both"):
            make_scheme("sca", N_ROWS, 1024, params=ScaParams(),
                        n_counters=8)

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="takes no parameter"):
            make_scheme("drcat", N_ROWS, 1024, n_widgets=3)

    def test_prng_only_for_pra(self):
        with pytest.raises(TypeError, match="takes no prng"):
            make_scheme("sca", N_ROWS, 1024, prng=object())


def _safety_scheme(kind: str):
    """Build ``kind`` at the safety-test threshold, honouring the
    registry's declared overrides."""
    info = get_scheme_info(kind)
    params = dict(info.safety_overrides.get("params", {}))
    return make_scheme(kind, N_ROWS, SAFETY_T, **params)


@pytest.mark.parametrize("kind", scheme_names())
class TestRegistryWideSafety:
    """max_pressure() < T for every registered scheme, random streams."""

    def _drive(self, scheme, rows):
        ledger = ActivationLedger(scheme.n_rows)
        for row in rows:
            ledger.activate(row)
            ledger.apply_refreshes(scheme.access(row))
            assert ledger.max_pressure() < SAFETY_T, (
                f"{scheme.name}: row pressure {ledger.max_pressure()} "
                f"reached T={SAFETY_T}"
            )

    def test_random_stream_safe(self, kind):
        rng = np.random.default_rng(12345)
        rows = [int(r) for r in rng.integers(0, N_ROWS, size=1500)]
        self._drive(_safety_scheme(kind), rows)

    def test_hammered_stream_safe(self, kind):
        rng = np.random.default_rng(999)
        targets = [int(r) for r in rng.integers(0, N_ROWS, size=3)]
        rows = []
        for t in targets:
            rows.extend([t] * 300)
        self._drive(_safety_scheme(kind), rows)

    def test_batch_matches_scalar_state(self, kind):
        """access_batch leaves the scheme in the scalar-identical state."""
        rng = np.random.default_rng(7)
        rows = rng.integers(0, N_ROWS, size=600)
        a = _safety_scheme(kind)
        b = _safety_scheme(kind)
        scalar_cmds = []
        for row in rows.tolist():
            scalar_cmds.extend(a.access(row))
        batch_cmds = [
            cmd for _, cmds in b.access_batch(rows) for cmd in cmds
        ]
        if kind != "pra":  # PRA instances draw from independent TRNGs
            assert scalar_cmds == batch_cmds
        assert a.stats.activations == b.stats.activations == len(rows)
