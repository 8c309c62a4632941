"""Tests for the declarative experiments layer (spec/plan/cache/run)."""

import json

import pytest

from repro.dram.config import QUAD_CORE_2CH
from repro.experiments import (
    ExperimentSpec,
    Plan,
    ResultCache,
    SchemeSpec,
    SpecError,
    load_plan,
    load_spec,
    run_plan,
    run_spec,
)
from repro.workloads.suites import get_workload

FAST = dict(scale=128.0, n_banks=1, n_intervals=1)


def fast_spec(**overrides):
    fields = dict(scheme=SchemeSpec("drcat"), workload="libq", **FAST)
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestSchemeSpec:
    def test_defaults_from_registry(self):
        spec = SchemeSpec("sca")
        assert spec.params.n_counters == 64
        assert spec.display_label == "sca"

    def test_create_validates(self):
        with pytest.raises(TypeError, match="valid parameters"):
            SchemeSpec.create("sca", n_wheels=3)

    def test_create_rejects_cross_scheme_legacy_names(self):
        # Unlike legacy make_scheme kwargs, the typed path is strict:
        # PRA's probability on a CAT scheme is an error, not a no-op.
        with pytest.raises(TypeError, match="takes no parameter"):
            SchemeSpec.create("prcat", probability=0.9)
        with pytest.raises(TypeError, match="takes no parameter"):
            SchemeSpec.create("pra", n_counters=999)

    def test_label(self):
        spec = SchemeSpec.create("sca", "SCA_128", n_counters=128)
        assert spec.display_label == "SCA_128"

    def test_wrong_params_type(self):
        from repro.core import PraParams

        with pytest.raises(TypeError, match="expects"):
            SchemeSpec("sca", PraParams())

    def test_round_trip(self):
        spec = SchemeSpec.create("drcat", "D", n_counters=32, max_levels=7)
        assert SchemeSpec.from_dict(spec.to_dict()) == spec


class TestExperimentSpec:
    def test_alias_resolved_on_construction(self):
        assert fast_spec(workload="blackscholes").workload == "black"

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            fast_spec(workload="quake3")

    def test_named_system_validated(self):
        with pytest.raises(SpecError, match="named systems"):
            fast_spec(system="hex-core/9channels")

    def test_attack_needs_kernel_and_mode(self):
        with pytest.raises(SpecError, match="attack"):
            fast_spec(kind="attack")

    def test_engine_validated(self):
        with pytest.raises(ValueError, match="engine"):
            fast_spec(engine="warp")

    def test_round_trip(self):
        spec = fast_spec(
            scheme=SchemeSpec.create("sca", "SCA_128", n_counters=128),
            refresh_threshold=16384,
        )
        rebuilt = ExperimentSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.content_hash() == spec.content_hash()

    def test_round_trip_inline_system(self):
        spec = fast_spec(system=QUAD_CORE_2CH)
        rebuilt = ExperimentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert rebuilt == spec
        assert rebuilt.resolve_system() == QUAD_CORE_2CH

    def test_round_trip_inline_workload_model(self):
        from dataclasses import replace

        model = replace(get_workload("black"), intensity=123456.0)
        spec = fast_spec(workload_model=model)
        rebuilt = ExperimentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert rebuilt.resolve_workload_model() == model

    def test_inline_system_dict_without_tag(self):
        # Hand-written spec JSON need not know the serializer's
        # "__type__" tag; a plain config object coerces eagerly.
        spec = fast_spec(system={"n_cores": 4, "rows_per_bank": 131072})
        assert spec.resolve_system() == QUAD_CORE_2CH

    def test_malformed_inline_system_fails_at_load(self):
        with pytest.raises(SpecError, match="inline system"):
            fast_spec(system={"warp_drives": 2})

    def test_non_config_system_rejected(self):
        with pytest.raises(SpecError, match="system must be"):
            fast_spec(system=42)

    def test_unknown_field_rejected(self):
        doc = fast_spec().to_dict()
        doc["warp_factor"] = 9
        with pytest.raises(SpecError, match="unknown field"):
            ExperimentSpec.from_dict(doc)

    def test_hash_stable_and_sensitive(self):
        a, b = fast_spec(), fast_spec()
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != fast_spec(seed=1).content_hash()
        assert (
            a.content_hash()
            != fast_spec(engine="scalar").content_hash()
        )
        assert (
            a.content_hash()
            != fast_spec(
                scheme=SchemeSpec.create("drcat", n_counters=32)
            ).content_hash()
        )

    def test_hash_alias_invariant(self):
        assert (
            fast_spec(workload="blackscholes").content_hash()
            == fast_spec(workload="black").content_hash()
        )

    def test_hash_label_invariant(self):
        # The display label cannot change the numbers; labelled bench
        # cells and unlabelled CLI specs must share cache entries.
        labelled = fast_spec(
            scheme=SchemeSpec.create("sca", "SCA_128", n_counters=128)
        )
        bare = fast_spec(
            scheme=SchemeSpec.create("sca", n_counters=128)
        )
        assert labelled.content_hash() == bare.content_hash()

    def test_intensity_scale(self):
        model = fast_spec(intensity_scale=2.0).resolve_workload_model()
        assert model.intensity == get_workload("libq").intensity * 2.0

    def test_spec_file_round_trip(self, tmp_path):
        spec = fast_spec()
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        assert load_spec(path) == spec


class TestPlan:
    def test_grid_expansion_order(self):
        plan = Plan.grid(
            fast_spec(),
            scheme=[SchemeSpec.create("sca", "S"),
                    SchemeSpec.create("drcat", "D")],
            workload=["black", "libq"],
        )
        assert plan.keys() == [
            ("black", "S"), ("libq", "S"), ("black", "D"), ("libq", "D"),
        ]

    def test_grid_scalar_axis(self):
        plan = Plan.grid(fast_spec(), refresh_threshold=[32768, 16384])
        assert [s.refresh_threshold for s in plan] == [32768, 16384]

    def test_unknown_axis(self):
        with pytest.raises(SpecError, match="unknown plan axis"):
            Plan.grid(fast_spec(), warp=[1, 2])

    def test_empty_axis(self):
        with pytest.raises(SpecError, match="no values"):
            Plan.grid(fast_spec(), workload=[])

    def test_concat(self):
        a = Plan.grid(fast_spec(), workload=["black"])
        b = Plan.grid(fast_spec(), workload=["libq"])
        assert (a + b).keys() == a.keys() + b.keys()

    def test_round_trip_grid(self):
        plan = Plan.grid(
            fast_spec(),
            scheme=[SchemeSpec.create("sca", "S", n_counters=128)],
            workload=["black", "libq"],
            refresh_threshold=[32768, 16384],
        )
        rebuilt = Plan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert rebuilt.specs == plan.specs
        assert rebuilt.content_hash() == plan.content_hash()

    def test_round_trip_inline_workload_axis(self):
        from dataclasses import replace

        model = replace(get_workload("black"), intensity=2_760_000.0)
        plan = Plan.grid(fast_spec(), workload=[model])
        rebuilt = Plan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert rebuilt.specs == plan.specs
        assert (
            rebuilt.specs[0].resolve_workload_model().intensity
            == 2_760_000.0
        )

    def test_round_trip_concat_falls_back_to_specs(self, tmp_path):
        plan = Plan.grid(fast_spec(), workload=["black"]) + Plan.grid(
            fast_spec(), workload=["libq"]
        )
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(), encoding="utf-8")
        assert load_plan(path).specs == plan.specs

    def test_summary_is_compact_provenance(self):
        plan = Plan.grid(fast_spec(), workload=["black", "libq"])
        summary = plan.summary()
        assert summary["n_cells"] == 2
        assert summary["plan_hash"] == plan.content_hash()
        json.dumps(summary)  # must be JSON-safe


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = fast_spec()
        result = run_spec(spec)
        assert cache.get(spec) is None
        cache.put(spec, result)
        cached = cache.get(spec)
        assert cached is not None
        assert cached.to_dict() == result.to_dict()
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = fast_spec()
        cache.put(spec, run_spec(spec))
        cache.path_for(spec).write_text("{not json", encoding="utf-8")
        assert cache.get(spec) is None
        assert not cache.path_for(spec).exists()  # dropped

    def test_spec_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec, other = fast_spec(), fast_spec(seed=77)
        cache.put(spec, run_spec(spec))
        # Simulate a collision: copy spec's entry to other's slot.
        cache.path_for(other).write_text(
            cache.path_for(spec).read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        assert cache.get(other) is None

    def test_run_plan_uses_cache(self, tmp_path, monkeypatch):
        plan = Plan.grid(fast_spec(), workload=["black", "libq"])
        cache = ResultCache(tmp_path)
        first = run_plan(plan, cache=cache)
        calls = {"n": 0}
        import repro.experiments.run as run_mod

        real = run_mod.run_spec

        def counting(spec, ctx):
            calls["n"] += 1
            return real(spec, ctx)

        monkeypatch.setattr(run_mod, "run_spec", counting)
        warm_cache = ResultCache(tmp_path)
        second = run_plan(plan, cache=warm_cache)
        assert calls["n"] == 0, "warm plan must not re-simulate"
        assert warm_cache.hits == len(plan)
        assert [a.to_dict() for a in first] == [b.to_dict() for b in second]

    def test_engine_partitions_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = fast_spec()
        cache.put(spec, run_spec(spec))
        assert cache.get(fast_spec(engine="scalar")) is None


class TestSweepPlanPath:
    def test_per_cell_run_knobs_via_plan_concat(self):
        # Per-scheme run-knob overrides (the old scheme_overrides use
        # case) are expressed by concatenating per-knob grids.
        plan = Plan.grid(
            fast_spec(refresh_threshold=16384), scheme=[SchemeSpec("sca")]
        ) + Plan.grid(
            fast_spec(refresh_threshold=32768), scheme=[SchemeSpec("drcat")]
        )
        results = dict(zip(plan.keys(), run_plan(plan)))
        assert results[("libq", "sca")].parameters[
            "refresh_threshold"] == 16384
        assert results[("libq", "drcat")].parameters[
            "refresh_threshold"] == 32768
        baseline = run_spec(
            fast_spec(scheme=SchemeSpec("sca"), refresh_threshold=16384)
        )
        assert (
            results[("libq", "sca")].to_dict() == baseline.to_dict()
        )

    def test_cache_shared_across_labels(self, tmp_path):
        cache = ResultCache(tmp_path)
        labelled = fast_spec(
            scheme=SchemeSpec.create("drcat", "DRCAT_64")
        )
        cache.put(labelled, run_spec(labelled))
        bare = fast_spec(scheme=SchemeSpec("drcat"))
        hit = cache.get(bare)
        assert hit is not None
        assert hit.to_dict() == run_spec(bare).to_dict()
