"""Artifact schema round-trip, tolerance comparison, env validation."""

import json
import math

import pytest

from repro.report.compare import (
    Tolerance,
    compare_artifacts,
    render_diff,
    tolerance_for,
)
from repro.report.config import BenchConfig, EnvConfigError, fidelity_config, fidelity_env
from repro.report.schema import (
    SCHEMA_VERSION,
    SchemaError,
    build_artifact,
    dump_artifact,
    from_json_dict,
    load_artifact,
)


def make_artifact(**overrides):
    kwargs = dict(
        name="fig_test",
        title="Test figure",
        rows=[
            {"workload": "black", "cmrpo": 4.25, "n": 7},
            {"workload": "face", "cmrpo": 1.5, "n": 3},
        ],
        columns=["workload", "cmrpo", "n"],
        engine="batched",
        scale=24.0,
        parameters={"refresh_threshold": 32768},
    )
    kwargs.update(overrides)
    return build_artifact(**kwargs)


class TestSchemaRoundTrip:
    def test_emit_load_compare_identity(self, tmp_path):
        artifact = make_artifact()
        path = dump_artifact(artifact, tmp_path / "fig_test.json")
        loaded = load_artifact(path)
        assert loaded == artifact
        assert compare_artifacts(artifact, loaded).ok

    def test_json_text_is_versioned_and_typed(self):
        doc = json.loads(make_artifact().to_json())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["kind"] == "repro-figure-artifact"
        assert doc["engine"] == "batched"
        assert doc["scale"] == 24.0
        assert isinstance(doc["seed"], int)
        assert doc["parameters"]["refresh_threshold"] == 32768

    def test_nan_and_numpy_cells_normalize(self):
        np = pytest.importorskip("numpy")
        artifact = build_artifact(
            "fig_nan", "t",
            rows=[{"a": float("nan"), "b": np.float64(1.5),
                   "c": np.int64(4)}],
            columns=["a", "b", "c"],
            engine="batched", scale=24.0,
        )
        row = artifact.rows[0]
        assert row["a"] is None
        assert row["b"] == 1.5 and isinstance(row["b"], float)
        assert row["c"] == 4 and isinstance(row["c"], int)

    def test_undeclared_row_keys_are_dropped(self):
        artifact = build_artifact(
            "fig_drop", "t",
            rows=[{"a": 1, "alias": 2}], columns=["a"],
            engine="batched", scale=24.0,
        )
        assert artifact.rows[0] == {"a": 1}

    def test_rejects_wrong_schema_version(self):
        doc = json.loads(make_artifact().to_json())
        doc["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError, match="--update"):
            from_json_dict(doc)

    def test_rejects_missing_keys_and_bad_types(self):
        doc = json.loads(make_artifact().to_json())
        del doc["columns"]
        with pytest.raises(SchemaError, match="columns"):
            from_json_dict(doc)
        doc2 = json.loads(make_artifact().to_json())
        doc2["rows"][0]["cmrpo"] = [1, 2]
        with pytest.raises(SchemaError, match="non-scalar"):
            from_json_dict(doc2)
        with pytest.raises(SchemaError, match="kind"):
            from_json_dict({"schema_version": 1})

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_artifact(path)


class TestCompare:
    def test_exact_metric_mismatch_fails(self):
        golden = make_artifact()
        actual = make_artifact(rows=[
            {"workload": "black", "cmrpo": 4.25, "n": 8},
            {"workload": "face", "cmrpo": 1.5, "n": 3},
        ])
        diff = compare_artifacts(golden, actual)
        assert not diff.ok
        rendered = render_diff(diff)
        assert "FAIL fig_test" in rendered
        assert "workload=black" in rendered and "col n" in rendered

    def test_float_epsilon_passes_but_regression_fails(self):
        golden = make_artifact()
        wiggle = make_artifact(rows=[
            {"workload": "black", "cmrpo": 4.25 * (1 + 1e-12), "n": 7},
            {"workload": "face", "cmrpo": 1.5, "n": 3},
        ])
        assert compare_artifacts(golden, wiggle).ok
        broken = make_artifact(rows=[
            {"workload": "black", "cmrpo": 4.26, "n": 7},
            {"workload": "face", "cmrpo": 1.5, "n": 3},
        ])
        assert not compare_artifacts(golden, broken).ok

    def test_declared_tolerance_path(self):
        policy = [("fig_test", "cmrpo", Tolerance(rel_tol=0.05))]
        golden = make_artifact()
        drifted = make_artifact(rows=[
            {"workload": "black", "cmrpo": 4.30, "n": 7},
            {"workload": "face", "cmrpo": 1.52, "n": 3},
        ])
        assert compare_artifacts(golden, drifted, policy=policy).ok
        too_far = make_artifact(rows=[
            {"workload": "black", "cmrpo": 5.0, "n": 7},
            {"workload": "face", "cmrpo": 1.5, "n": 3},
        ])
        diff = compare_artifacts(golden, too_far, policy=policy)
        assert not diff.ok
        assert "declared tolerance" in render_diff(diff)

    def test_declared_tolerance_parses_numeric_strings(self):
        policy = [("fig_s", "rate", Tolerance(rel_tol=0.1))]
        golden = build_artifact("fig_s", "t", [{"rate": "1.00e-03"}],
                                ["rate"], engine="batched", scale=24.0)
        close = build_artifact("fig_s", "t", [{"rate": "1.05e-03"}],
                               ["rate"], engine="batched", scale=24.0)
        assert compare_artifacts(golden, close, policy=policy).ok

    def test_nan_equals_nan_under_tolerance(self):
        tol = Tolerance(rel_tol=0.1)
        assert tol.accepts(math.nan, math.nan)
        assert not tol.accepts(math.nan, 1.0)

    def test_structure_and_parameter_mismatches(self):
        golden = make_artifact()
        fewer = make_artifact(rows=[golden.rows[0]])
        assert any(d.kind == "structure"
                   for d in compare_artifacts(golden, fewer).differences)
        rescaled = make_artifact(scale=96.0)
        assert any(d.kind == "parameter"
                   for d in compare_artifacts(golden, rescaled).differences)

    def test_engine_is_not_compared(self):
        golden = make_artifact(engine="batched")
        scalar = make_artifact(engine="scalar")
        assert compare_artifacts(golden, scalar).ok

    def test_default_policy_lookup(self):
        assert tolerance_for("fig1_lfsr_study", "failure_rate") is not None
        assert tolerance_for("fig8_cmrpo_t32k", "DRCAT_64") is None


class TestBenchConfigEnv:
    def test_defaults(self):
        config = BenchConfig.from_env({})
        assert (config.scale, config.n_intervals, config.n_banks) == (24.0, 2, 1)
        assert config.engine == "batched" and config.workers == 1

    def test_workers_zero_means_cpu_count(self):
        config = BenchConfig.from_env({"REPRO_BENCH_WORKERS": "0"})
        assert config.workers >= 1

    @pytest.mark.parametrize("var,value", [
        ("REPRO_BENCH_WORKERS", "-2"),
        ("REPRO_BENCH_WORKERS", "many"),
        ("REPRO_BENCH_WORKERS", "1.5"),
        ("REPRO_BENCH_SCALE", "0"),
        ("REPRO_BENCH_SCALE", "nan"),
        ("REPRO_BENCH_SCALE", "fast"),
        ("REPRO_BENCH_INTERVALS", "0"),
        ("REPRO_BENCH_BANKS", "-1"),
        ("REPRO_BENCH_ENGINE", "warp"),
        ("REPRO_BENCH_ENGINE", "jit"),
    ])
    def test_garbage_values_fail_with_named_variable(self, var, value):
        with pytest.raises(EnvConfigError) as excinfo:
            BenchConfig.from_env({var: value})
        message = str(excinfo.value)
        assert var in message and value in message

    def test_fidelity_label_is_stamped_not_read(self):
        """``fidelity_config`` labels the config it returns; no
        environment variable carries the label."""
        assert BenchConfig.from_env({"REPRO_BENCH_FIDELITY": "ci"}).fidelity == "custom"
        assert fidelity_config("smoke").fidelity == "smoke"
        assert fidelity_config("ci", engine="scalar").fidelity == "ci"
        assert not any("FIDELITY" in name for name in fidelity_env("ci"))

    def test_fidelity_env_rejects_unknown_names(self):
        assert fidelity_env("smoke")["REPRO_BENCH_SCALE"] == "96"
        with pytest.raises(EnvConfigError, match="unknown fidelity"):
            fidelity_env("ludicrous")
        with pytest.raises(EnvConfigError, match="unknown engine"):
            fidelity_env("ci", engine="warp")
