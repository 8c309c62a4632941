"""``repro verify`` exit codes and diff rendering.

Uses the two cheap analytic bench modules (Table I / Table II) against
a temporary golden store so each verify run costs milliseconds.
"""

import json

import pytest

from repro.cli import main
from repro.report.verify import EXIT_DIFF, EXIT_OK, EXIT_USAGE

FIGS = ["--figures", "bench_table1_config", "bench_table2_hardware"]


def run_update(tmp_path):
    return main([
        "verify", "--fidelity", "smoke", "--update",
        "--golden-dir", str(tmp_path), *FIGS,
    ])


class TestVerifyExitCodes:
    def test_update_then_verify_passes(self, tmp_path, capsys):
        assert run_update(tmp_path) == EXIT_OK
        assert (tmp_path / "smoke" / "table1_config.json").is_file()
        assert main([
            "verify", "--fidelity", "smoke",
            "--golden-dir", str(tmp_path), *FIGS,
        ]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS table1_config" in out
        assert "verify ok: 3 artifact(s)" in out

    def test_missing_golden_fails(self, tmp_path, capsys):
        assert main([
            "verify", "--fidelity", "smoke",
            "--golden-dir", str(tmp_path), *FIGS,
        ]) == EXIT_DIFF
        assert "no golden" in capsys.readouterr().out

    def test_perturbed_metric_fails_with_readable_diff(self, tmp_path,
                                                       capsys):
        assert run_update(tmp_path) == EXIT_OK
        golden_path = tmp_path / "smoke" / "table1_config.json"
        doc = json.loads(golden_path.read_text(encoding="utf-8"))
        doc["rows"][0]["cores"] += 1
        golden_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main([
            "verify", "--fidelity", "smoke",
            "--golden-dir", str(tmp_path), *FIGS,
        ]) == EXIT_DIFF
        out = capsys.readouterr().out
        assert "FAIL table1_config" in out
        assert "col cores" in out
        assert "PASS table2_hardware" in out
        assert "verify FAILED: 1 of 3" in out

    def test_corrupt_golden_fails(self, tmp_path, capsys):
        assert run_update(tmp_path) == EXIT_OK
        (tmp_path / "smoke" / "table2_prng.json").write_text(
            "{}", encoding="utf-8"
        )
        assert main([
            "verify", "--fidelity", "smoke",
            "--golden-dir", str(tmp_path), *FIGS,
        ]) == EXIT_DIFF
        assert "unreadable golden" in capsys.readouterr().out

    def test_fidelity_mismatch_fails_on_parameters(self, tmp_path, capsys):
        assert run_update(tmp_path) == EXIT_OK
        # stage the smoke goldens as ci goldens: scale differs -> FAIL
        ci_dir = tmp_path / "ci"
        ci_dir.mkdir()
        for path in (tmp_path / "smoke").glob("*.json"):
            ci_dir.joinpath(path.name).write_bytes(path.read_bytes())
        capsys.readouterr()
        assert main([
            "verify", "--fidelity", "ci",
            "--golden-dir", str(tmp_path), *FIGS,
        ]) == EXIT_DIFF
        assert "fidelity mismatch" in capsys.readouterr().out

    def test_unknown_figure_is_usage_error(self, tmp_path, capsys):
        assert main([
            "verify", "--golden-dir", str(tmp_path),
            "--figures", "bench_nonexistent",
        ]) == EXIT_USAGE
        assert "unknown figure" in capsys.readouterr().out

    def test_list_only(self, capsys):
        assert main(["verify", "--list"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "bench_fig8_cmrpo" in out and "bench_perf" not in out

    def test_session_checkpoint_path_passes_same_goldens(self, tmp_path,
                                                         capsys):
        """The checkpoint/resume execution path must match goldens
        written by the direct path — the session-equivalence gate."""
        figs = ["--figures", "bench_counter_cache"]
        assert main([
            "verify", "--fidelity", "smoke", "--update",
            "--golden-dir", str(tmp_path), *figs,
        ]) == EXIT_OK
        capsys.readouterr()
        assert main([
            "verify", "--fidelity", "smoke", "--session", "checkpoint",
            "--golden-dir", str(tmp_path), *figs,
        ]) == EXIT_OK
        out = capsys.readouterr().out
        assert "session=checkpoint" in out
        assert "verify ok" in out

    def test_missing_benchmarks_dir_is_usage_error(self, tmp_path, capsys):
        assert main([
            "verify", "--golden-dir", str(tmp_path),
            "--benchmarks-dir", str(tmp_path / "nowhere"), *FIGS,
        ]) == EXIT_USAGE
        assert "benchmarks" in capsys.readouterr().out


class TestOrphanedGoldens:
    def test_orphan_golden_fails_full_run(self, tmp_path, capsys,
                                          monkeypatch):
        from repro.report import verify as verify_mod
        # Shrink the registry to the two cheap modules for this test.
        monkeypatch.setattr(
            verify_mod, "BENCH_MODULES",
            ("bench_table1_config", "bench_table2_hardware"),
        )
        assert main([
            "verify", "--fidelity", "smoke", "--update",
            "--golden-dir", str(tmp_path),
        ]) == EXIT_OK
        orphan = tmp_path / "smoke" / "fig99_removed.json"
        orphan.write_text("{}", encoding="utf-8")
        capsys.readouterr()
        assert main([
            "verify", "--fidelity", "smoke",
            "--golden-dir", str(tmp_path),
        ]) == EXIT_DIFF
        assert "orphaned golden" in capsys.readouterr().out
        # --update on a full run prunes it again
        assert main([
            "verify", "--fidelity", "smoke", "--update",
            "--golden-dir", str(tmp_path),
        ]) == EXIT_OK
        assert "pruned" in capsys.readouterr().out
        assert not orphan.exists()

    def test_subset_run_ignores_other_goldens(self, tmp_path, capsys):
        assert run_update(tmp_path) == EXIT_OK
        (tmp_path / "smoke" / "unrelated.json").write_text(
            "{}", encoding="utf-8"
        )
        capsys.readouterr()
        assert main([
            "verify", "--fidelity", "smoke",
            "--golden-dir", str(tmp_path), *FIGS,
        ]) == EXIT_OK


class TestVerifyEnvHygiene:
    def test_ambient_engine_env_does_not_leak(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_ENGINE", "scalar")
        run_update(tmp_path)
        doc = json.loads(
            (tmp_path / "smoke" / "table1_config.json").read_text(
                encoding="utf-8"
            )
        )
        assert doc["engine"] == "batched"

    def test_env_is_restored_after_run(self, tmp_path, monkeypatch):
        import os
        monkeypatch.setenv("REPRO_BENCH_SCALE", "48")
        monkeypatch.delenv("REPRO_BENCH_FIDELITY", raising=False)
        run_update(tmp_path)
        assert os.environ["REPRO_BENCH_SCALE"] == "48"
        assert "REPRO_BENCH_FIDELITY" not in os.environ

    def test_update_records_fidelity_and_engine(self, tmp_path):
        run_update(tmp_path)
        doc = json.loads(
            (tmp_path / "smoke" / "table1_config.json").read_text(
                encoding="utf-8"
            )
        )
        assert doc["parameters"]["fidelity"] == "smoke"
        assert doc["scale"] == 96.0
        assert doc["engine"] == "batched"


@pytest.mark.parametrize("flag", [[], ["--engine", "scalar"]])
def test_verify_engine_flag_accepted(tmp_path, flag):
    # Analytic tables do not exercise the engines, but the flag must
    # round-trip through the CLI and env plumbing for both values.
    assert run_update(tmp_path) == EXIT_OK
    assert main([
        "verify", "--fidelity", "smoke",
        "--golden-dir", str(tmp_path), *FIGS, *flag,
    ]) == EXIT_OK
