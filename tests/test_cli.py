"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "black"
        assert args.scheme == "drcat"
        assert args.threshold == 32768

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "doom"])

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "magic"])


FAST = ["--scale", "128", "--banks", "1", "--intervals", "1"]


class TestCommands:
    def test_run(self, capsys):
        assert main(["run", "--workload", "libq", *FAST]) == 0
        out = capsys.readouterr().out
        assert "CMRPO" in out and "drcat" in out

    def test_compare(self, capsys):
        assert main(["compare", "--workload", "libq", *FAST]) == 0
        out = capsys.readouterr().out
        for scheme in ("pra", "sca", "prcat", "drcat"):
            assert scheme in out

    def test_attack(self, capsys):
        assert main(
            ["attack", "--kernel", "kernel02", "--mode", "light",
             "--scheme", "sca", *FAST]
        ) == 0
        assert "kernel02" in capsys.readouterr().out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "comm1" in out and "tigr" in out
        assert out.count("\n") >= 19

    def test_hardware_table(self, capsys):
        assert main(["hardware"]) == 0
        out = capsys.readouterr().out
        assert "sca_32" in out and "drcat_512" in out and "PRNG" in out

    def test_hardware_single_m(self, capsys):
        assert main(["hardware", "--counters", "64"]) == 0
        out = capsys.readouterr().out
        assert "sca_64" in out and "sca_32" not in out


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"


class TestStreamingCommands:
    def test_run_stream_prints_epoch_lines(self, capsys):
        assert main(["run", "--workload", "libq", "--stream", *FAST,
                     "--intervals", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("epoch ") == 2
        assert "eto=" in out and "CMRPO" in out

    def test_stream_result_matches_batch(self, capsys):
        args = ["run", "--workload", "libq", "--json", *FAST]
        assert main(args) == 0
        batch = capsys.readouterr().out
        assert main([*args, "--stream"]) == 0
        streamed = capsys.readouterr().out
        # Same JSON document after the per-epoch progress lines.
        json_part = "\n".join(
            line for line in streamed.splitlines()
            if not line.startswith("epoch ")
        ) + "\n"
        assert json_part == batch

    def test_snapshot_then_resume_matches_batch(self, tmp_path, capsys):
        args = ["run", "--workload", "libq", "--scheme", "sca", *FAST]
        assert main([*args, "--json"]) == 0
        batch_out = capsys.readouterr().out
        import json as json_mod

        batch = json_mod.loads(batch_out)
        snap = tmp_path / "half.json"
        assert main([*args, "--snapshot-at", "250000",
                     "--snapshot-to", str(snap)]) == 0
        assert "snapshot at" in capsys.readouterr().out
        assert snap.is_file()
        assert main(["resume", str(snap), "--json"]) == 0
        resumed_out = capsys.readouterr().out
        resumed = json_mod.loads(resumed_out.split("\n", 1)[1])
        assert resumed == batch

    def test_snapshot_at_requires_destination(self, capsys):
        assert main(["run", "--workload", "libq", *FAST,
                     "--snapshot-at", "1000"]) == 2
        assert "--snapshot-to" in capsys.readouterr().out

    def test_snapshot_to_alone_is_an_error(self, tmp_path, capsys):
        """--snapshot-to without --snapshot-at (and no checkpoint_every
        spec policy) must fail loudly, not silently skip the snapshot."""
        assert main(["run", "--workload", "libq", *FAST,
                     "--snapshot-to", str(tmp_path / "s.json")]) == 2
        assert "--snapshot-at" in capsys.readouterr().out
        assert not (tmp_path / "s.json").exists()

    def test_resume_missing_file_is_error(self, capsys):
        assert main(["resume", "/nonexistent/snap.json"]) == 2
        assert "error" in capsys.readouterr().out

    def _half_snapshot(self, tmp_path, capsys, scheme="sca"):
        import json as json_mod

        snap = tmp_path / "half.json"
        assert main(["run", "--workload", "libq", "--scheme", scheme, *FAST,
                     "--snapshot-at", "250000",
                     "--snapshot-to", str(snap)]) == 0
        capsys.readouterr()
        return snap, json_mod.loads(snap.read_text())

    def test_resume_malformed_snapshot_is_error(self, tmp_path, capsys):
        import json as json_mod

        snap, doc = self._half_snapshot(tmp_path, capsys)
        del doc["core"]["memory"]
        snap.write_text(json_mod.dumps(doc))
        assert main(["resume", str(snap)]) == 2
        assert "error: malformed snapshot: missing field 'memory'" in \
            capsys.readouterr().out

    def test_resume_malformed_scheme_state_is_error(self, tmp_path, capsys):
        import json as json_mod

        snap, doc = self._half_snapshot(tmp_path, capsys, scheme="ccache")
        doc["core"]["memory"]["schemes"][0]["memory_counters"].append([1 << 20, 7])
        snap.write_text(json_mod.dumps(doc))
        assert main(["resume", str(snap)]) == 2
        assert "error: ccache state field 'memory_counters'" in \
            capsys.readouterr().out

    def test_resume_sca_count_past_int64_is_error(self, tmp_path, capsys):
        """A count the kernel's int64 registers cannot hold fails the
        restore, instead of overflowing when the run goes on."""
        import json as json_mod

        snap, doc = self._half_snapshot(tmp_path, capsys, scheme="sca")
        doc["core"]["memory"]["schemes"][0]["counts"][0] = 2**70
        snap.write_text(json_mod.dumps(doc))
        assert main(["resume", str(snap)]) == 2
        assert "error: sca state field 'counts'" in capsys.readouterr().out

    def test_resume_malformed_tree_state_is_error(self, tmp_path, capsys):
        import json as json_mod

        snap, doc = self._half_snapshot(tmp_path, capsys, scheme="drcat")
        tree = doc["core"]["memory"]["schemes"][0]["tree"]
        tree["count"][tree["counter_active"].index(1)] = 10**9
        snap.write_text(json_mod.dumps(doc))
        assert main(["resume", str(snap)]) == 2
        assert "error: tree state field 'count'" in capsys.readouterr().out

    def test_resume_engine_mismatch_is_error(self, tmp_path, capsys):
        import json as json_mod

        snap, doc = self._half_snapshot(tmp_path, capsys)
        doc["spec"]["engine"] = "scalar"
        snap.write_text(json_mod.dumps(doc))
        assert main(["resume", str(snap)]) == 2
        assert "engine" in capsys.readouterr().out


class TestCacheCommand:
    def test_stats_reports_both_stores(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_TRACE_STORE_DIR", str(tmp_path / "traces"))
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(tmp_path / "cells"))
        assert main(["cache", "stats", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["entries"] == 0
        assert doc["traces"]["entries"] == 0
        assert str(tmp_path) in doc["traces"]["root"]

    def test_clear_removes_trace_entries(self, capsys, tmp_path, monkeypatch):
        import json

        from repro.experiments import ExperimentSpec, SchemeSpec, run_spec
        from repro.sim import tracestore

        monkeypatch.setenv("REPRO_TRACE_STORE_DIR", str(tmp_path / "traces"))
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(tmp_path / "cells"))
        tracestore._STORES.clear()
        run_spec(ExperimentSpec(
            scheme=SchemeSpec("sca"), workload="black",
            scale=96.0, n_banks=1, n_intervals=1,
        ))
        assert main(["cache", "stats", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["traces"]["entries"] == 1
        assert main(["cache", "clear", "--traces"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["traces"]["entries"] == 0
        tracestore._STORES.clear()

    def test_sweep_traces_follow_cache_dir(self, capsys, tmp_path,
                                           monkeypatch):
        """``--cache-dir`` places the trace store too, not only the
        results: nothing lands under the environment's default root."""
        from repro.experiments import ResultCache
        from repro.sim import tracestore

        monkeypatch.delenv("REPRO_TRACE_STORE_DIR", raising=False)
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(tmp_path / "default"))
        cache_dir = tmp_path / "x"
        tracestore._STORES.clear()
        assert main(["sweep", "--workloads", "libq", "--schemes", "sca",
                     *FAST, "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        tracestore._STORES.clear()
        results = ResultCache(cache_dir)
        traces = tracestore.TraceStore(cache_dir / "traces")
        assert results.stats()["entries"] == 1
        assert traces.stats()["entries"] == 1
        assert sorted(path.name for path in cache_dir.iterdir()) == \
            sorted([results.root.name, "traces"])
        assert not (tmp_path / "default").exists()

    @pytest.mark.parametrize("only", [["--results"], ["--traces"], []])
    def test_clear_keeps_what_no_store_owns(self, only, capsys, tmp_path,
                                            monkeypatch):
        """``clear`` deletes store partitions and journal segments, never
        a directory beside them (an unrelated ``D/important``, notes in
        the trace or journal directory)."""
        from repro.experiments import ResultCache
        from repro.server.journal import JOURNAL_DIR, Journal
        from repro.sim.tracestore import TraceStore

        monkeypatch.delenv("REPRO_TRACE_STORE_DIR", raising=False)
        root = tmp_path / "d"
        results = ResultCache(root)
        traces = TraceStore(root / "traces")
        for store in (results, traces):
            store.root.mkdir(parents=True)
            (store.root / "k-i0.meta.json").write_text("{}", encoding="utf-8")
        journal = Journal(root / JOURNAL_DIR, fsync=False)
        journal.record_submit("j00001-abababab", "run", "ab" * 32, 1,
                              {"spec": {}})
        journal.close()
        mine = [root / "important" / "a.txt",
                root / "traces" / "notes" / "b.txt",
                root / JOURNAL_DIR / "c.txt"]
        for path in mine:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("mine", encoding="utf-8")
        assert main(["cache", "clear", *only, "--cache-dir", str(root)]) == 0
        capsys.readouterr()
        assert all(path.read_text(encoding="utf-8") == "mine"
                   for path in mine)
        assert results.root.exists() == (only == ["--traces"])
        assert traces.root.exists() == (only == ["--results"])
        assert bool(journal.segments()) == bool(only)

    def test_stats_json_keys(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.delenv("REPRO_TRACE_STORE_DIR", raising=False)
        assert main(["cache", "stats", "--json", "--cache-dir",
                     str(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc) == ["journal", "results", "tmp_removed", "traces"]
        assert doc["traces"]["root"] == str(tmp_path / "traces")
        assert doc["journal"]["root"] == str(tmp_path / "journal")


class TestRobustnessFlags:
    """--max-retries / --cell-timeout / --keep-going / --report."""

    @pytest.fixture(autouse=True)
    def clean_faults(self, monkeypatch):
        from repro.testing.faults import ENV_VAR, reset_faults

        monkeypatch.delenv(ENV_VAR, raising=False)
        reset_faults()
        yield
        reset_faults()

    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.max_retries == 2
        assert args.cell_timeout is None
        assert args.keep_going is False
        assert args.report is None
        args = build_parser().parse_args(
            ["plan", "--run", "--keep-going", "--max-retries", "0",
             "--cell-timeout", "30"]
        )
        assert args.keep_going and args.max_retries == 0
        assert args.cell_timeout == 30.0

    def test_injected_fault_retried_transparently(self, capsys,
                                                  monkeypatch):
        from repro.testing.faults import ENV_VAR, reset_faults

        monkeypatch.setenv(ENV_VAR, "session.advance:raise:51")
        reset_faults()
        assert main(["sweep", "--workloads", "libq",
                     "--schemes", "sca", "drcat", *FAST]) == 0
        assert "libq/drcat" in capsys.readouterr().out

    def test_permanent_failure_exits_nonzero_with_summary(
        self, capsys, tmp_path, monkeypatch
    ):
        import json

        from repro.testing.faults import ENV_VAR, reset_faults

        monkeypatch.setenv(ENV_VAR, "session.advance:raise:52")
        reset_faults()
        report_path = tmp_path / "report.json"
        assert main(["sweep", "--workloads", "libq",
                     "--schemes", "sca", "drcat", *FAST,
                     "--keep-going", "--max-retries", "0",
                     "--report", str(report_path)]) == 1
        out = capsys.readouterr().out
        assert "failed cells:" in out
        assert "InjectedFault" in out
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        assert doc["ok"] is False
        assert doc["counts"] == {"ok": 1, "failed": 1}

    def test_keep_going_report_on_success(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "report.json"
        assert main(["sweep", "--workloads", "libq", "--schemes", "sca",
                     *FAST, "--keep-going", "--report", str(report_path),
                     "--json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["libq/sca"] is not None
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        assert doc["ok"] is True and doc["counts"] == {"ok": 1}

    def test_plan_run_keep_going(self, capsys, tmp_path, monkeypatch):
        import json

        from repro.testing.faults import ENV_VAR, reset_faults

        plan_doc = {
            "kind": "repro-experiment-plan",
            "plan_version": 1,
            "base": {
                "scheme": {"kind": "drcat", "params": {}, "label": None},
                "workload": "libq", "scale": 128.0, "n_banks": 1,
                "n_intervals": 1,
            },
            "axes": [["scheme", [
                {"kind": "sca", "params": {}, "label": None},
                {"kind": "drcat", "params": {}, "label": None},
            ]]],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan_doc), encoding="utf-8")
        monkeypatch.setenv(ENV_VAR, "session.advance:raise:53")
        reset_faults()
        assert main(["plan", "--spec", str(plan_path), "--run",
                     "--keep-going", "--max-retries", "0", "--json"]) == 1
        out = capsys.readouterr().out
        cells = json.loads(out)
        assert [c["result"] is None for c in cells] == [True, False]
