"""Run settings travel as one value, never through the process environment.

``RunContext.from_env`` is the one parser of the run knobs; everything
below an entry point receives the parsed value.  The AST scan pins the
other half of that contract: no module of the package writes
``os.environ``.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.report.config import (
    BenchConfig,
    EnvConfigError,
    RunContext,
    default_benchmarks_dir,
    store_roots,
)
from repro.testing.faults import FaultConfigError

SRC = Path(repro.__file__).parent

#: ``os.environ`` methods that change the environment.
_WRITERS = {"update", "pop", "popitem", "setdefault", "clear"}


def _is_environ(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            and isinstance(node.value, ast.Name) and node.value.id == "os") \
        or (isinstance(node, ast.Name) and node.id == "environ")


def _env_writes(tree) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_environ(node.value) \
                and isinstance(node.ctx, (ast.Store, ast.Del)):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if (func.attr in _WRITERS and _is_environ(func.value)) or (
                func.attr in ("putenv", "unsetenv")
                and isinstance(func.value, ast.Name) and func.value.id == "os"
            ):
                lines.append(node.lineno)
    return lines


def test_no_module_writes_the_environment():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = _env_writes(ast.parse(path.read_text(encoding="utf-8")))
        if lines:
            found[str(path.relative_to(SRC))] = lines
    assert not found, f"os.environ writes under src/repro: {found}"


@pytest.mark.parametrize("code", [
    "os.environ['K'] = 'v'", "del os.environ['K']", "os.environ.update(K='v')",
    "os.environ.pop('K')", "os.environ.setdefault('K', 'v')",
    "os.environ.clear()", "os.putenv('K', 'v')", "os.unsetenv('K')",
])
def test_the_scan_sees_each_kind_of_write(code):
    assert _env_writes(ast.parse(code)) == [1]


def test_reads_are_not_writes():
    assert _env_writes(ast.parse("os.environ.get('K'); os.environ['K']")) == []


class TestFromEnv:
    def test_defaults(self, tmp_path):
        ctx = RunContext.from_env({"REPRO_BENCH_CACHE_DIR": str(tmp_path)})
        assert ctx == RunContext(session="direct",
                                 trace_store=str(tmp_path / "traces"),
                                 faults="")

    def test_each_knob(self, tmp_path):
        ctx = RunContext.from_env({
            "REPRO_SESSION_MODE": "checkpoint",
            "REPRO_TRACE_STORE_DIR": str(tmp_path),
            "REPRO_FAULTS": " cache.put:raise:3 ",
        })
        assert ctx == RunContext("checkpoint", str(tmp_path), "cache.put:raise:3")
        assert RunContext.from_env({"REPRO_TRACE_STORE": "0"}).trace_store is None

    def test_malformed_values_fail_at_the_entry_point(self):
        with pytest.raises(EnvConfigError, match="REPRO_SESSION_MODE"):
            RunContext.from_env({"REPRO_SESSION_MODE": "sideways"})
        with pytest.raises(EnvConfigError, match="REPRO_TRACE_STORE"):
            RunContext.from_env({"REPRO_TRACE_STORE": "maybe"})
        with pytest.raises(FaultConfigError):
            RunContext.from_env({"REPRO_FAULTS": "nowhere:raise"})

    def test_bench_config_carries_the_context(self, tmp_path):
        env = {"REPRO_BENCH_CACHE_DIR": str(tmp_path),
               "REPRO_SESSION_MODE": "checkpoint"}
        config = BenchConfig.from_env(env)
        assert config.context == RunContext.from_env(env)
        assert config.cache_dir == str(tmp_path)
        hash(config)  # a functools.cache key


class TestStoreRoots:
    def test_cache_dir_beats_the_environment(self, tmp_path):
        env = {"REPRO_BENCH_CACHE_DIR": str(tmp_path / "env")}
        assert store_roots(str(tmp_path / "flag"), env) == (
            tmp_path / "flag", tmp_path / "flag" / "traces")
        assert store_roots(None, env)[0] == tmp_path / "env"

    def test_trace_dir_override(self, tmp_path):
        env = {"REPRO_TRACE_STORE_DIR": str(tmp_path / "tr")}
        assert store_roots(str(tmp_path), env) == (tmp_path, tmp_path / "tr")

    def test_checkout_default(self):
        assert store_roots(None, {})[0] == \
            default_benchmarks_dir() / "results" / "sweep_cache"

    def test_context_trace_store_follows_cache_dir(self, tmp_path):
        env = {"REPRO_BENCH_CACHE_DIR": str(tmp_path / "env")}
        context = RunContext.from_env(env, cache_dir=str(tmp_path / "flag"))
        assert context.trace_store == str(tmp_path / "flag" / "traces")
        assert RunContext.from_env(env).trace_store == \
            str(tmp_path / "env" / "traces")

    def test_trace_store_dir_beats_cache_dir(self, tmp_path):
        env = {"REPRO_TRACE_STORE_DIR": str(tmp_path / "tr")}
        context = RunContext.from_env(env, cache_dir=str(tmp_path / "flag"))
        assert context.trace_store == str(tmp_path / "tr")
