"""The served-run half of CI's ``server-crash`` legs.

Each leg runs a plan and one multi-epoch run job on a real ``repro
serve`` process, kills or drains it, and restarts it on the same cache
directory.  This script does the run job's part::

    python tests/ci/serve_run_leg.py submit BASE JOB_FILE
    python tests/ci/serve_run_leg.py wait CACHE_DIR [--cell]
    python tests/ci/serve_run_leg.py check BASE [--job-file JOB_FILE]
                                         [--resumed]
    python tests/ci/serve_run_leg.py stopped CACHE_DIR

``submit`` posts the run and writes its job id to ``JOB_FILE``;
``wait`` returns once the run's worker has stored a ``"serve"``
checkpoint (with ``--cell``, once a plan cell's result has landed as
well); ``check`` waits for the job of ``JOB_FILE`` (or resubmits the
run when none is given) and byte-compares its result with ``run_spec``
executed here, and ``--resumed`` also asserts that the server resumed
a run from a stored checkpoint; ``stopped`` asserts that a drain left
the run unfinished beside its checkpoint.  Run it from the repository
root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.request
from pathlib import Path

from repro.experiments import ExperimentSpec, ResultCache, SchemeSpec, run_spec
from repro.experiments.pool import SNAPSHOT_TAG

#: Four times the length of one cell of the legs' plan, so a kill timed
#: by the plan's first cell still lands mid-run.
SPEC = ExperimentSpec(scheme=SchemeSpec("drcat"), workload="libq",
                      scale=96.0, n_banks=8, n_intervals=128, seed=7)

TIMEOUT_S = 300.0


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as resp:
        return json.loads(resp.read())


def _post_run(base: str) -> str:
    req = urllib.request.Request(
        base + "/v1/runs", data=json.dumps({"spec": SPEC.to_dict()}).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read())["job"]


def submit(args) -> None:
    """Post the run; write its job id to the job file."""
    job = _post_run(args.base)
    Path(args.job_file).write_text(job + "\n", encoding="utf-8")
    print("run job:", job)


def wait(args) -> None:
    """Wait for the run's checkpoint (and with ``--cell`` a cell result)."""
    cache = ResultCache(args.cache_dir)
    deadline = time.monotonic() + TIMEOUT_S
    while True:
        checkpointed = cache.get_snapshot(SPEC, SNAPSHOT_TAG) is not None
        cells = cache.stats()["entries"]
        if checkpointed and (cells or not args.cell):
            print("checkpoint stored; results:", cells)
            return
        assert time.monotonic() < deadline, "no checkpoint landed"
        time.sleep(0.1)


def check(args) -> None:
    """Wait for the run's job; byte-compare its result with run_spec."""
    if args.job_file:
        job = Path(args.job_file).read_text(encoding="utf-8").strip()
    else:
        job = _post_run(args.base)  # dedup, cache hit or a fresh run
    print("run job:", job)
    deadline = time.monotonic() + TIMEOUT_S
    while (doc := _get(f"{args.base}/v1/jobs/{job}"))["status"] not in (
            "done", "failed"):
        assert time.monotonic() < deadline, "run job timed out"
        time.sleep(0.5)
    assert doc["status"] == "done", doc.get("error")
    recovery = _get(args.base + "/v1/health")["recovery"]
    print("recovery:", recovery)
    if args.resumed:
        assert recovery["resumed_from_snapshot"] >= 1, \
            "the run did not resume from its checkpoint"
    served = json.dumps(doc["result"], sort_keys=True, indent=1)
    direct = json.dumps(run_spec(SPEC).to_dict(), sort_keys=True, indent=1)
    assert served == direct, "served run differs from run_spec"
    print(f"run byte-identical: {len(served)} bytes")


def stopped(args) -> None:
    """A drain stopped the run: its checkpoint is stored, no result."""
    cache = ResultCache(args.cache_dir)
    assert cache.get_snapshot(SPEC, SNAPSHOT_TAG) is not None, "no checkpoint"
    assert cache.get(SPEC) is None, "the run finished"
    print("run stopped mid-flight beside its checkpoint")


def main(argv: list[str]) -> int:
    """Parse the subcommand and run it."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    cmd = commands.add_parser("submit")
    cmd.add_argument("base")
    cmd.add_argument("job_file")
    cmd.set_defaults(fn=submit)
    cmd = commands.add_parser("wait")
    cmd.add_argument("cache_dir")
    cmd.add_argument("--cell", action="store_true")
    cmd.set_defaults(fn=wait)
    cmd = commands.add_parser("check")
    cmd.add_argument("base")
    cmd.add_argument("--job-file")
    cmd.add_argument("--resumed", action="store_true")
    cmd.set_defaults(fn=check)
    cmd = commands.add_parser("stopped")
    cmd.add_argument("cache_dir")
    cmd.set_defaults(fn=stopped)
    args = parser.parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
