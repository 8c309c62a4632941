"""The served-plan half of CI's ``server-crash`` legs.

Each leg submits a plan to a real ``repro serve`` process (and, for the
kill and chaos legs, kills it and restarts it on the same cache
directory); this script renders the plans and checks the results::

    python tests/ci/serve_plan_leg.py render PLAN_FILE [--small]
    python tests/ci/serve_plan_leg.py submit BASE PLAN_FILE JOB_FILE
    python tests/ci/serve_plan_leg.py check BASE PLAN_FILE
                                          [--job-file JOB_FILE]
                                          [--fresh] [--recovered]

``render`` writes the legs' 6-cell plan (cells sized to about 4 s each,
so a kill lands mid-plan), or with ``--small`` the 3-cell plan of the
equivalence leg, as a ``POST /v1/plans`` document; ``submit`` posts it
and writes the job id to ``JOB_FILE``; ``check`` waits for the job of
``JOB_FILE`` (or submits the plan when none is given) and byte-compares
its results with ``run_plan`` executed here.  ``--fresh`` also asserts
that every cell simulated on the server, and ``--recovered`` that the
server replayed its journal and finished the job of the previous
incarnation from simulated and cached cells.  Run it from the
repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.request
from pathlib import Path

from repro.experiments import ExperimentSpec, Plan, SchemeSpec, run_plan

TIMEOUT_S = 300.0


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as resp:
        return json.loads(resp.read())


def _post_plan(base: str, plan_file: str) -> str:
    req = urllib.request.Request(
        base + "/v1/plans", data=Path(plan_file).read_bytes(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read())["job"]


def render(args) -> None:
    """Write the legs' plan document."""
    if args.small:
        base = ExperimentSpec(scheme=SchemeSpec("drcat"), workload="libq",
                              scale=96.0, n_banks=1, n_intervals=2)
        plan = Plan.grid(base, seed=[1, 2, 3])
    else:
        base = ExperimentSpec(scheme=SchemeSpec("drcat"), workload="libq",
                              scale=96.0, n_banks=8, n_intervals=32)
        plan = Plan.grid(base, seed=[1, 2, 3, 4, 5, 6])
    Path(args.plan_file).write_text(json.dumps({"plan": plan.to_dict()}),
                                    encoding="utf-8")
    print(f"plan: {len(plan)} cells -> {args.plan_file}")


def submit(args) -> None:
    """Post the plan; write its job id to the job file."""
    job = _post_plan(args.base, args.plan_file)
    Path(args.job_file).write_text(job + "\n", encoding="utf-8")
    print("plan job:", job)


def check(args) -> None:
    """Wait for the plan's job; byte-compare its results with run_plan."""
    if args.recovered:
        recovery = _get(args.base + "/v1/health")["recovery"]
        print("recovery:", recovery)
        assert recovery["replayed"] >= 1, "restart did not replay the journal"
    if args.job_file:
        job = Path(args.job_file).read_text(encoding="utf-8").strip()
    else:
        job = _post_plan(args.base, args.plan_file)
    print("plan job:", job)
    deadline = time.monotonic() + TIMEOUT_S
    while (doc := _get(f"{args.base}/v1/jobs/{job}"))["status"] not in (
            "done", "failed"):
        assert time.monotonic() < deadline, "plan job timed out"
        time.sleep(0.5)
    assert doc["status"] == "done", doc.get("error")
    plan = Plan.from_dict(
        json.loads(Path(args.plan_file).read_text(encoding="utf-8"))["plan"])
    # A job born done from the cache carries no report.
    counts = doc["report"]["counts"] if "report" in doc else None
    print("cell counts:", counts)
    if args.fresh:
        assert counts == {"ok": len(plan)}, "a cell did not simulate"
    if args.recovered:
        assert doc["recovered"] is True
        assert sum(counts.values()) == len(plan)
        assert set(counts) <= {"ok", "cached"}, counts
    served = json.dumps(doc["results"], sort_keys=True, indent=1)
    direct = json.dumps([r.to_dict() for r in run_plan(plan)],
                        sort_keys=True, indent=1)
    assert served == direct, "served plan results differ from run_plan"
    print(f"plan byte-identical: {len(served)} bytes x {len(plan)} cells")


def main(argv: list[str]) -> int:
    """Parse the subcommand and run it."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    cmd = commands.add_parser("render")
    cmd.add_argument("plan_file")
    cmd.add_argument("--small", action="store_true")
    cmd.set_defaults(fn=render)
    cmd = commands.add_parser("submit")
    cmd.add_argument("base")
    cmd.add_argument("plan_file")
    cmd.add_argument("job_file")
    cmd.set_defaults(fn=submit)
    cmd = commands.add_parser("check")
    cmd.add_argument("base")
    cmd.add_argument("plan_file")
    cmd.add_argument("--job-file")
    cmd.add_argument("--fresh", action="store_true")
    cmd.add_argument("--recovered", action="store_true")
    cmd.set_defaults(fn=check)
    args = parser.parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
