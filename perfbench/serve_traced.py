"""Launch ``repro serve`` with the layer wrappers installed.

Usage: ``python perfbench/serve_traced.py OUT [repro serve options]``.
Runs the ordinary ``repro serve`` command in this process after
:func:`spans.install` (including the server-only journal and checkpoint
wrappers).  When the server has drained after SIGTERM, it writes the
per-layer summary and the lock counters to ``OUT`` as JSON, and every
span to ``OUT`` with ``.spans.jsonl`` appended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    from repro.cli import main as repro_main
    from repro.locking import lock_stats

    recorder = spans.Recorder()
    tracer = spans.install(recorder, server=True)
    try:
        code = repro_main(["serve", *argv[1:]])
    finally:
        tracer.uninstall()
    out.write_text(json.dumps({
        "summary": spans.summarize(recorder.spans),
        "locks": lock_stats(),
    }), encoding="utf-8")
    recorder.dump(str(out) + ".spans.jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
