"""Check a rendered figure bundle against a golden store.

CI's figures job renders the ci goldens into an HTML bundle and then
runs this check: every golden artifact must have exactly one entry in
the bundle's ``index.html`` and an SVG file beside it.  Run it from the
repository root after rendering::

    python -m repro figures --html --from benchmarks/golden/ci \\
        --out /tmp/figures-ci --golden-overlay --golden-dir benchmarks/golden/ci
    python tests/ci/index_complete.py /tmp/figures-ci [benchmarks/golden/ci]

Exits 1, naming the missing or duplicated entries and the missing SVG
files, when the bundle is incomplete.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path


def problems(bundle: Path, golden: Path) -> tuple[list[str], list[str], list[str], int, int]:
    """Missing index entries, duplicated ones and missing SVGs, plus the
    golden artifact and index entry counts."""
    names = sorted(path.stem for path in golden.glob("*.json"))
    indexed = re.findall(r'data-artifact="([^"]+)"', (bundle / "index.html").read_text())
    missing = [name for name in names if name not in indexed]
    dupes = [name for name in set(indexed) if indexed.count(name) > 1]
    svgs = [name for name in names if not (bundle / f"{name}.svg").is_file()]
    return missing, dupes, svgs, len(names), len(indexed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bundle", type=Path, help="directory holding index.html and the SVGs")
    parser.add_argument("golden", type=Path, nargs="?", default=Path("benchmarks/golden/ci"),
                        help="golden store whose artifacts must all be indexed")
    args = parser.parse_args(argv)
    missing, dupes, svgs, n_golden, n_indexed = problems(args.bundle, args.golden)
    if missing or dupes or svgs:
        print(f"missing index entries: {missing}")
        print(f"duplicate index entries: {dupes}")
        print(f"missing SVG files: {svgs}")
        return 1
    print(f"index complete: {n_golden} artifacts, {n_indexed} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
