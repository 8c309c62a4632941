"""Perf-trajectory figure: the repo-root ``BENCH_perf.json`` as a chart.

``benchmarks/bench_perf.py`` measures the engine and sweep-infrastructure
speedups every PR and writes a ``repro-perf-report`` document to the
repository root (CI uploads it as an artifact).  This module renders
that document as one horizontal-bar figure — the at-a-glance "how fast
is the hot path now" panel the HTML index appends after the paper
figures.

The report is a different document kind from figure artifacts (no rows/
columns contract), so it gets a dedicated loader here instead of a
registry renderer.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.figures.render import RenderedFigure
from repro.figures.svg import Series, grouped_bar_chart

#: Document discriminator of ``benchmarks/bench_perf.py`` reports.
PERF_KIND = "repro-perf-report"


def perf_speedup_rows(doc: dict) -> list[tuple[str, float]]:
    """(label, speedup) pairs extracted from one perf report document.

    Collects the per-scheme engine speedups plus the sweep-cache, trace-
    store, and pool-reuse multipliers — every "×" headline the perf
    bench gates.  Missing sections are simply absent (older reports).
    """
    rows: list[tuple[str, float]] = []
    for scheme, stats in sorted(doc.get("schemes", {}).items()):
        if "speedup_vs_scalar" in stats:
            rows.append((f"{scheme}: batched vs scalar",
                         float(stats["speedup_vs_scalar"])))
    cache = doc.get("sweep_cache", {})
    if "speedup" in cache:
        rows.append(("sweep cache: warm vs cold", float(cache["speedup"])))
    trace = doc.get("trace_sweep", {})
    if "cold_speedup_vs_off" in trace:
        rows.append(("trace store: cold vs off",
                     float(trace["cold_speedup_vs_off"])))
    if "warm_speedup_vs_off" in trace:
        rows.append(("trace store: warm vs off",
                     float(trace["warm_speedup_vs_off"])))
    pool = doc.get("sweep_pool", {})
    if "reuse_speedup" in pool:
        rows.append(("pool: reused vs cold spawn",
                     float(pool["reuse_speedup"])))
    return rows


def render_perf_report(path: str | Path) -> RenderedFigure:
    """Render ``BENCH_perf.json`` to the perf-trajectory figure.

    Raises ``ValueError`` when the document is not a perf report (the
    directory renderer downgrades that to a skip warning).
    """
    path = Path(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or doc.get("kind") != PERF_KIND:
        raise ValueError(f"{path}: not a {PERF_KIND!r} document")
    rows = perf_speedup_rows(doc)
    if not rows:
        raise ValueError(f"{path}: perf report carries no speedup figures")
    kwargs = doc.get("sim_kwargs", {})
    title = (
        "Performance trajectory — measured speedups "
        f"(workload={doc.get('workload', '?')}, "
        f"scale={kwargs.get('scale', '?')})"
    )
    svg = grouped_bar_chart(
        title,
        [label for label, _ in rows],
        [Series.make("speedup (x)", [v for _, v in rows])],
        y_label="speedup (x, log)",
        y_log=True,
        width=860,
    )
    return RenderedFigure(name="bench_perf", title=title, svg=svg,
                          source=path)
