"""The repeat loop every workload measures with.

A run repeats one unit of identical work (a grid pass, or a round of
served jobs) until its time is up, so that each operation is measured
several times and host-noise bursts can be filtered out per operation.
"""

from __future__ import annotations

import math
import statistics

#: Midpoint-rule steps per order statistic in :func:`quantile`.
_STEPS = 64


def repeat(seconds: float, traced: bool, run_one, between=None) -> list:
    """Call ``run_one(traced_pass)`` until about ``seconds`` have passed.

    ``run_one`` returns ``(wall_seconds, payload)``; the result is the
    list of ``(traced_pass, wall_seconds, payload)``.  Untraced, every
    pass is untraced.  Traced, passes alternate untraced and traced and
    the loop always stops after a traced one, so the two kinds time the
    identical work.  A new pass starts only while at least half of one
    still fits in ``seconds`` of pass time.  ``between`` (if given) runs
    before the first pass and after each one, outside the pass timings
    and the time budget.
    """
    passes: list = []
    while True:
        if between is not None:
            between()
        this_traced = traced and len(passes) % 2 == 1
        wall, payload = run_one(this_traced)
        passes.append((this_traced, wall, payload))
        if traced and len(passes) % 2 == 1:
            continue
        walls = [p[1] for p in passes]
        if sum(walls) + statistics.mean(walls) / 2 >= seconds:
            break
    if between is not None:
        between()
    return passes


def fastest(passes: list, times_of) -> list[float]:
    """Per-operation minimum over the untraced passes.

    ``times_of(payload)`` gives one pass's per-operation times, in the
    same operation order for every pass.  Host noise from other tenants
    arrives in bursts of a few seconds and only ever adds time, so the
    fastest of an operation's repeats is its steadiest estimate.
    """
    plain = [times_of(p[2]) for p in passes if not p[0]]
    return [min(times) for times in zip(*plain)]


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-quantile of ``values``.

    A weighted mean of all order statistics; the weight of the ``i``-th
    smallest is the mass of Beta((n+1)q, (n+1)(1-q)) on ((i-1)/n, i/n].
    Operation latencies come in clusters (one per scheme), and a single
    order statistic jumps across the gap between two clusters when the
    seed shifts a few operations; the weighted mean moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    h = 1.0 / (n * _STEPS)

    def density(x: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(x)
                        + (b - 1) * math.log1p(-x))

    weights = [sum(density((i * _STEPS + k + 0.5) * h) for k in range(_STEPS))
               for i in range(n)]
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs)) / total
