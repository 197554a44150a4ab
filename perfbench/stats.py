"""Order statistics shared by the runner, the spread check and the tests."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, lowest first: every whole percentile from the
# median up, then 99.9.
TAIL_LADDER = tuple(float(p) for p in range(50, 100)) + (99.9,)
TAIL_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    """Nearest rank: the smallest rank with pct percent of n samples at or below it."""
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(pct / 100.0 * n, 6)))


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest ladder
    percentile that leaves at least ``TAIL_BEYOND`` samples above its rank.

    When even the median leaves fewer, the median is used.
    """
    ordered = sorted(values)
    n = len(ordered)
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= TAIL_BEYOND:
            chosen = pct
    rank = _rank(chosen, n)
    return chosen, ordered[rank - 1], n - rank


def op_medians(passes: list[list[float]]) -> list[float]:
    """Each op's median latency over passes that run the same ops in order."""
    return [statistics.median(samples) for samples in zip(*passes)]


def latency(passes: list[list[float]]) -> dict:
    """Latency percentiles of a run, robust to bursts of other load.

    Every sample is replaced by its op's median repetition before the
    percentiles are taken, so the percentile ranks count every sample but
    one slowed repetition cannot move them.
    """
    medians = op_medians(passes)
    samples = sorted(m for m in medians for _ in passes)
    pct, value, beyond = tail(samples)
    return {"p50": statistics.median(samples), "tail_pct": pct, "tail": value,
            "beyond": beyond, "samples": len(samples)}


def throughput(passes: list[list[float]]) -> float:
    """Ops per second of a pass in which every op takes its median latency."""
    medians = op_medians(passes)
    return len(medians) / sum(medians)


def relative_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf
