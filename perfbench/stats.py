"""Summary statistics for the benchmark: nearest-rank percentiles, the
tail-percentile rule and the quartile spread used to judge steadiness."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Callable, Optional, Sequence

# Percentiles a tail may be reported at, lowest first.
TAIL_CANDIDATES = ("50", "90", "95", "99", "99.9", "99.99")

# A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(n: int, pct: str) -> int:
    """1-based nearest rank of the pct-th percentile among n samples."""
    return max(1, math.ceil(Fraction(pct) * n / 100))


def percentile(values: Sequence[float], pct: str) -> float:
    """Nearest-rank percentile of a non-empty sequence; pct is a decimal string."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), pct) - 1]


def beyond(n: int, pct: str) -> int:
    """How many of n samples lie above the pct-th percentile's rank."""
    return n - _rank(n, pct)


def tail_percentile(n: int) -> Optional[str]:
    """The highest candidate percentile with at least MIN_BEYOND samples
    beyond it, or None when even the median has too few."""
    best = None
    for pct in TAIL_CANDIDATES:
        if beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def min_samples(pct: str) -> int:
    """The fewest samples for which pct satisfies the tail rule."""
    n = 1
    while beyond(n, pct) < MIN_BEYOND:
        n += 1
    return n


def block_percentile(
    samples: Sequence[float], pct: str, combine: Callable = statistics.median
) -> float:
    """The pct-th percentile within each of consecutive blocks, combined
    over the blocks (by default their median).

    The samples are cut, in the order taken, into as many blocks of at
    least min_samples(pct) as they fill (one block when there are fewer),
    the smallest block in which the percentile obeys the tail rule.
    """
    n = len(samples)
    blocks = max(1, n // min_samples(pct))
    return combine(
        [percentile(samples[i * n // blocks:(i + 1) * n // blocks], pct) for i in range(blocks)]
    )


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
