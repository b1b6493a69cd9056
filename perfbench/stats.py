"""Summary statistics for the benchmark's samples."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

#: A tail percentile is reported only where at least this many samples
#: lie beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (0 < p <= 100)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def tail_percentile(samples: Sequence[float], p: float = 99.0) -> Tuple[float, float]:
    """``(percentile, value)`` for the highest percentile up to ``p`` that
    has at least :data:`MIN_BEYOND` samples beyond it.  With too few
    samples for any such tail the median is reported."""
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        rank = n - MIN_BEYOND
    if rank < math.ceil(n / 2):
        return 50.0, median(samples)
    return min(p, 100.0 * rank / n), sorted(samples)[rank - 1]
