"""Order statistics used by the benchmark (standard library only)."""

from __future__ import annotations

import math

# a tail percentile is reported only with at least this many samples beyond it
TAIL_BEYOND = 10


def tail_percentile(samples) -> tuple[int, float, int] | None:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it.

    Uses the nearest-rank definition: the q-th percentile of n sorted
    samples is the one at rank ceil(q * n / 100).  Returns (q, value,
    samples strictly beyond that rank), or None when there are too few
    samples for any such percentile.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    q = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, math.ceil(q * n / 100))
    return q, float(sorted(samples)[rank - 1]), n - rank
