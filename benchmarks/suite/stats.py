"""Order statistics the suite reports: medians, percentiles, IQR, geomean."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (0..100), linear between the closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile (0 below 2 samples),
    as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def spread(values: Sequence[float]) -> float:
    """IQR as a share of the median: the run-to-run noise measure every
    bound in ``BENCHMARK.json`` is compared against."""
    middle = statistics.median(values)
    return iqr(values) / abs(middle) if middle else 0.0


def geomean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geomean of no samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail_rank(count: int) -> Optional[int]:
    """Highest whole percentile with at least ten samples beyond it, or
    None when there are too few samples for any tail above the median."""
    rank = int(100 * (1 - 10 / count)) if count else 0
    return rank if rank > 50 else None


def summary(values: Sequence[float]) -> Dict[str, float]:
    """n, median, IQR and the highest well-supported tail percentile."""
    out: Dict[str, float] = {"n": len(values),
                             "median": statistics.median(values),
                             "iqr": iqr(values)}
    rank = tail_rank(len(values))
    if rank is not None:
        out[f"p{rank}"] = percentile(values, rank)
    return out
