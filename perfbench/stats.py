"""Summary statistics shared by the benchmark's workloads.

Timings are reported as a median plus the highest percentile that still has
at least ten samples beyond it, always with the sample count. A failed,
cancelled or refused traversal counts as an infinite latency, so it misses
every latency limit.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: percentiles tried, highest first, by :func:`tail_percentile`
PERCENTILE_LADDER = (0.999, 0.99, 0.9)
#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (no interpolation); NaN when empty."""
    if not samples:
        return math.nan
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def tail_percentile(samples: Sequence[float]) -> Optional[tuple[float, float]]:
    """``(q, value)`` for the highest percentile in :data:`PERCENTILE_LADDER`
    with at least :data:`MIN_BEYOND` samples beyond it, or None when the
    sample is too small for any of them."""
    n = len(samples)
    for q in PERCENTILE_LADDER:
        if n * (1.0 - q) >= MIN_BEYOND - 1e-9:
            return q, quantile(samples, q)
    return None


def latency_samples(latencies: Sequence[float], failed: int) -> list[float]:
    """Completed latencies plus one +inf per failed attempt."""
    return list(latencies) + [math.inf] * failed


def failed_frac(attempted: int, failed: int) -> float:
    """Failed, cancelled or refused traversals per attempt."""
    if attempted <= 0:
        raise ValueError("failed_frac needs at least one attempt")
    return failed / attempted


def timing(samples: Sequence[float], unit: str, scale: float = 1.0) -> dict:
    """Median and tail of ``samples`` (multiplied by ``scale``) with the
    sample count, as printed in the run report."""
    out: dict = {"unit": unit, "n": len(samples), "p50": quantile(samples, 0.5) * scale}
    tail = tail_percentile(samples)
    if tail is not None:
        q, value = tail
        out[f"p{q * 100:g}"] = value * scale
    return out
