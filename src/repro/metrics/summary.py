"""Statistical summaries used by the evaluation.

The paper's headline metric is *normalized execution time*: the ratio of
an approach's execution time to the Credit (CR) baseline's.  It also
reports the Pearson correlation between spinlock latency and execution
time across the slice sweep (Section II-B: "all pearson correlation
coefficients are larger than 0.9").
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

__all__ = ["mean", "normalized", "normalize_map", "pearson", "geomean"]


def mean(xs: Sequence[Optional[float]]) -> Optional[float]:
    """Arithmetic mean; ``None`` (no sample) for empty input or when any
    element is ``None``."""
    if not xs or None in xs:
        return None
    return sum(xs) / len(xs)


def geomean(xs: Sequence[float]) -> float:
    """Geometric mean; NaN for empty input, requires positives."""
    if not xs:
        return float("nan")
    if any(x <= 0 for x in xs):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def normalized(value: float, baseline: float) -> float:
    """value / baseline, the paper's normalized execution time."""
    if baseline == 0:
        raise ZeroDivisionError("baseline execution time is zero")
    return value / baseline


def normalize_map(values: Mapping[str, float], baseline_key: str = "CR") -> dict[str, float]:
    """Normalize a {approach: time} map by the named baseline entry."""
    if baseline_key not in values:
        raise KeyError(f"baseline {baseline_key!r} missing from {sorted(values)}")
    base = values[baseline_key]
    # Sorted keys: the reduction order (and output ordering) must not
    # depend on the caller's dict insertion order.
    return {k: normalized(values[k], base) for k in sorted(values)}


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length samples."""
    n = len(xs)
    if n != len(ys):
        raise ValueError(f"length mismatch: {n} vs {len(ys)}")
    if n < 2:
        raise ValueError("need at least two points")
    mx = mean(xs)
    my = mean(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    denom = math.sqrt(sxx * syy)
    if denom == 0:
        raise ValueError("zero variance input")
    return sxy / denom
