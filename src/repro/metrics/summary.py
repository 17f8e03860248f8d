"""Statistical summaries used by the evaluation.

Means of per-round samples, and the Pearson correlation the paper
reports between spinlock latency and execution time across the slice
sweep (Section II-B: "all pearson correlation coefficients are larger
than 0.9").  The grids form the paper's normalized execution times
themselves, dividing by a baseline cell (Credit for the paper's figures).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

__all__ = ["mean", "pearson"]


def mean(xs: Sequence[Optional[float]]) -> Optional[float]:
    """Arithmetic mean; ``None`` (no sample) for empty input or when any
    element is ``None``."""
    if not xs or None in xs:
        return None
    return sum(xs) / len(xs)


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
