"""Plain-text tables for experiment output."""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["format_table"]


def _cell(c) -> str:
    """A table cell: floats to 3 decimals, ``None`` and NaN as ``n/a``."""
    if c is None or (isinstance(c, float) and math.isnan(c)):
        return "n/a"
    return f"{c:.3f}" if isinstance(c, float) else str(c)


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Render an aligned ASCII table."""
    cells = [[str(h) for h in headers]] + [[_cell(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
