"""Plain-text / CSV / Markdown tables for experiment output."""

from __future__ import annotations

import io
import math
from typing import Mapping, Sequence

from repro.metrics.summary import normalize_map

__all__ = [
    "format_table",
    "format_normalized",
    "format_metrics",
    "to_csv",
    "to_markdown",
]


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


def format_normalized(results: Mapping[str, float], baseline: str = "CR", title: str = "") -> str:
    """Render a {approach: time} map as normalized-vs-baseline rows.

    Division goes through :func:`repro.metrics.summary.normalize_map`, so a
    missing or zero baseline raises the same descriptive error everywhere
    normalization happens, instead of a bare ``KeyError``/``ZeroDivisionError``.
    """
    rows = list(normalize_map(results, baseline).items())
    return format_table(["approach", f"normalized vs {baseline}"], rows, title=title)


def format_metrics(registry, prefix: str = "", title: str = "") -> str:
    """Render a :class:`~repro.obs.registry.MetricsRegistry` snapshot (or a
    snapshot dict) as a metric/value table.

    Composite values (histogram dicts, nested node lists) are summarized by
    their size rather than dumped inline; use the snapshot itself for the
    full structure.
    """
    if hasattr(registry, "snapshot"):
        snap = registry.snapshot(prefix)
    else:
        snap = {k: v for k, v in registry.items() if k.startswith(prefix)}
    rows = []
    for name, value in snap.items():
        if isinstance(value, dict):
            value = f"<{len(value)} fields>"
        elif isinstance(value, list):
            value = f"<{len(value)} entries>"
        rows.append((name, value))
    return format_table(["metric", "value"], rows, title=title)


def to_csv(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Serialize a result table as CSV (RFC-4180 quoting)."""
    import csv

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(headers)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def to_markdown(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Serialize a result table as a GitHub-flavoured Markdown table."""
    cells = [[_cell(c) for c in row] for row in rows]
    lines = []
    if title:
        lines.append(f"**{title}**")
        lines.append("")
    lines.append("| " + " | ".join(str(h) for h in headers) + " |")
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in cells:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)
