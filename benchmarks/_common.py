"""Shared helpers for the benchmarks that are not grids.

The paper's figures are grids (:mod:`repro.experiments.grids`): ``repro
run GRID`` at the grid's defaults regenerates a figure and ``repro check
GRID`` asserts its claims (DESIGN.md §4).  The benches here cover what no
grid holds: Fig. 3 (test helpers, no scenario), Fig. 4 and the ATC
ablation (their cells take ``SchedulerParams`` objects, which are not
JSON) and Table I.

Benchmarks run each simulation exactly once through
``benchmark.pedantic`` (a cloud-scale discrete-event run is seconds long
and deterministic; statistical repetition adds nothing) and print the
regenerated table rows so `pytest benchmarks/ --benchmark-only -s`
reproduces them as text.  ``emit`` additionally writes each table as
``BENCH_<name>.json`` under ``REPRO_BENCH_DIR`` (default
``benchmarks/results/``) so the trajectory is machine-readable.
"""

from __future__ import annotations

import json
import os
import re

from repro.experiments.reporting import format_table

__all__ = ["run_once", "emit"]


def run_once(benchmark, fn, *args, **kwargs):
    """Run a whole-simulation benchmark exactly once, deterministically."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def _bench_name(title: str) -> str:
    """Slug a table title into a BENCH_<name>.json file stem."""
    slug = re.sub(r"[^A-Za-z0-9]+", "_", title).strip("_").lower()
    return slug or "table"


def emit(title: str, headers, rows, name: str | None = None) -> None:
    """Print a regenerated paper table and write it as BENCH_<name>.json."""
    print()
    print(format_table(headers, rows, title=title))
    out_dir = os.environ.get("REPRO_BENCH_DIR", os.path.join(os.path.dirname(__file__), "results"))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name or _bench_name(title)}.json")
    payload = {"title": title, "headers": list(headers), "rows": [list(r) for r in rows]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=str)
