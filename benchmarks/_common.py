"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (see
DESIGN.md §4).  Default configurations are scaled down — fewer nodes,
shorter horizons — but preserve the paper's over-commitment ratio
(4 VMs x 8 VCPUs per 8-core node) and communication structure, so the
normalized-execution-time *shapes* match.  Set ``REPRO_FULL=1`` — or
pass ``--full-scale`` to pytest (the conftest maps it onto the same
environment switch) — for paper-scale sweeps (slow: hours; the
single-cell Table-I trace benchmark is the exception, sized to finish
inside a CI smoke job even at full scale).

Grid benchmarks are shims over the grids declared in
:mod:`repro.experiments.grids`: :func:`bench_grid` builds a grid's cells
at the bench's scale, executes them through the shared sweep runner
(:mod:`repro.experiments.runner`), emits the grid's table and asserts its
claims.  ``REPRO_JOBS=N`` fans the cells over N worker processes
(bit-identical to serial), and ``REPRO_BENCH_CACHE=1`` re-uses cached
cells (off by default so benchmark timings stay honest).

Benchmarks run each simulation exactly once through
``benchmark.pedantic`` (a cloud-scale discrete-event run is seconds long
and deterministic; statistical repetition adds nothing) and print the
regenerated table rows so `pytest benchmarks/ --benchmark-only -s`
reproduces the paper's figures as text.  ``emit`` additionally writes
each table as ``BENCH_<name>.json`` under ``REPRO_BENCH_DIR`` (default
``benchmarks/results/``) so the perf trajectory is machine-readable.
"""

from __future__ import annotations

import json
import os
import re

from repro.experiments.grids import GRIDS
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_sweep
from repro.workloads.npb import NPB_NAMES

__all__ = [
    "full_scale",
    "fig_nodes",
    "fig_apps",
    "fig_slices_ms",
    "type_b_scale",
    "run_once",
    "run_grid",
    "bench_grid",
    "emit",
]


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL", "0") == "1"


def fig_nodes() -> list[int]:
    """Physical-node scales for the Fig. 1/10 sweeps."""
    return [2, 4, 8, 16, 32] if full_scale() else [2, 4]


def fig_apps(default=("lu", "is", "cg")) -> list[str]:
    """NPB kernels to sweep: ``default``, or all six at full scale."""
    return list(NPB_NAMES if full_scale() else default)


def fig_slices_ms() -> list[float]:
    """Fig. 5 slice ladder (paper: 30 down to 0.1 ms)."""
    if full_scale():
        return [30, 24, 18, 12, 6, 1, 0.6, 0.3, 0.15, 0.1]
    return [30, 12, 6, 1, 0.3]


def type_b_scale() -> dict:
    """Platform size and horizon of the type-B figures (Figs. 11-14)."""
    return dict(n_nodes=32, horizon_s=30.0) if full_scale() else dict(n_nodes=6, horizon_s=8.0)


def run_once(benchmark, fn, *args, **kwargs):
    """Run a whole-simulation benchmark exactly once, deterministically."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def run_grid(benchmark, specs, jobs=None, use_cache=None):
    """Execute a grid of ``RunSpec`` cells through the shared sweep runner.

    The whole sweep is timed as one pedantic round.  Any failed cell
    fails the benchmark with its structured error record.  Returns the
    ``RunResult`` list in spec order.
    """
    if jobs is None:
        jobs = int(os.environ.get("REPRO_JOBS", "1"))
    if use_cache is None:
        use_cache = os.environ.get("REPRO_BENCH_CACHE", "0") == "1"
    results = benchmark.pedantic(
        lambda: run_sweep(specs, jobs=jobs, use_cache=use_cache),
        rounds=1,
        iterations=1,
    )
    failed = [r for r in results if not r.ok]
    assert not failed, f"{len(failed)} cells failed; first: {failed[0].error}"
    return results


def bench_grid(benchmark, grid: str, *cell_params: dict, name: str | None = None) -> None:
    """Run a grid with one ``cells(**params)`` call per dict of
    ``cell_params``, emit its table as ``BENCH_<name or grid>.json`` and
    assert that every claim holds."""
    g = GRIDS[grid]
    results = run_grid(benchmark, [s for params in cell_params for s in g.cells(**params)])
    emit(*g.table(results), name=name or grid)
    assert g.claims(results) == []


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
    payload = {
        "title": title,
        "headers": list(headers),
        "rows": [list(r) for r in rows],
        "full_scale": full_scale(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=str)
