"""Wall-clock perf micro-suite: ``BENCH_perf_*.json`` baselines for CI.

Each case runs a fixed, deterministic simulation workload twice:

1. a *throughput* repetition with **no profiler attached**, timed with a
   bare ``time.perf_counter`` pair around the run — this is the
   events/sec number the CI gate compares against the baseline, and it
   measures the engine's real hot path (the self-profiler's two clock
   reads per event would roughly halve it);
2. a *detail* repetition under :class:`repro.obs.profiler.SimProfiler`
   for the attribution axes — per-category callback time, max queue
   depth, and cancelled-event waste.

The simulated work is bit-reproducible, so both repetitions execute the
identical event sequence; only the wall-clock axis varies with the host.

Cases:

``engine``
    The bare event loop: self-rescheduling timer chains (via the
    fire-and-forget ``post_after`` fast path) plus a cancel-heavy chain,
    no cluster on top.  Measures raw queue throughput and the
    lazy-cancellation waste path.
``type_a_cr``
    A scaled-down evaluation-type-A world under Credit — the dominant CI
    workload shape (schedulers + guests + dom0 + network all live).
``type_a_atc``
    The same world under ATC, adding the Algorithm 1/2 control path.
``table1_cell``
    A short-horizon slice of one full-scale Table-I cell (32 nodes,
    128 VMs / 1024 VCPUs under ATC) — the configuration the paper's
    testbed evaluation uses, exercising queue depths two orders of
    magnitude beyond the type-A cases.

``python -m repro perf`` runs the suite, prints the report, writes one
``BENCH_perf_<case>.json`` per case, and (in CI) fails if any case's
events/sec regresses more than ``tolerance`` below the checked-in
``benchmarks/perf/baseline.json``.  Baselines are refreshed with
``python -m repro perf --write-baseline benchmarks/perf/baseline.json``
and are deliberately set *below* typical developer-machine throughput so
only real regressions (not runner jitter) trip the gate.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.obs.profiler import SimProfiler
from repro.sim.engine import Simulator

__all__ = [
    "CASES",
    "run_case",
    "run_suite",
    "write_results",
    "write_baseline",
    "check_baseline",
    "append_history",
    "default_tolerance",
]

#: Baseline-file schema version.
BASELINE_VERSION = 1


def default_tolerance() -> float:
    """Allowed fractional events/sec drop vs baseline (CI gate)."""
    return float(os.environ.get("REPRO_PERF_TOLERANCE", "0.15"))


def _merge(throughput: dict, detail: dict) -> dict:
    """Combine the raw-timed run (wall axis) with the profiled run (all
    attribution axes).  Both runs execute the same deterministic event
    sequence, so the detail rep's counts describe the throughput rep too.
    """
    return {
        "sim_time_ns": throughput["sim_time_ns"],
        "wall_s": throughput["wall_s"],
        "events": throughput["events"],
        "events_per_sec": (
            throughput["events"] / throughput["wall_s"]
            if throughput["wall_s"] > 0
            else 0.0
        ),
        "callback_s": detail["callback_s"],
        "categories": detail["categories"],
        "max_heap_depth": detail["max_heap_depth"],
        "cancelled_popped": detail["cancelled_popped"],
        "cancel_waste_ratio": detail["cancel_waste_ratio"],
    }


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
def _seed_engine_workload(sim: Simulator, hops: int) -> None:
    """Timer chains + a cancel-heavy chain, seeded onto ``sim``.

    Each chain reschedules one prebuilt closure (no per-hop lambda
    allocation) so the measurement is dominated by queue churn — the
    thing the case exists to gate — not by callback-side allocation.
    """
    n_chains = 50
    post = sim.post_after

    def make_chain(i: int) -> Callable[[], None]:
        delay = (i % 7 + 1) * 10
        n = hops

        def hop() -> None:
            nonlocal n
            n -= 1
            if n > 0:
                post(delay, hop, cat="chain")

        return hop

    for i in range(n_chains):
        post(i, make_chain(i), cat="chain")

    # Cancel-heavy pattern: every step schedules a timeout and cancels it,
    # exercising the lazy-deletion path the waste ratio measures.  These
    # stay on the cancellable ``after`` path by necessity.
    cancels = [hops]
    pending: list = [None]

    def noop() -> None:
        return None

    def cancelling() -> None:
        if pending[0] is not None:
            pending[0].cancel()
            pending[0] = None
        cancels[0] -= 1
        if cancels[0] > 0:
            pending[0] = sim.after(500, noop, cat="timeout")
            post(25, cancelling, cat="canceller")

    post(0, cancelling, cat="canceller")


def _case_engine(quick: bool) -> dict:
    """Raw event-loop churn."""
    hops = 400 if quick else 4000

    sim = Simulator()
    _seed_engine_workload(sim, hops)
    t0 = time.perf_counter()  # repro: ignore[RPR001]  (host wall-clock only)
    sim.run()
    wall_s = time.perf_counter() - t0  # repro: ignore[RPR001]  (host wall-clock only)
    throughput = {
        "sim_time_ns": sim.now,
        "wall_s": wall_s,
        "events": sim.events_processed,
    }

    sim2 = Simulator()
    prof = SimProfiler(sim2)
    _seed_engine_workload(sim2, hops)
    sim2.run()
    return _merge(throughput, prof.report())


def _run_type_a(scheduler: str, quick: bool) -> dict:
    from repro.experiments.scenarios import run_type_a

    kwargs = dict(
        rounds=1 if quick else 6,
        warmup_rounds=0,
        horizon_s=6.0 if quick else 60.0,
        seed=0,
    )
    t0 = time.perf_counter()  # repro: ignore[RPR001]  (host wall-clock only)
    value = run_type_a("is", scheduler, 2, **kwargs)
    wall_s = time.perf_counter() - t0  # repro: ignore[RPR001]  (host wall-clock only)
    throughput = {
        "sim_time_ns": value["sim_time_ns"],
        "wall_s": wall_s,
        "events": value["events"],
    }
    detail = run_type_a("is", scheduler, 2, profile=True, **kwargs)
    return _merge(throughput, detail["profile"])


def _case_table1_cell(quick: bool) -> dict:
    from repro.experiments.scenarios import run_table1_cell

    kwargs = dict(scheduler="ATC", seed=0, horizon_s=0.25 if quick else 1.0)
    t0 = time.perf_counter()  # repro: ignore[RPR001]  (host wall-clock only)
    value = run_table1_cell(**kwargs)
    wall_s = time.perf_counter() - t0  # repro: ignore[RPR001]  (host wall-clock only)
    throughput = {
        "sim_time_ns": value["sim_time_ns"],
        "wall_s": wall_s,
        "events": value["events"],
    }
    detail = run_table1_cell(profile=True, **kwargs)
    return _merge(throughput, detail["profile"])


#: name -> (case fn, repetitions).  The simulated work is deterministic, so
#: repeating only re-samples the wall-clock axis; ``run_case`` keeps the
#: fastest repetition (standard best-of-N noise rejection for short cases).
CASES: dict[str, tuple[Callable[[bool], dict], int]] = {
    "engine": (_case_engine, 5),
    "type_a_cr": (lambda quick: _run_type_a("CR", quick), 3),
    "type_a_atc": (lambda quick: _run_type_a("ATC", quick), 3),
    "table1_cell": (_case_table1_cell, 1),
}


def run_case(name: str, quick: bool = False) -> dict:
    """Execute one case (best of its configured repetitions)."""
    fn, repeats = CASES[name]
    best = None
    for _ in range(repeats):
        rec = fn(quick)
        if best is None or rec["events_per_sec"] > best["events_per_sec"]:
            best = rec
    return {"name": name, "quick": quick, **best}


def run_suite(names: Optional[Sequence[str]] = None, quick: bool = False) -> list[dict]:
    """Execute the selected cases (default: all, in catalogue order)."""
    if names is None:
        names = list(CASES)
    unknown = [n for n in names if n not in CASES]
    if unknown:
        raise KeyError(f"unknown perf case(s): {', '.join(unknown)}; known: {sorted(CASES)}")
    return [run_case(n, quick=quick) for n in names]


# ----------------------------------------------------------------------
# Emission + baseline gate
# ----------------------------------------------------------------------
def write_results(results: Sequence[dict], out_dir) -> list[Path]:
    """Write one ``BENCH_perf_<case>.json`` per case; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for rec in results:
        path = out / f"BENCH_perf_{rec['name']}.json"
        with path.open("w", encoding="utf-8") as fh:
            json.dump(rec, fh, indent=2, default=str)
        paths.append(path)
    return paths


def write_baseline(results: Sequence[dict], path) -> Path:
    """Record each case's measured events/sec as the new baseline."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": BASELINE_VERSION,
        "note": (
            "events/sec floors for the repro perf micro-suite; CI fails when a "
            "case drops more than the tolerance below its baseline.  Refresh "
            "with: python -m repro perf --write-baseline benchmarks/perf/baseline.json"
        ),
        "cases": {r["name"]: {"events_per_sec": r["events_per_sec"]} for r in results},
    }
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def append_history(results: Sequence[dict], path, label: Optional[str] = None) -> Path:
    """Append one JSON line of events/sec per case to the trend file.

    ``benchmarks/perf/history.jsonl`` accumulates one record per CI run,
    giving a greppable throughput trend alongside the hard baseline gate.
    ``label`` identifies the run (a commit SHA in CI; defaults to the
    ``GITHUB_SHA`` environment variable or ``"local"``).
    """
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "label": label or os.environ.get("GITHUB_SHA", "local"),
        "quick": bool(results and results[0].get("quick", False)),
        "events_per_sec": {
            r["name"]: round(r["events_per_sec"], 1) for r in results
        },
    }
    with path.open("a", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True)
        fh.write("\n")
    return path


def check_baseline(
    results: Sequence[dict], baseline_path, tolerance: Optional[float] = None
) -> list[str]:
    """Compare measured events/sec to the baseline; returns failure messages.

    A case regresses when ``measured < baseline * (1 - tolerance)``.  Cases
    missing from the baseline are reported (the baseline must be refreshed
    when the suite grows); baseline cases not measured are ignored.
    """
    tol = default_tolerance() if tolerance is None else tolerance
    with Path(baseline_path).open("r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    if baseline.get("version") != BASELINE_VERSION:
        return [f"baseline {baseline_path}: unsupported version {baseline.get('version')!r}"]
    cases = baseline.get("cases", {})
    failures = []
    for rec in results:
        ref = cases.get(rec["name"], {}).get("events_per_sec")
        if ref is None:
            failures.append(
                f"{rec['name']}: no baseline entry — refresh benchmarks/perf/baseline.json"
            )
            continue
        floor = ref * (1.0 - tol)
        if rec["events_per_sec"] < floor:
            failures.append(
                f"{rec['name']}: {rec['events_per_sec']:.0f} events/sec is below "
                f"{floor:.0f} (baseline {ref:.0f} - {tol:.0%} tolerance)"
            )
    return failures
