"""Workload table of the end-to-end simulator benchmark.

Each workload names one public scenario function of
:mod:`repro.experiments.scenarios` and the parameters it is called with.
The parameters are generated here from the workload seed; the scenario
receives nothing else.  Every workload keeps its *amount* of simulated
work nearly independent of the seed (over 10 seeds the interquartile
spread of event counts is 0.4-2.0%), so host time compares across
seeds.  That is why the 32-node cells run one fixed kernel rather than
the seed-drawn Table-I mix (whose event count swings 4x with the draw),
and why the service tenant stream is a fixed multiset of shapes whose
order and Poisson arrival times come from the seed.

Checks are on the scenario's result dict and on the shape of the world
the run started with (``shape``: ``{"vms": int, "vcpus": int}``); each
returns a list of failure messages, empty when the result is correct.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

__all__ = ["Workload", "WORKLOADS", "churn_trace", "nonfinite"]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Function name in :mod:`repro.experiments.scenarios`.
    scenario: str
    #: ``seed -> scenario kwargs``; keyword overrides are merged last.
    make_params: Callable[[int], dict]
    check: Callable[[dict, dict], list]

    def params(self, seed: int, **overrides) -> dict:
        return {**self.make_params(seed), **overrides}


def nonfinite(value, path: str = "result") -> list:
    """Paths of every NaN/inf float nested in ``value``."""
    if isinstance(value, float):
        return [] if math.isfinite(value) else [f"{path} = {value}"]
    if isinstance(value, dict):
        return [m for k, v in value.items() for m in nonfinite(v, f"{path}.{k}")]
    if isinstance(value, (list, tuple)):
        return [m for i, v in enumerate(value) for m in nonfinite(v, f"{path}[{i}]")]
    return []


#: The service workload's tenant stream: 100 tenants arriving at 4/s.
TENANTS = 100
MEAN_GAP_MS = 250.0


def churn_trace(seed: int) -> list:
    """Open-loop tenant stream: Poisson arrivals of a fixed multiset of
    shapes -- {2, 4} VMs x {lu, is}, equal counts -- in a seed-shuffled
    order.  The exponential gaps are rescaled so that the last tenant
    always arrives at ``TENANTS * MEAN_GAP_MS``: the seed varies order
    and burstiness, not the offered load.  (Unscaled, the stream's span
    varies ~10% with the seed, and up to 7 of the 100 tenants do not
    finish within the horizon.)"""
    # Seeded stdlib RNG, not SimRNG: the inputs must not change with the code under test.
    rng = random.Random(seed)  # repro: ignore[RPR001]
    shapes = [(n_vms, app) for n_vms in (2, 4) for app in ("lu", "is")] * (TENANTS // 4)
    rng.shuffle(shapes)
    gaps = [rng.expovariate(1.0 / MEAN_GAP_MS) for _ in shapes]
    scale = TENANTS * MEAN_GAP_MS / sum(gaps)
    at_ms = 0.0
    trace = []
    for (n_vms, app), gap in zip(shapes, gaps):
        at_ms += gap * scale
        trace.append({"at_ms": at_ms, "n_vms": n_vms, "app": app})
    return trace


def _check_platform(result: dict, shape: dict) -> list:
    out = []
    if (shape.get("vms"), shape.get("vcpus")) != (128, 1024):
        out.append(f"platform is {shape}, expected 128 VMs / 1024 VCPUs")
    if result["rounds_measured"] <= 0:
        out.append("no measured round completed")
    return out


def _check_churn(result: dict, shape: dict) -> list:
    svc, mig = result["service"], result["migration"]
    out = []
    accounted = svc["admitted"] + svc["rejected"] + svc["queued_now"]
    if svc["submitted"] != accounted:
        out.append(f"submitted {svc['submitted']} != admitted+rejected+queued {accounted}")
    if svc["departed"] < 1:
        out.append("no tenant departed")
    if mig["started"] < 1:
        out.append("no migration started")
    return out


def _check_dfrs(result: dict, shape: dict) -> list:
    d = result["dfrs"]
    out = []
    if d["violations"]:
        out.append(f"{d['violations']} DFRS allocation violations")
    if d["solves"] <= 0:
        out.append("DFRS never solved")
    return out


def _typea(scheduler: str, rounds, horizon_s: float) -> Callable[[int], dict]:
    # Class A so that every virtual cluster finishes measured rounds
    # inside the horizon (a class-B lu round outlasts it under ATC).
    return lambda seed: dict(
        app_name="lu", scheduler=scheduler, n_nodes=32, rounds=rounds,
        npb_class="A", horizon_s=horizon_s, seed=seed,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # The paper's 32-node / 1024-VCPU platform under converged ATC:
            # the slice, dispatch and scheduler path dominate; deepest queue.
            # Most events come after the slices have shrunk, late in the
            # horizon: at 0.8 s the event count halves but varies 3.6%
            # (IQR over seeds 0-9) against 2.0% at 1 s, and at 0.7 s no
            # measured round completes.
            "typea32_atc",
            "run_type_a",
            _typea("ATC", None, 1.0),
            _check_platform,
        ),
        Workload(
            # Same world, CR's fixed 30 ms slices: guest stepping dominates
            # -- the "no change" workload for slice work.  Two measured
            # rounds end the run: over seeds 0-9 that keeps the event count
            # within 1.3% (IQR), against 4.7% at a 7 s horizon.
            "typea32_cr",
            "run_type_a",
            _typea("CR", 2, 300.0),
            _check_platform,
        ),
        Workload(
            # The only workload that builds, tears down and migrates VMs
            # mid-run (CR: under ATC the event count swings with the seed).
            "service_churn",
            "run_service",
            lambda seed: dict(
                admission="fcfs-queue", arrival="trace", service_trace=churn_trace(seed),
                scheduler="CR", placement="pack", migration={"policy": "demix"},
                n_nodes=4, rounds=3, npb_class="B", horizon_s=30.0, seed=seed,
            ),
            _check_churn,
        ),
        Workload(
            # Shallow-queue 3-node world, the shape of every figure bench:
            # Credit cap parking and the DFRS solver.
            "dfrs_hybrid",
            "run_dfrs_compare",
            lambda seed: dict(mode="hybrid", horizon_s=7.5, seed=seed),
            _check_dfrs,
        ),
    )
}
