"""Adversarial tenancy layer (repro.workloads.attacks).

Covers the determinism discipline (same-seed bit-identity, serial vs
parallel sweep, forward-vs-reversed tie order), the zero-entropy rule
(attackers draw only from the dedicated ``ATTACK_RNG_KEY`` substream, so
clean runs are unperturbed), the theft accounting (consumed == debited
under exact accounting; ``sched.theft`` never fires), and the inertness
of the hardening knobs at their defaults.
"""

from __future__ import annotations

import json
import math
import runpy
from pathlib import Path

import pytest

from repro.analysis.races import run_differential
from repro.experiments.runner import RunSpec, run_sweep
from repro.experiments.scenarios import run_attack, run_type_a
from repro.schedulers.credit import CreditParams
from repro.sim.rng import SimRNG
from repro.sim.units import MSEC, SEC
from repro.workloads.attacks import ATTACK_RNG_KEY, theft_gain

from tests.conftest import add_guest_vm, make_node_world
from tests.test_credit_scheduler import start_hog

ATK = dict(scheduler="CR", hardened=False, attack=True, seed=3, horizon_s=2.0)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("hardened", [False, True])
def test_same_seed_attack_run_is_bit_identical(hardened):
    kw = dict(ATK, hardened=hardened)
    a, b = run_attack(**kw), run_attack(**kw)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["events"] == b["events"]


def test_attack_sweep_parallel_matches_serial():
    spec = RunSpec("attack", dict(ATK), label="atk")
    serial = run_sweep([spec], jobs=1, use_cache=False)
    parallel = run_sweep([spec], jobs=2, use_cache=False)
    assert serial[0].ok and parallel[0].ok
    assert json.dumps(serial[0].value, sort_keys=True) == json.dumps(
        parallel[0].value, sort_keys=True
    )


def test_clean_attack_cell_forward_equals_reversed():
    """Same-timestamp order dependence: with the attack disabled, the
    scenario (tick-sampled accounting, theft counters, attack-VM tenancy)
    must be tie-order clean.  The victim is ``ep`` for the same reason
    the detector's own cells are: the spin-lock guest model is known
    tie-sensitive under contention (a pre-existing property — a plain
    CR cell running ``lu`` shows it with no attack layer at all), so a
    lock-free victim isolates what *this* layer adds.  Attacked cells
    are inherently contended (BOOST wake storms racing dispatches) and
    are covered by the same-seed bit-identity tests instead."""
    report = run_differential(
        "attack",
        dict(ATK, attack=False, horizon_s=1.5, victim_app="ep"),
        track=False,
    )
    assert report["identical"], report["confirmed"][:5]


# ----------------------------------------------------------------------
# Zero-entropy discipline
# ----------------------------------------------------------------------
def test_attack_substream_does_not_perturb_honest_streams():
    """Attackers draw only from ``substream(ATTACK_RNG_KEY, ...)``:
    draining attack entropy leaves every honest substream's sequence
    untouched, so a clean run draws zero attack entropy by construction."""
    honest = SimRNG(7).substream(1, 0).uniform_ns(0, SEC)
    rng = SimRNG(7)
    for stream in range(4):
        atk = rng.substream(ATTACK_RNG_KEY, stream)
        for _ in range(100):
            atk.uniform_ns(0, SEC)
    assert rng.substream(1, 0).uniform_ns(0, SEC) == honest


def test_clean_cells_construct_no_attackers():
    r = run_attack(**dict(ATK, attack=False))
    assert r["attack"] is False
    assert r["thief"]["cycles"] == 0
    assert r["thief"]["cpu_consumed_ns"] == 0
    assert r["thief"]["gain"] == 1.0
    assert r["tickler"]["wakes"] == 0


# ----------------------------------------------------------------------
# Disabled layer: exact accounting, inert knobs
# ----------------------------------------------------------------------
def test_exact_accounting_has_no_theft():
    """With the default (exact) accounting every VM is debited exactly
    what it consumed and ``sched.theft`` never fires."""
    r = run_type_a(app_name="ep", scheduler="CR", n_nodes=1, rounds=1,
                   warmup_rounds=0, trace=True)
    assert r["trace"]["by_kind"].get("sched.theft", 0) == 0

    sim, cluster, vmms = make_node_world(n_pcpus=2)
    vms = [add_guest_vm(vmms[0], 1, name=f"v{i}") for i in range(4)]
    for vm in vms:
        start_hog(vm)
    vmms[0].start()
    sim.run(until=500 * MSEC)
    for vm in vms:
        assert vm.cpu_consumed_ns == vm.cpu_debited_ns
        assert vm.cpu_consumed_ns > 0


def test_hardening_knobs_default_inert():
    p = CreditParams()
    assert not p.tick_accounting and not p.deboost_on_yield
    assert p.boost_rate_limit == 0 and p.tick_phase_ns == 0
    from repro.core.config import ATCConfig

    assert ATCConfig().slice_floor_ns == 0
    # boost_rate_limit=0 must not even touch the per-VM window state.
    sim, cluster, vmms = make_node_world(n_pcpus=1)
    vms = [add_guest_vm(vmms[0], 1, name=f"v{i}") for i in range(3)]
    for vm in vms:
        start_hog(vm)
    vmms[0].start()
    sim.run(until=300 * MSEC)
    for vm in vms:
        assert vm.boost_window_idx == -1 and vm.boost_window_wakes == 0


# ----------------------------------------------------------------------
# The attack itself
# ----------------------------------------------------------------------
def _nonfinite(value, path="result"):
    """Paths of every NaN/inf float nested in ``value``."""
    if isinstance(value, float):
        return [] if math.isfinite(value) else [path]
    if isinstance(value, dict):
        return [m for k, v in value.items() for m in _nonfinite(v, f"{path}.{k}")]
    if isinstance(value, (list, tuple)):
        return [m for i, v in enumerate(value) for m in _nonfinite(v, f"{path}[{i}]")]
    return []


def test_theft_gain_is_defined_for_every_input():
    assert theft_gain(6, 3) == {"gain": 2.0, "gain_censored": False}
    assert theft_gain(0, 0) == {"gain": 1.0, "gain_censored": False}
    assert theft_gain(5, 0) == {"gain": None, "gain_censored": True}


def test_undebited_thief_reports_censored_gain_not_inf():
    # 9 ms ends before the thief's first accounting tick: it has burnt
    # CPU under tick-sampled debiting but never been charged.
    r = run_attack(scheduler="CR", hardened=False, horizon_s=0.009, seed=0)
    thief = r["thief"]
    assert thief["cpu_consumed_ns"] > 0 and thief["cpu_debited_ns"] == 0
    assert thief["gain"] is None and thief["gain_censored"] is True
    assert _nonfinite(thief, "thief") == []


def test_too_short_attack_cell_reports_undefined_means_not_nan():
    """No victim round and no non-parallel run finish in 9 ms: both
    means are ``None``, and e2e's ``nonfinite`` check finds nothing."""
    e2e = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "workloads.py"
    nonfinite = runpy.run_path(str(e2e))["nonfinite"]
    r = run_attack(scheduler="CR", hardened=False, horizon_s=0.009, seed=0)
    assert r["victim_rounds"] == 0
    assert r["victim_mean_round_ns"] is None and r["np_mean_run_ns"] is None
    assert nonfinite(r) == []


def test_unhardened_thief_profits_and_hardened_does_not():
    open_cell = run_attack(**ATK)
    hard_cell = run_attack(**dict(ATK, hardened=True))
    assert open_cell["thief"]["gain"] > 1.0
    assert hard_cell["thief"]["gain"] <= 1.1
    assert open_cell["tickler"]["boost_preempts_inflicted"] > 0
