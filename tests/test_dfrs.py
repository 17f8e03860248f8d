"""Tests for the DFRS cluster-scope subsystem (repro.dfrs).

Covers the pure solver (water-fill arithmetic, determinism, move
proposals), the scheduler-registry cluster hooks (staged cap/weight
application at the accounting boundary), Xen-style cap enforcement in
the Credit scheduler, the controller's bit-identity-when-idle guarantee,
SAN009 self-checks, and DFRS-triggered relocations through the
migration engine.
"""

import pytest

from repro.dfrs.controller import DFRSConfig, DFRSController
from repro.dfrs.solver import (
    VMNeed,
    propose_moves,
    solve_cluster,
    solve_host,
)
from repro.experiments.harness import CloudWorld, WorldConfig
from repro.experiments.scenarios import run_dfrs_compare
from repro.guest.process import compute
from repro.sim.units import MSEC, SEC

from tests.conftest import add_guest_vm, make_node_world


def _need(name, vmid, node, need, ceil=0.5):
    return VMNeed(name=name, vmid=vmid, node=node, need=need, ceil=ceil)


# ----------------------------------------------------------------------
# Solver
# ----------------------------------------------------------------------
def test_solve_under_committed_host_satisfies_every_need():
    needs = [_need("a", 1, 0, 0.3), _need("b", 2, 0, 0.2)]
    s = solve_host(0, needs)
    assert s.min_yield == 1.0
    for a, n in zip(s.allocations, needs):
        assert a.alloc == pytest.approx(n.need)
        assert a.vm_yield == pytest.approx(1.0)


def test_solve_over_committed_host_water_fills():
    # Four VMs each needing half the host: the max-min yield is 0.5 and
    # every VM gets a quarter.
    needs = [_need(f"v{i}", i, 0, 0.5) for i in range(4)]
    s = solve_host(0, needs)
    assert s.min_yield == pytest.approx(0.5, abs=1e-12)
    assert sum(a.alloc for a in s.allocations) == pytest.approx(1.0, abs=1e-9)
    for a in s.allocations:
        assert a.alloc == pytest.approx(0.25, abs=1e-12)


def test_solve_ceiling_binds_before_yield():
    # 0.9 + 0.8 + 0.8 of need with 0.5 ceilings: below the ceilings the
    # feasibility line is y * 2.5 <= 1, so y = 0.4 exactly.
    needs = [
        _need("big", 1, 0, 0.9),
        _need("m1", 2, 0, 0.8),
        _need("m2", 3, 0, 0.8),
    ]
    s = solve_host(0, needs)
    assert s.min_yield == pytest.approx(0.4, abs=1e-9)
    assert s.allocations[0].alloc == pytest.approx(0.36, abs=1e-9)
    assert sum(a.alloc for a in s.allocations) <= 1.0 + 1e-9


def test_solve_allocations_never_exceed_host_capacity():
    for k in (1, 3, 5, 9):
        needs = [_need(f"v{i}", i, 0, 0.1 + 0.07 * i) for i in range(k)]
        s = solve_host(0, needs)
        assert sum(a.alloc for a in s.allocations) <= 1.0 + 1e-9


def test_solve_caps_carry_headroom_without_renormalization():
    # A packed host keeps the headroom slack: caps are per-VM limits and
    # may legitimately sum above 1.0 (renormalizing would make every cap
    # exactly binding).
    needs = [_need(f"v{i}", i, 0, 0.5) for i in range(4)]
    s = solve_host(0, needs, headroom=1.25)
    for a in s.allocations:
        assert a.cap == pytest.approx(a.alloc * 1.25, abs=1e-12)
    assert sum(a.cap for a in s.allocations) > 1.0


def test_solve_cap_clipped_to_ceiling():
    needs = [_need("v", 1, 0, 0.5, ceil=0.5)]
    s = solve_host(0, needs, headroom=4.0)
    assert s.allocations[0].cap == pytest.approx(0.5)


def test_solve_weights_normalize_to_mean_one():
    needs = [_need("a", 1, 0, 0.4), _need("b", 2, 0, 0.2), _need("c", 3, 0, 0.3)]
    s = solve_host(0, needs)
    weights = [a.weight for a in s.allocations]
    assert sum(weights) / len(weights) == pytest.approx(1.0, abs=1e-12)
    # need-proportional: the hungriest VM gets the largest weight
    assert weights[0] > weights[2] > weights[1]


def test_solve_empty_host():
    s = solve_host(3, [])
    assert s.min_yield == 1.0
    assert s.allocations == ()


def test_solve_is_deterministic():
    needs = [_need(f"v{i}", i, 0, 0.1 + 0.11 * i) for i in range(5)]
    assert solve_host(0, needs, 1.25) == solve_host(0, needs, 1.25)


def test_solve_cluster_covers_empty_nodes():
    needs = [_need("a", 1, 0, 0.5), _need("b", 2, 2, 0.3)]
    solves = solve_cluster(needs, n_nodes=4)
    assert set(solves) == {0, 1, 2, 3}
    assert solves[1].allocations == ()
    assert solves[3].allocations == ()


def test_propose_moves_sheds_load_to_empty_node():
    # Node 0 over-committed (four half-need VMs), node 1 empty with free
    # slots: the donor's smallest-need VM moves.
    needs = [_need(f"v{i}", i, 0, 0.5) for i in range(4)]
    needs[2] = _need("v2", 2, 0, 0.3)  # smallest need -> the victim
    moves = propose_moves(needs, n_nodes=2, node_loads=[4, 0],
                          vms_per_node=4, max_moves=1)
    assert moves == [(2, 1)]


def test_propose_moves_respects_capacity():
    needs = [_need(f"v{i}", i, 0, 0.5) for i in range(4)]
    moves = propose_moves(needs, n_nodes=2, node_loads=[4, 4],
                          vms_per_node=4, max_moves=2)
    assert moves == []


def test_propose_moves_stops_when_balanced():
    needs = [_need("a", 1, 0, 0.2), _need("b", 2, 1, 0.2)]
    moves = propose_moves(needs, n_nodes=2, node_loads=[1, 1],
                          vms_per_node=4, max_moves=3)
    assert moves == []


def test_propose_moves_budget():
    needs = [_need(f"v{i}", i, 0, 0.5) for i in range(4)]
    moves = propose_moves(needs, n_nodes=4, node_loads=[4, 0, 0, 0],
                          vms_per_node=4, max_moves=2)
    assert len(moves) == 2
    assert all(dst != 0 for _, dst in moves)


# ----------------------------------------------------------------------
# Scheduler cluster hooks: staged application at the boundary
# ----------------------------------------------------------------------
def hog():
    while True:
        yield compute(10 * MSEC)


def start_hogs(vm, n=None):
    for _ in range(n if n is not None else len(vm.vcpus)):
        p = vm.kernel.add_process()
        p.load_program(hog())
        p.start()


def test_set_vm_cap_applies_at_next_boundary():
    sim, cluster, vmms = make_node_world(n_pcpus=2)
    vmm = vmms[0]
    vm = add_guest_vm(vmm, 1)
    start_hogs(vm)
    vmm.start()
    sim.run(until=10 * MSEC)
    sched = vmm.scheduler
    sched.set_vm_cap(vm, 0.5)
    sched.set_vm_weight(vm, 2.0)
    # Mid-period: nothing applied yet.
    assert vm.cap is None
    assert vm.weight == 1.0
    sim.run(until=vmm.period_ns + 10 * MSEC)  # past the accounting boundary
    assert vm.cap == 0.5
    assert vm.weight == 2.0


def test_set_vm_cap_none_clears():
    sim, cluster, vmms = make_node_world(n_pcpus=2)
    vmm = vmms[0]
    vm = add_guest_vm(vmm, 1)
    start_hogs(vm)
    vmm.start()
    vmm.scheduler.set_vm_cap(vm, 0.25)
    sim.run(until=vmm.period_ns + MSEC)
    assert vm.cap == 0.25
    vmm.scheduler.set_vm_cap(vm, None)
    sim.run(until=2 * vmm.period_ns + MSEC)
    assert vm.cap is None


def test_set_vm_weight_rejects_non_positive():
    sim, cluster, vmms = make_node_world()
    vm = add_guest_vm(vmms[0], 1)
    with pytest.raises(ValueError):
        vmms[0].scheduler.set_vm_weight(vm, 0.0)
    with pytest.raises(ValueError):
        vmms[0].scheduler.set_vm_weight(vm, -1.0)


# ----------------------------------------------------------------------
# Credit-scheduler cap enforcement
# ----------------------------------------------------------------------
def test_cap_bounds_vm_cpu_share():
    """A capped hog's CPU is bounded by cap * capacity per period (plus
    one slice of overrun), while an uncapped twin runs work-conserving."""
    sim, cluster, vmms = make_node_world(n_pcpus=1)
    vmm = vmms[0]
    capped = add_guest_vm(vmm, 1, name="capped")
    start_hogs(capped)
    vmm.start()
    vmm.scheduler.set_vm_cap(capped, 0.25)
    horizon = 20 * vmm.period_ns
    sim.run(until=horizon)
    run_ns = capped.vcpus[0].total_run_ns
    # Bounded: a quarter of the horizon, with at most one slice of
    # overrun per period (slice truncation keeps it well under that)
    # and the first (uncapped) period's full run.
    budget = 0.25 * horizon + vmm.period_ns
    assert run_ns <= budget
    # Non-work-conserving: the host had nothing else to run, yet the
    # capped VM did NOT consume the idle capacity.
    assert run_ns < 0.5 * horizon


def test_cap_budget_keeps_left_to_right_float_association():
    """The budget is ``int(cap * period * n_pcpus)`` evaluated left to
    right.  ``cap * (period * n_pcpus)`` rounds differently for some
    caps (0.009 on 3 PCPUs: 810000 vs 809999 ns) and would shift every
    capped slice by a nanosecond."""
    sim, cluster, vmms = make_node_world(n_pcpus=3)
    vmm = vmms[0]
    vm = add_guest_vm(vmm, 1, name="capped")
    vm.cap = 0.009
    assert int(vm.cap * (vmm.period_ns * 3)) == 809_999
    vm.vcpus[0].wake()  # lands on an idle PCPU and is dispatched at once
    pcpu = vm.vcpus[0].pcpu
    assert pcpu.slice_end_ns - pcpu.run_start_ns == 810_000


def test_cap_parks_are_counted_and_released():
    sim, cluster, vmms = make_node_world(n_pcpus=1)
    vmm = vmms[0]
    vm = add_guest_vm(vmm, 2, name="capped")
    start_hogs(vm)
    vmm.start()
    vmm.scheduler.set_vm_cap(vm, 0.1)
    sim.run(until=10 * vmm.period_ns)
    sched = vmm.scheduler
    assert sched.stat_cap_parks > 0
    # Parked VCPUs are re-queued at every boundary: the parked list never
    # leaks across a run that ended mid-period.
    assert all(v.queued or v.state.name != "RUNNABLE" or v in sched._parked
               for v in vm.vcpus)
    # And the VM still made progress every period (unparked each boundary).
    assert vm.vcpus[0].total_run_ns > 0


def test_uncapped_world_has_no_parked_state():
    sim, cluster, vmms = make_node_world(n_pcpus=1)
    vmm = vmms[0]
    a = add_guest_vm(vmm, 1, name="a")
    b = add_guest_vm(vmm, 1, name="b")
    start_hogs(a)
    start_hogs(b)
    vmm.start()
    sim.run(until=10 * vmm.period_ns)
    assert vmm.scheduler._parked == []
    assert vmm.scheduler.stat_cap_parks == 0


def test_remove_queued_withdraws_parked_vcpu():
    sim, cluster, vmms = make_node_world(n_pcpus=1)
    vmm = vmms[0]
    vm = add_guest_vm(vmm, 2, name="capped")
    start_hogs(vm)
    vmm.start()
    vmm.scheduler.set_vm_cap(vm, 0.05)
    sched = vmm.scheduler
    # Run until at least one VCPU is parked.
    deadline = 40 * vmm.period_ns
    while not sched._parked and sim.now < deadline:
        sim.run(until=sim.now + MSEC)
    assert sched._parked, "cap at 5% must park a 2-VCPU hog"
    victim = sched._parked[0]
    sched.remove_queued(victim)
    assert victim not in sched._parked


# ----------------------------------------------------------------------
# Controller: bit-identity, staging, SAN009
# ----------------------------------------------------------------------
def _compare_cell(mode, **kw):
    kw.setdefault("horizon_s", 1.5)
    kw.setdefault("seed", 0)
    return run_dfrs_compare(mode=mode, **kw)


def test_negative_solve_every_rejected():
    with pytest.raises(ValueError, match="solve_every"):
        DFRSConfig(solve_every=-1)


def test_idle_controller_is_bit_identical_to_absence():
    base = _compare_cell("baseline")
    idle = _compare_cell("idle")
    # Event count included: the constructed-but-disabled layer adds
    # nothing to the simulation.
    assert idle["events"] == base["events"]
    assert idle["sim_time_ns"] == base["sim_time_ns"]
    assert idle["parallel_mean_round_ns"] == base["parallel_mean_round_ns"]
    assert idle["final_nodes"] == base["final_nodes"]
    assert idle["dfrs"]["solves"] == 0
    assert idle["dfrs"]["caps_applied"] == 0


def test_active_controller_solves_and_publishes_cleanly():
    r = _compare_cell("dfrs", sanitize=True)
    d = r["dfrs"]
    assert d["solves"] > 0
    assert d["caps_applied"] > 0
    assert d["weights_applied"] > 0
    assert d["violations"] == 0
    assert 0.0 < d["last_min_yield"] <= 1.0


def test_dfrs_compare_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run_dfrs_compare(mode="nope")


def test_controller_traces_solve_and_apply():
    r = _compare_cell("dfrs", trace=True)
    kinds = r["trace"]["by_kind"]
    assert kinds.get("dfrs.solve", 0) > 0
    assert kinds.get("dfrs.apply", 0) > 0


def test_world_registry_exposes_dfrs_metrics():
    from repro.metrics.collectors import world_registry

    cfg = WorldConfig(n_nodes=1, vms_per_node=2, vcpus_per_vm=2,
                      scheduler="CR", seed=0, dfrs=DFRSConfig())
    world = CloudWorld(cfg)
    vm = world.new_vm(name="v0")
    p = vm.kernel.add_process()
    p.load_program(hog())
    world.background.append(type("P", (), {"start": staticmethod(p.start)})())
    world.run(horizon_ns=int(0.5 * SEC))
    snap = world_registry(world).snapshot()
    assert snap["dfrs.solves"] == world.dfrs.solves
    assert snap["dfrs.violations"] == 0


def test_san009_detects_tampered_cap():
    cfg = WorldConfig(n_nodes=1, vms_per_node=2, vcpus_per_vm=2,
                      scheduler="CR", seed=0,
                      dfrs=DFRSConfig(solve_every=2))
    world = CloudWorld(cfg)
    for i in range(2):
        vm = world.new_vm(name=f"v{i}")
        p = vm.kernel.add_process()
        p.load_program(hog())
        world.background.append(type("P", (), {"start": staticmethod(p.start)})())
    world.run(horizon_ns=int(1.0 * SEC))
    ctl = world.dfrs
    assert ctl.solves > 0 and not ctl.violations
    # Tamper with an applied value behind the controller's back: the
    # next check must flag it.
    vmid, (cap, weight) = sorted(ctl._published.items())[0]
    vm = next(v for v in world.vms if v.vmid == vmid)
    vm.weight = weight + 1.0
    ctl._check_applied(world.sim.now)
    assert any("weight" in v for v in ctl.violations)


def test_unsanitized_allocation_mismatch_fails_the_cell(monkeypatch):
    from repro.experiments.runner import RunSpec, run_sweep

    check = DFRSController._check_applied

    def broken(self, now):
        check(self, now)
        self._violate(f"synthetic mismatch at t={now}")

    monkeypatch.setattr(DFRSController, "_check_applied", broken)
    spec = RunSpec("dfrs_compare", {"mode": "dfrs", "horizon_s": 0.5})
    [r] = run_sweep([spec], use_cache=False)
    assert not r.ok and r.error["type"] == "SanitizerViolationError"
    assert "SAN009" in r.error["message"] and "synthetic mismatch" in r.error["message"]
    assert {v["code"] for v in r.error["violations"]} == {"SAN009"}


def test_dfrs_moves_ride_the_migration_engine():
    # Packed placement on 3 nodes concentrates every VM on node 0;
    # allow_moves lets the controller shed load through the engine, and
    # the auto-attached engine uses per-VCPU-scaled memory footprints.
    r = run_dfrs_compare(
        mode="dfrs", horizon_s=6.0, seed=0,
        dfrs={"allow_moves": True, "max_moves_per_round": 1},
    )
    d = r["dfrs"]
    mig = r["migration"]
    assert d["moves_requested"] >= 1
    assert mig["completed"] >= 1
    assert mig["bytes_copied"] > 0
    assert d["violations"] == 0
    # The moves actually changed the placement away from the pack.
    assert len(set(r["final_nodes"].values())) > 1


def test_dfrs_auto_engine_uses_per_vcpu_footprint():
    cfg = WorldConfig(n_nodes=2, vms_per_node=2, vcpus_per_vm=2,
                      scheduler="CR", seed=0,
                      dfrs=DFRSConfig(allow_moves=True))
    world = CloudWorld(cfg)
    assert world.migration_engine is not None
    assert world.migration_engine.params.mem_bytes_per_vcpu > 0


def test_wait_delta_does_not_depend_on_the_atc_monitor_mode(monkeypatch):
    """DFRS reads run-queue wait as deltas of the VM's cumulative ledger,
    which ATC's ``queuewait`` monitor reads too.  With ATC's slice pinned
    (minimum threshold == default) the monitor mode cannot steer the run,
    so the wait DFRS sees over every solve interval must be the same in
    both modes: reading the ledger must not drain it."""
    from repro.core.config import ATCConfig
    from repro.schedulers.atc_sched import ATCParams

    plain = DFRSController._estimate_needs

    def run(mode):
        deltas = []

        def spy(self, now):
            before = dict(self._last_sig)
            needs = plain(self, now)
            # In VM order: vmids differ between the two worlds.
            deltas.append([
                sig[2] - before.get(vmid, (0, 0, 0))[2]
                for vmid, sig in sorted(self._last_sig.items())
            ])
            return needs

        monkeypatch.setattr(DFRSController, "_estimate_needs", spy)
        atc = ATCConfig(monitor_mode=mode, min_threshold_ns=30 * MSEC)
        r = _compare_cell("hybrid", horizon_s=1.0, sched_params=ATCParams(atc=atc))
        return r, deltas

    guest, guest_deltas = run("guest")
    queuewait, queuewait_deltas = run("queuewait")
    assert guest["dfrs"]["solves"] == len(guest_deltas) > 1
    assert sum(map(sum, guest_deltas)) > 0
    assert all(d >= 0 for step in guest_deltas for d in step)
    assert queuewait_deltas == guest_deltas
    assert queuewait["events"] == guest["events"]
