"""Live migration & rebalancing (repro.migration): engine, policies, identity."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.analysis.sanitizer import SimSanitizer
from repro.experiments.harness import CloudWorld, WorldConfig
from repro.experiments.scenarios import from_json, run_migration_rebalance
from repro.hypervisor.vm import VCPUState
from repro.migration import (
    MigrationConfig,
    MigrationParams,
    parallel_census,
)
from repro.migration.engine import MIB
from repro.sim.units import MSEC, SEC

from tests.conftest import add_guest_vm, make_node_world

#: Small image so unit-test migrations finish in tens of simulated ms.
SMALL = MigrationParams(mem_bytes=2 * MIB)


def _world(n_nodes=2, policy="none", params=SMALL, **kw):
    cfg = MigrationConfig(policy=policy, control_every=1, params=params)
    return CloudWorld(WorldConfig(n_nodes=n_nodes, migration=cfg, **kw))


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
def test_config_dict_round_trip():
    cfg = MigrationConfig(policy="demix", control_every=3, max_concurrent=2,
                          cooldown_ns=250 * MSEC, params=SMALL)
    form = json.loads(json.dumps(asdict(cfg)))
    assert from_json(MigrationConfig, form, "migration") == cfg
    assert form["params"]["mem_bytes"] == 2 * MIB


def test_control_every_below_one_rejected():
    with pytest.raises(ValueError, match="control_every"):
        MigrationConfig(policy="demix", control_every=0)


def test_unknown_policy_rejected_at_world_construction():
    with pytest.raises(ValueError, match="unknown migration policy 'bogus'; known: demix"):
        _world(policy="bogus")


# ----------------------------------------------------------------------
# Engine mechanics: pre-copy, handoff, downtime conservation
# ----------------------------------------------------------------------
def test_precopy_migration_re_homes_the_vm():
    w = _world()
    vm = w.new_vm(name="g0", node_idx=0)
    eng = w.migration_engine
    assert eng.start(vm, 1)
    assert w._node_vm_load == [1, 1]  # destination slot reserved up front
    w.run(horizon_ns=1 * SEC)

    assert eng.completed == 1 and eng.aborted == 0
    assert vm.node is w.cluster.nodes[1]
    assert vm not in w.vmms[0].vms and vm in w.vmms[1].vms
    assert w._node_vm_load == [0, 1]
    assert not vm.paused and vm.pause_depth == 0
    n_pcpus = len(w.cluster.nodes[1].pcpus)
    assert [v.rq for v in vm.vcpus] == [i % n_pcpus for i in range(len(vm.vcpus))]
    assert eng.violations == []


def test_leaving_a_host_drops_the_vms_atc_history():
    """Under ATC a VM's Algorithm-1 history belongs to the host that
    measured it: a completed migration and a teardown each drop it from
    the monitor of the host the VM left."""
    w = _world(scheduler="ATC")
    moved = w.new_vm(name="g0", node_idx=0, is_parallel=True)
    gone = w.new_vm(name="g1", node_idx=0, is_parallel=True)
    w.run(horizon_ns=100 * MSEC)  # a few periods of history on node 0
    old = w.vmms[0].scheduler.controller.monitor
    new = w.vmms[1].scheduler.controller.monitor
    assert moved.vmid in old.states and gone.vmid in old.states

    assert w.migration_engine.start(moved, 1)
    w.run(horizon_ns=1 * SEC)
    assert w.migration_engine.completed == 1 and moved.node is w.cluster.nodes[1]
    assert moved.vmid not in old.states and moved.vmid in new.states
    assert gone.vmid in old.states

    w.teardown_vm(gone)
    assert gone.vmid not in old.states
    assert old.states == {}


def test_dirty_residue_drives_extra_precopy_rounds():
    # A tight stop threshold forces a second (small) copy round.
    params = MigrationParams(mem_bytes=2 * MIB, stop_copy_threshold_bytes=64 * 1024)
    w = _world(params=params)
    vm = w.new_vm(name="g0", node_idx=0)
    w.migration_engine.start(vm, 1)
    w.run(horizon_ns=1 * SEC)
    assert w.migration_engine.completed == 1
    assert w.migration_engine.precopy_rounds >= 2
    # Everything sent: the full image, plus at least one dirty residue pass.
    assert w.migration_engine.bytes_copied > 2 * MIB


def test_round_cap_forces_stop_and_copy():
    # The guest dirties faster than the link copies: never converges, so
    # the round cap bounds pre-copy and the residue rides the blackout.
    params = MigrationParams(mem_bytes=2 * MIB, dirty_bytes_per_s=1024 * MIB,
                             max_precopy_rounds=3)
    w = _world(params=params)
    vm = w.new_vm(name="g0", node_idx=0)
    w.migration_engine.start(vm, 1)
    w.run(horizon_ns=1 * SEC)
    assert w.migration_engine.completed == 1
    assert w.migration_engine.precopy_rounds == 3


def test_downtime_is_conserved_against_pause_intervals():
    w = _world()
    vm = w.new_vm(name="g0", node_idx=0)
    eng = w.migration_engine
    eng.start(vm, 1)
    w.run(horizon_ns=1 * SEC)
    assert eng.completed == 1
    intervals = eng.pause_intervals["g0"]
    assert len(intervals) == 1 and intervals[0][1] > intervals[0][0]
    total = sum(b - a for a, b in intervals)
    assert eng.downtime_by_vm["g0"] == total > 0
    # The engine's rollup reports the same conserved total.
    s = eng.stats
    assert s["downtime_total_ns"] == total
    assert s["downtime_ns"] == {"g0": total}
    assert s["completed"] == 1 and len(eng.active) == 0


def test_start_rejects_structural_misuse():
    w = _world()
    vm = w.new_vm(name="g0", node_idx=0)
    dom0_vm = next(v for v in w.vmms[0].vms if v.is_dom0)
    eng = w.migration_engine
    with pytest.raises(ValueError, match="dom0"):
        eng.start(dom0_vm, 1)
    with pytest.raises(ValueError, match="no node 7"):
        eng.start(vm, 7)
    with pytest.raises(ValueError, match="already on node 0"):
        eng.start(vm, 0)


def test_start_declines_transient_ineligibility():
    w = _world(n_nodes=3, vms_per_node=1)
    vm = w.new_vm(name="g0", node_idx=0)
    w.new_vm(name="g1", node_idx=1)
    eng = w.migration_engine
    assert not eng.start(vm, 1)  # destination full
    w.vmms[0].pause_vm(vm)
    assert not eng.start(vm, 2)  # paused VM cannot be migrated
    w.vmms[0].resume_vm(vm)
    assert eng.start(vm, 2)
    assert not eng.start(vm, 1)  # already in flight
    assert eng.started == 1


def test_dst_crash_aborts_and_releases_reservation():
    w = _world()
    vm = w.new_vm(name="g0", node_idx=0)
    eng = w.migration_engine
    eng.start(vm, 1)
    w.run(horizon_ns=5 * MSEC)  # mid pre-copy
    w.vmms[1].crash()
    w.run(horizon_ns=1 * SEC)
    assert eng.completed == 0 and eng.aborted == 1
    assert vm.node is w.cluster.nodes[0]  # still home
    assert w._node_vm_load == [1, 0]  # reservation released
    assert not vm.paused and vm.pause_depth == 0  # blackout pause rolled back
    assert eng.active == {}


def test_timeout_aborts_a_stalled_stream():
    params = MigrationParams(mem_bytes=2 * MIB, abort_timeout_ns=5 * MSEC)
    w = _world(params=params)
    vm = w.new_vm(name="g0", node_idx=0)
    eng = w.migration_engine
    eng.start(vm, 1)
    w.run(horizon_ns=1 * SEC)
    assert eng.aborted == 1 and eng.completed == 0
    assert vm.node is w.cluster.nodes[0] and w._node_vm_load == [1, 0]


# ----------------------------------------------------------------------
# Pause composition: fault windows x stop-and-copy (PR-4 latch-and-replay)
# ----------------------------------------------------------------------
def test_fault_pause_spanning_migration_holds_until_both_release():
    w = _world()
    vm = w.new_vm(name="g0", node_idx=0)
    eng = w.migration_engine
    assert eng.start(vm, 1)
    w.run(horizon_ns=5 * MSEC)  # mid pre-copy
    vm.node.vmm.pause_vm(vm)  # fault window opens on the *source*
    assert vm.paused and vm.pause_depth == 1

    w.run(horizon_ns=1 * SEC)  # migration completes under the fault
    assert eng.completed == 1 and vm.node is w.cluster.nodes[1]
    # Handoff released only the engine's own hold: the fault still pins it.
    assert vm.paused and vm.pause_depth == 1
    vcpu = vm.vcpus[0]
    vcpu.wake()  # latched, not dropped
    assert vcpu.state is VCPUState.BLOCKED and vcpu.wake_pending

    vm.node.vmm.resume_vm(vm)  # fault heals on the *destination* VMM
    assert not vm.paused and vm.pause_depth == 0
    assert not vcpu.wake_pending and vcpu.state is not VCPUState.BLOCKED
    assert eng.violations == []


def test_fault_pause_inside_stop_copy_window_does_not_double_resume():
    w = _world()
    vm = w.new_vm(name="g0", node_idx=0)
    eng = w.migration_engine
    assert eng.start(vm, 1)
    # Step in half-ms increments until the blackout window opens (the
    # window itself is > 1 ms long, so a step cannot jump across it).
    m = eng.active[vm.vmid]
    while m.pause_start_ns is None:
        assert eng.completed == 0
        w.run(horizon_ns=MSEC // 2)
    assert vm.paused  # inside the window
    vm.node.vmm.pause_vm(vm)  # fault lands during the blackout
    assert vm.pause_depth == 2

    w.run(horizon_ns=1 * SEC)
    assert eng.completed == 1 and vm.node is w.cluster.nodes[1]
    assert vm.paused and vm.pause_depth == 1  # engine resume released one hold
    vm.node.vmm.resume_vm(vm)
    assert not vm.paused and vm.pause_depth == 0
    assert eng.violations == []


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
def test_parallel_census_is_per_node_per_cluster():
    w = _world(n_nodes=2)
    w.virtual_cluster(2, name="a", node_indices=[0, 0])
    w.virtual_cluster(1, name="b", node_indices=[0])
    census = parallel_census(w)
    assert list(census) == [0]
    assert [(c, [vm.name for vm in vms]) for c, vms in census[0].items()] == [
        ("a", ["a.vm0", "a.vm1"]),
        ("b", ["b.vm0"]),
    ]


def test_demix_separates_cohosted_clusters():
    w = _world(policy="demix")
    w.virtual_cluster(1, name="a", node_indices=[0])
    w.virtual_cluster(1, name="b", node_indices=[0])
    w.run(horizon_ns=2 * SEC)
    census = parallel_census(w)
    assert all(len(clusters) == 1 for clusters in census.values())
    assert w.migration_engine.completed == 1
    assert w.rebalancer.stats["migrations_requested"] == 1


# ----------------------------------------------------------------------
# Control tick: one leader-elected period hook drives every controller
# ----------------------------------------------------------------------
def test_control_tick_runs_each_controller_on_its_cadence_with_failover(monkeypatch):
    from repro.dfrs.controller import DFRSConfig, DFRSController
    from repro.faults import FaultEvent, FaultPlan
    from repro.migration.rebalancer import Rebalancer
    from repro.service.service import CloudService, ServiceConfig

    # Record every round each controller runs, then run it as usual.
    rounds: dict[str, list[int]] = {}
    for name, cls, attr in (
        ("rebalancer", Rebalancer, "_control"),
        ("dfrs", DFRSController, "_control"),
        ("service", CloudService, "_on_period"),
    ):
        def spy(self, now, _name=name, _real=getattr(cls, attr)):
            rounds.setdefault(_name, []).append(now)
            _real(self, now)

        monkeypatch.setattr(cls, attr, spy)

    down_ns, up_ns = 310 * MSEC, 610 * MSEC
    plan = FaultPlan.of([
        FaultEvent("node_crash", at_ns=down_ns, node=0, duration_ns=up_ns - down_ns),
    ])
    w = CloudWorld(WorldConfig(
        n_nodes=3, scheduler="ATC", sanitize=True, faults=plan,
        migration=MigrationConfig(policy="demix", control_every=2, params=SMALL),
        dfrs=DFRSConfig(solve_every=3),
        service=ServiceConfig(),
    ))
    # One control hook per VMM, after the ATC controller and sanitizer hooks.
    assert [vmm.period_hooks.count(w._control_tick) for vmm in w.vmms] == [1, 1, 1]
    assert all(vmm.period_hooks[-1] == w._control_tick for vmm in w.vmms)
    # Period hooks run on live nodes only: the first to run at a
    # timestamp is the node that led it.
    leaders: dict[int, int] = {}
    for vmm in w.vmms:
        vmm.period_hooks.append(
            lambda now, i=vmm.node.index: leaders.setdefault(now, i)
        )
    vc = w.virtual_cluster(3, name="a")
    w.add_npb("lu", vc.vms, rounds=None, warmup_rounds=0, npb_class="A")
    w.run(horizon_ns=1200 * MSEC)

    ticks = sorted(leaders)
    assert w.leader_ticks == len(ticks) == 40
    assert [leaders[t] for t in ticks] == [
        1 if down_ns < t < up_ns else 0 for t in ticks
    ]
    assert 1 in leaders.values()  # leadership failed over during the crash
    for name, every in (("rebalancer", 2), ("dfrs", 3), ("service", 1)):
        assert rounds[name] == ticks[every - 1::every], name
        assert len(rounds[name]) == w.leader_ticks // every
    assert w.rebalancer.kicks == 0

    # Worlds without an active controller carry no control hook.
    for cfg in (WorldConfig(n_nodes=3), WorldConfig(n_nodes=3, dfrs=DFRSConfig(solve_every=0))):
        bare = CloudWorld(cfg)
        assert all(bare._control_tick not in vmm.period_hooks for vmm in bare.vmms)


# ----------------------------------------------------------------------
# SAN007: single residency + stop-and-copy window integrity
# ----------------------------------------------------------------------
def test_san007_flags_stale_residency_after_handoff():
    sim, cluster, vmms = make_node_world(n_nodes=2)
    vm = add_guest_vm(vmms[0])
    san = SimSanitizer(sim, vmms)
    vcpu = vm.vcpus[0]
    vcpu.state = VCPUState.RUNNABLE
    vm.node = cluster.nodes[1]  # handoff the source scheduler never saw
    vmms[0].scheduler.on_wake(vcpu)
    codes = [v.code for v in san.violations]
    assert "SAN007" in codes
    v = next(v for v in san.violations if v.code == "SAN007")
    assert v.context["node"] == 0 and v.context["resident_node"] == 1


def test_engine_reports_window_breaks_through_sanitizer():
    w = _world(sanitize=True)
    w.migration_engine._violate("synthetic break")
    assert [v.code for v in w.sanitizer.violations] == ["SAN007"]
    assert w.migration_engine.violations == []

    w2 = _world()
    w2.migration_engine._violate("no sanitizer attached")
    assert w2.migration_engine.violations == ["no sanitizer attached"]


def test_unsanitized_window_break_fails_the_cell(monkeypatch):
    from repro.experiments.runner import RunSpec, run_sweep
    from repro.migration.engine import MigrationEngine

    init = MigrationEngine.__init__

    def broken(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._violate("synthetic break")

    monkeypatch.setattr(MigrationEngine, "__init__", broken)
    spec = RunSpec("migration_rebalance", {"policy": "demix", "horizon_s": 0.2})
    [r] = run_sweep([spec], use_cache=False)
    assert not r.ok and r.error["type"] == "SanitizerViolationError"
    assert "SAN007" in r.error["message"] and "synthetic break" in r.error["message"]
    assert [v["code"] for v in r.error["violations"]] == ["SAN007"]


# ----------------------------------------------------------------------
# Scenario-level acceptance: bit-identity, demixing, sanitized runs
# ----------------------------------------------------------------------
def _cell(policy, **kw):
    return run_migration_rebalance(policy=policy, horizon_s=4.0, seed=0, **kw)


def test_idle_control_plane_is_bit_identical_to_no_subsystem():
    static = _cell("static")
    idle = _cell("none")
    # Same world, same events (count included) — only the subsystem's own
    # bookkeeping keys may differ.
    assert {k for k in static if k not in idle} == set()
    for key in static:
        if key not in ("policy", "migration", "rebalancer"):
            assert idle[key] == static[key], key
    assert idle["events"] == static["events"]
    assert idle["migration"]["started"] == 0
    assert idle["migration"]["downtime_total_ns"] == 0


def test_demix_scenario_separates_clusters_and_conserves_downtime():
    r = _cell("demix", sanitize=True)  # sanitized: SAN007 et al. stay quiet
    assert r["migration"]["completed"] >= 1
    assert r["rebalancer"]["policy"] == "demix"
    # Post-rebalance, no node hosts VMs of two different clusters.
    by_node: dict[int, set] = {}
    for name, node in r["final_nodes"].items():
        if name.startswith("vc"):
            by_node.setdefault(node, set()).add(name.split(".")[0])
    assert all(len(cs) == 1 for cs in by_node.values())
    assert r["migration"]["downtime_total_ns"] == sum(
        r["migration"]["downtime_ns"].values()
    ) > 0


def test_demix_run_is_reproducible():
    assert _cell("demix") == _cell("demix")
