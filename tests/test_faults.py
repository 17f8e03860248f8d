"""Deterministic fault injection (repro.faults): plans, mechanics, identity."""

from __future__ import annotations

import json

import pytest

from repro.analysis.sanitizer import SimSanitizer
from repro.experiments.harness import CloudWorld, WorldConfig
from repro.experiments.runner import RunSpec
from repro.experiments.scenarios import run_type_a
from repro.faults import FaultEvent, FaultInjector, FaultPlan, parse_fault_spec
from repro.hypervisor.vm import VCPUState
from repro.sim.units import MSEC, SEC

from tests.conftest import add_guest_vm, make_node_world
from tests.test_hypervisor import attach_stub


# ----------------------------------------------------------------------
# Plans: synthesis, serialization, validation, CLI spec parsing
# ----------------------------------------------------------------------
def test_synthesize_is_deterministic():
    a = FaultPlan.synthesize(7, 2, 12 * SEC, n_events=5)
    b = FaultPlan.synthesize(7, 2, 12 * SEC, n_events=5)
    assert a == b
    assert len(a.events) == 5
    assert FaultPlan.synthesize(8, 2, 12 * SEC, n_events=5) != a


def test_synthesize_stays_inside_horizon():
    horizon = 12 * SEC
    plan = FaultPlan.synthesize(1, 4, horizon, n_events=20)
    for ev in plan.events:
        assert horizon // 8 <= ev.at_ns <= (horizon * 5) // 8
        assert ev.duration_ns > 0
        assert ev.at_ns + ev.duration_ns <= (horizon * 7) // 8


def test_plan_events_sorted_by_time():
    plan = FaultPlan.of([
        FaultEvent("node_crash", at_ns=30 * MSEC),
        FaultEvent("vm_pause", at_ns=10 * MSEC),
    ])
    assert [e.at_ns for e in plan.events] == [10 * MSEC, 30 * MSEC]
    assert bool(plan) and not bool(FaultPlan())


def test_dict_round_trip_is_compact():
    ev = FaultEvent("nic_degrade", at_ns=5 * MSEC, node=1,
                    duration_ns=2 * MSEC, bw_factor=0.5, drop_prob=0.1)
    d = ev.to_dict()
    # Only the kind, time and non-default fields ride in the dict form.
    assert set(d) == {"kind", "at_ns", "node", "duration_ns", "bw_factor", "drop_prob"}
    plan = FaultPlan.of([ev])
    assert FaultPlan.from_dicts(plan.to_dicts()) == plan
    assert json.loads(json.dumps(plan.to_dicts())) == plan.to_dicts()


@pytest.mark.parametrize("ev", [
    dict(kind="meteor_strike", at_ns=0),
    dict(kind="node_crash", at_ns=-1),
    dict(kind="node_crash", at_ns=0, duration_ns=-1),
    dict(kind="node_crash", at_ns=0, node=9),
    dict(kind="nic_degrade", at_ns=0, bw_factor=0.0),
    dict(kind="nic_degrade", at_ns=0, drop_prob=1.0),
    dict(kind="pcpu_straggler", at_ns=0, pcpu=99, steal_period_ns=MSEC),
    dict(kind="pcpu_straggler", at_ns=0, steal_period_ns=0),
])
def test_validate_rejects_bad_events(ev):
    """Checks that need no world shape fail on construction, the rest in
    ``validate``."""
    with pytest.raises(ValueError):
        FaultEvent(**ev).validate(n_nodes=2, n_pcpus=8)


def test_a_bad_event_is_rejected_when_the_cell_is_declared():
    with pytest.raises(ValueError, match="faults\\[0\\]: unknown fault kind 'bogus'"):
        RunSpec("type_a", {"app_name": "is", "scheduler": "CR", "n_nodes": 2,
                           "faults": [{"kind": "bogus", "at_ns": 1}]})


def test_parse_fault_spec_forms(tmp_path):
    assert parse_fault_spec(None, 2, SEC) is None
    assert parse_fault_spec("", 2, SEC) is None
    assert parse_fault_spec("none", 2, SEC) is None

    rnd = parse_fault_spec("random:4:9", 2, 12 * SEC)
    assert rnd == FaultPlan.synthesize(9, 2, 12 * SEC, n_events=4)

    dicts = [{"kind": "node_crash", "at_ns": 5 * MSEC, "duration_ns": MSEC}]
    inline = parse_fault_spec(json.dumps(dicts), 2, SEC)
    assert inline == FaultPlan.from_dicts(dicts)

    path = tmp_path / "plan.json"
    path.write_text(json.dumps(dicts), encoding="utf-8")
    assert parse_fault_spec(str(path), 2, SEC) == inline

    with pytest.raises(ValueError):
        parse_fault_spec("random:1:2:3:4", 2, SEC)


# ----------------------------------------------------------------------
# VMM mechanics: pause latches wakes, crash quiesces, restart replays
# ----------------------------------------------------------------------
def test_pause_latches_wake_and_resume_replays(single_node):
    sim, cluster, vmm = single_node
    from repro.hypervisor.vm import VM

    vm = VM(vmm.node, 1)
    vmm.add_vm(vm)
    r = attach_stub(sim, vm, work_ns=5 * MSEC)
    vcpu = vm.vcpus[0]
    vcpu.wake()
    sim.run(until=1 * MSEC)

    vmm.pause_vm(vm)
    assert vm.paused and vcpu.state is VCPUState.BLOCKED and vcpu.wake_pending
    vcpu.wake()  # external wake while paused: latched, not dispatched
    assert vcpu.state is VCPUState.BLOCKED
    sim.run(until=20 * MSEC)
    assert r.finished_at is None  # frozen: no progress while paused

    vmm.resume_vm(vm)
    assert not vm.paused and not vcpu.wake_pending
    sim.run()
    assert r.finished_at is not None
    assert vcpu.total_run_ns >= 5 * MSEC


def test_nested_pauses_hold_until_the_last_release(single_node):
    sim, cluster, vmm = single_node
    vm = add_guest_vm(vmm)
    vmm.pause_vm(vm)
    vmm.pause_vm(vm)  # second window (overlapping fault, or a migration)
    assert vm.paused and vm.pause_depth == 2
    vmm.resume_vm(vm)
    assert vm.paused and vm.pause_depth == 1  # still one window open
    vmm.resume_vm(vm)
    assert not vm.paused and vm.pause_depth == 0
    vmm.resume_vm(vm)  # extra resume is a no-op, not an underflow
    assert not vm.paused and vm.pause_depth == 0


def test_restart_force_clears_pause_depth(single_node):
    sim, cluster, vmm = single_node
    vm = add_guest_vm(vmm)
    vmm.pause_vm(vm)
    vmm.pause_vm(vm)
    vmm.crash()
    vmm.restart()  # a reboot forgets pre-crash administrative pauses
    assert not vm.paused and vm.pause_depth == 0


def test_overlapping_vm_pause_faults_heal_at_the_last():
    plan = FaultPlan.of([
        FaultEvent("vm_pause", at_ns=1 * MSEC, node=0, duration_ns=10 * MSEC),
        FaultEvent("vm_pause", at_ns=2 * MSEC, node=0, duration_ns=2 * MSEC),
    ])
    w = CloudWorld(WorldConfig(n_nodes=2, faults=plan))
    vm = w.new_vm(name="g0", node_idx=0)
    w.run(horizon_ns=6 * MSEC)
    assert vm.paused and vm.pause_depth == 1  # inner healed at t=4ms
    w.run(horizon_ns=10 * MSEC)
    assert not vm.paused and vm.pause_depth == 0  # outer healed at t=11ms
    assert w.fault_injector.stats["healed"] == {"vm_pause": 2}


def test_heal_after_skip_does_not_resume_later_vm():
    """Regression: a ``vm_pause`` whose inject was skipped (no guest
    existed yet) must not heal anything — re-resolving the target at heal
    time used to pick up a VM admitted *after* the skip and decrement a
    pause depth that window never incremented."""
    plan = FaultPlan.of([
        FaultEvent("vm_pause", at_ns=1 * MSEC, node=0, duration_ns=10 * MSEC),
    ])
    w = CloudWorld(WorldConfig(n_nodes=1, faults=plan))
    w.run(horizon_ns=2 * MSEC)  # inject fires with no guest: skipped
    assert w.fault_injector.stats["skipped"] == {"vm_pause": 1}
    # A guest admitted between inject and heal, frozen by its own window
    # (stand-in for a migration stop-and-copy).
    vm = w.new_vm(name="late", node_idx=0)
    vm.node.vmm.pause_vm(vm)
    w.run(horizon_ns=15 * MSEC)  # the skipped fault's heal fires at 11 ms
    assert vm.paused and vm.pause_depth == 1  # untouched by the heal
    stats = w.fault_injector.stats
    assert stats["injected"] == {"vm_pause": 1}
    assert stats["healed"] == {}  # no pause happened, so nothing healed
    assert stats["skipped"] == {"vm_pause": 1}


def test_heal_after_teardown_releases_only_its_own_window():
    """A tenant torn down mid-fault keeps its teardown freeze: the heal
    releases exactly the window it opened at inject time."""
    plan = FaultPlan.of([
        FaultEvent("vm_pause", at_ns=1 * MSEC, node=0, vm="t0",
                   duration_ns=10 * MSEC),
    ])
    w = CloudWorld(WorldConfig(n_nodes=1, faults=plan))
    vm = w.new_vm(name="t0", node_idx=0)
    w.run(horizon_ns=2 * MSEC)
    assert vm.paused and vm.pause_depth == 1
    w.teardown_vm(vm)  # departs while the fault window is still open
    assert vm.pause_depth == 2
    w.run(horizon_ns=15 * MSEC)  # heal releases the fault window only
    assert vm.paused and vm.pause_depth == 1  # teardown freeze holds
    stats = w.fault_injector.stats
    assert stats["healed"] == {"vm_pause": 1}  # a real pause, really healed
    assert stats["skipped"] == {}


def test_crash_quiesces_and_restart_recovers(single_node):
    sim, cluster, vmm = single_node
    from repro.hypervisor.vm import VM

    vm = VM(vmm.node, 1)
    vmm.add_vm(vm)
    r = attach_stub(sim, vm, work_ns=5 * MSEC)
    vm.vcpus[0].wake()
    sim.run(until=1 * MSEC)

    vmm.crash()
    vmm.crash()  # idempotent
    assert vmm.node.crashed
    assert all(v.state is VCPUState.BLOCKED for g in vmm.vms for v in g.vcpus)
    sim.run(until=40 * MSEC)
    # The guest makes zero progress while the node is down.
    assert r.finished_at is None
    assert vm.vcpus[0].state is VCPUState.BLOCKED

    vmm.restart()
    vmm.restart()  # idempotent
    assert not vmm.node.crashed
    sim.run()
    assert r.finished_at is not None


def test_san006_flags_decision_on_crashed_node(single_node):
    sim, cluster, vmm = single_node
    add_guest_vm(vmm, n_vcpus=1)
    san = SimSanitizer(sim, [vmm])
    vmm.crash()
    assert san.violations == []  # the crash itself is clean
    vmm.kick(vmm.node.pcpus[0])  # leaked decision
    assert "SAN006" in [v.code for v in san.violations]
    assert san.violations[0].context["node"] == vmm.node.index


# ----------------------------------------------------------------------
# Injector: overlap depth, link degradation stack, trace records
# ----------------------------------------------------------------------
def test_overlapping_crash_windows_heal_at_the_last():
    plan = FaultPlan.of([
        FaultEvent("node_crash", at_ns=1 * MSEC, node=0, duration_ns=10 * MSEC),
        FaultEvent("node_crash", at_ns=2 * MSEC, node=0, duration_ns=2 * MSEC),
    ])
    w = CloudWorld(WorldConfig(n_nodes=2, faults=plan))
    node = w.cluster.nodes[0]
    w.run(horizon_ns=6 * MSEC)
    assert node.crashed  # inner window healed at t=4ms, outer still live
    w.run(horizon_ns=10 * MSEC)
    assert not node.crashed  # outer heal at t=11ms restarted the node
    assert w.fault_injector.stats["injected"] == {"node_crash": 2}
    assert w.fault_injector.stats["healed"] == {"node_crash": 2}


def test_nic_degrade_stack_restores_previous_level():
    plan = FaultPlan.of([
        FaultEvent("nic_degrade", at_ns=1 * MSEC, node=0,
                   duration_ns=20 * MSEC, bw_factor=0.5),
        FaultEvent("nic_degrade", at_ns=2 * MSEC, node=0,
                   duration_ns=2 * MSEC, bw_factor=0.25),
    ])
    w = CloudWorld(WorldConfig(n_nodes=2, faults=plan))
    fabric = w.cluster.fabric
    w.run(horizon_ns=3 * MSEC)
    assert fabric._degraded[0][0] == 0.25  # deepest degradation wins
    w.run(horizon_ns=10 * MSEC)
    assert fabric._degraded[0][0] == 0.5  # inner heal falls back, not to clean
    w.run(horizon_ns=30 * MSEC)
    assert 0 not in fabric._degraded  # outer heal restores the link


def test_fault_trace_records_emitted():
    plan = FaultPlan.of([
        FaultEvent("vm_pause", at_ns=1 * MSEC, node=0, duration_ns=2 * MSEC),
    ])
    w = CloudWorld(WorldConfig(n_nodes=2, faults=plan, trace=True))
    w.new_vm(name="g0", node_idx=0)
    w.run(horizon_ns=5 * MSEC)
    log = w.tracelog
    kinds = [r.kind for r in log.records() if r.kind.startswith("fault.")]
    assert kinds == ["fault.inject", "fault.heal"]
    rec = next(r for r in log.records() if r.kind == "fault.inject")
    assert rec.args["fault"] == "vm_pause" and rec.t == 1 * MSEC


def test_injector_rejects_invalid_plan():
    plan = FaultPlan.of([FaultEvent("node_crash", at_ns=0, node=99)])
    with pytest.raises(ValueError):
        CloudWorld(WorldConfig(n_nodes=2, faults=plan))


def test_clean_world_arms_no_fault_hooks():
    w = CloudWorld(WorldConfig(n_nodes=2))
    assert w.fault_injector is None
    assert w.cluster.fabric.drop_rng is None
    assert w.cluster.fabric.crashed_of is None


# ----------------------------------------------------------------------
# Scenario-level acceptance: bit-identity, recovery, packet loss
# ----------------------------------------------------------------------
CRASH_PLAN = [
    {"kind": "node_crash", "at_ns": 100 * MSEC, "node": 1, "duration_ns": 150 * MSEC},
]
LOSSY_PLAN = [
    {"kind": "nic_degrade", "at_ns": 50 * MSEC, "node": 0,
     "duration_ns": 5 * SEC, "bw_factor": 0.5, "drop_prob": 0.2},
]


def _typea(**kw):
    return run_type_a("is", "CR", 2, rounds=2, warmup_rounds=0,
                      horizon_s=60.0, seed=3, **kw)


def test_faulted_run_is_bit_identical():
    r1 = _typea(faults=CRASH_PLAN)
    r2 = _typea(faults=CRASH_PLAN)
    assert r1 == r2


def test_crash_recovery_preserves_completion():
    clean = _typea()
    faulted = _typea(faults=CRASH_PLAN)
    assert faulted["all_done"] and clean["all_done"]
    assert faulted["faults"]["injected"] == {"node_crash": 1}
    assert faulted["faults"]["healed"] == {"node_crash": 1}
    assert "faults" not in clean  # clean results carry no fault key
    assert faulted["mean_round_ns"] != clean["mean_round_ns"]


def test_packet_loss_retransmits_without_losing_messages():
    r = _typea(faults=LOSSY_PLAN)
    assert r["all_done"]
    assert r["faults"]["messages_dropped"] > 0
    assert r["faults"]["retransmits"] >= r["faults"]["messages_dropped"]
    assert r["faults"]["messages_lost"] == 0


def test_sanitized_faulted_run_is_bit_identical():
    plain = _typea(faults=CRASH_PLAN)
    sane = _typea(faults=CRASH_PLAN, sanitize=True)
    assert plain == sane
