"""Runtime invariant sanitizer: violation detection + bit-identity."""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import SanitizerViolationError, SimSanitizer, Violation
from repro.dfrs.controller import DFRSConfig
from repro.experiments.harness import CloudWorld, WorldConfig
from repro.experiments.runner import SCENARIOS, RunSpec, _execute_cell
from repro.experiments.scenarios import run_dfrs_compare, run_type_a
from repro.hypervisor.vm import VCPUState
from repro.migration import MigrationConfig
from repro.schedulers.atc_sched import ATCScheduler
from repro.sim.engine import Simulator
from repro.sim.units import MSEC

from .conftest import add_guest_vm, make_node_world


def _sanitized_world(scheduler_factory=None):
    sim, cluster, vmms = make_node_world(scheduler_factory=scheduler_factory)
    vm = add_guest_vm(vmms[0], n_vcpus=2)
    san = SimSanitizer(sim, vmms)
    return sim, vmms[0], vm, san


# ----------------------------------------------------------------------
# SAN001: event-time monotonicity
# ----------------------------------------------------------------------
def test_monotonic_trace_violation():
    sim = Simulator()
    san = SimSanitizer(sim, [])
    sim.trace(100, lambda: None)
    sim.trace(50, lambda: None)
    assert [v.code for v in san.violations] == ["SAN001"]
    with pytest.raises(SanitizerViolationError) as exc:
        san.check()
    assert exc.value.violations[0].code == "SAN001"


def test_trace_hook_chains_previous():
    sim = Simulator()
    seen = []
    sim.trace = lambda t, fn: seen.append(t)
    SimSanitizer(sim, [])
    sim.trace(7, lambda: None)
    assert seen == [7]


def test_clean_simulation_records_nothing():
    sim = Simulator()
    san = SimSanitizer(sim, [])
    done = []
    sim.at(10, lambda: done.append(1))
    sim.at(20, lambda: done.append(2))
    sim.run()
    san.check()  # does not raise
    assert done == [1, 2] and san.violations == []


# ----------------------------------------------------------------------
# SAN002: VCPU state machine at scheduler decision points
# ----------------------------------------------------------------------
def test_on_wake_with_running_vcpu_flagged():
    sim, vmm, vm, san = _sanitized_world()
    vcpu = vm.vcpus[0]
    vcpu.state = VCPUState.RUNNING
    # The VMM's own dispatch guard also trips further down the wake path;
    # the sanitizer must have recorded the root cause first.
    with pytest.raises(RuntimeError):
        vmm.scheduler.on_wake(vcpu)
    assert "SAN002" in [v.code for v in san.violations]
    assert san.violations[0].context["where"] == "on_wake"


def test_on_block_with_runnable_vcpu_flagged():
    sim, vmm, vm, san = _sanitized_world()
    vcpu = vm.vcpus[0]
    vcpu.state = VCPUState.RUNNABLE
    vmm.scheduler.on_block(vcpu)
    assert [v.code for v in san.violations] == ["SAN002"]


def test_legal_wake_not_flagged():
    sim, vmm, vm, san = _sanitized_world()
    vcpu = vm.vcpus[0]
    vcpu.state = VCPUState.RUNNABLE
    vmm.scheduler.on_wake(vcpu)
    assert san.violations == []


# ----------------------------------------------------------------------
# SAN003: per-period credit conservation
# ----------------------------------------------------------------------
def test_credit_drift_detected():
    sim, cluster, vmms = make_node_world()
    vm = add_guest_vm(vmms[0], n_vcpus=2)
    sched = vmms[0].scheduler
    real_on_period = sched.on_period

    def corrupted_on_period(now):
        real_on_period(now)
        vm.vcpus[0].credit += 1e9  # inject accounting drift

    sched.on_period = corrupted_on_period
    san = SimSanitizer(sim, vmms)
    for v in vm.vcpus:
        v.state = VCPUState.RUNNABLE
    sched.on_period(0)
    assert "SAN003" in [v.code for v in san.violations]


def test_correct_accounting_passes():
    sim, cluster, vmms = make_node_world()
    vm = add_guest_vm(vmms[0], n_vcpus=2)
    san = SimSanitizer(sim, vmms)
    for v in vm.vcpus:
        v.state = VCPUState.RUNNABLE
        v.period_run_ns = 5 * MSEC
    vm.period_run_ns = 10 * MSEC
    vmms[0].scheduler.on_period(0)
    assert san.violations == []


def test_cached_vm_run_total_drift_detected():
    sim, cluster, vmms = make_node_world()
    vm = add_guest_vm(vmms[0], n_vcpus=2)
    san = SimSanitizer(sim, vmms)
    for v in vm.vcpus:
        v.state = VCPUState.RUNNABLE
        v.period_run_ns = 5 * MSEC
    vm.period_run_ns = 7 * MSEC  # the VCPUs ran 10 ms between them
    vmms[0].scheduler.on_period(0)
    drift = [v for v in san.violations if v.context.get("vm") == vm.name]
    assert [v.code for v in drift] == ["SAN003"]
    assert drift[0].context["cached_ns"] == 7 * MSEC
    assert drift[0].context["vcpu_sum_ns"] == 10 * MSEC
    assert vm.period_run_ns == 0  # checked before the reset, then reset


def test_sanitized_dfrs_hybrid_demix_cell_is_clean():
    # Caps park VCPUs every period, and demix hands two VMs off between
    # nodes mid-period (stop-and-copy pause included).
    r = run_dfrs_compare(
        mode="hybrid", horizon_s=2.0, seed=0, sanitize=True,
        migration={"policy": "demix"},
    )
    assert r["migration"]["completed"] >= 1


def test_vm_run_totals_survive_handoff_and_mid_period_teardown():
    world = CloudWorld(WorldConfig(
        n_nodes=3, scheduler="ATC", vms_per_node=4, vcpus_per_vm=4,
        placement="pack", dfrs=DFRSConfig(),
        migration=MigrationConfig.from_dict({"policy": "demix"}),
        sanitize=True,
    ))
    vcs = [world.virtual_cluster(n_vms=2, name=f"vc{k}") for k in range(2)]
    for vc in vcs:
        world.add_npb("lu", vc.vms, rounds=None, warmup_rounds=1)
    world.add_cpu_app("sphinx3", world.new_vm(name="np0"))
    world.run(horizon_ns=1507 * MSEC)  # 7 ms into a 30 ms period
    assert world.migration_engine.stats["completed"] >= 1
    world.teardown_cluster(vcs[1])
    world.run(horizon_ns=300 * MSEC)  # raises on any violation
    assert world.sanitizer.total_violations == 0
    assert sum(vmm.scheduler.stat_cap_parks for vmm in world.vmms) > 0


# ----------------------------------------------------------------------
# SAN004 / SAN005: ATC slice bounds and latency sign
# ----------------------------------------------------------------------
def _atc_world():
    sim, cluster, vmms = make_node_world(
        scheduler_factory=lambda vmm: ATCScheduler(vmm)
    )
    vm = add_guest_vm(vmms[0], n_vcpus=2, is_parallel=True)
    san = SimSanitizer(sim, vmms)
    return sim, vmms[0], vm, san


def test_atc_slice_out_of_bounds_flagged():
    sim, vmm, vm, san = _atc_world()
    vm.slice_ns = 1  # far below min_threshold_ns
    vmm.period_hooks[-1](0)  # the sanitizer's ATC hook
    assert "SAN004" in [v.code for v in san.violations]


def test_negative_latency_flagged():
    sim, vmm, vm, san = _atc_world()
    st = vmm.scheduler.controller.monitor.state_for(vm)
    st.latencies.append(-5.0)
    vmm.period_hooks[-1](0)
    assert "SAN005" in [v.code for v in san.violations]


def test_atc_slice_within_bounds_ok():
    sim, vmm, vm, san = _atc_world()
    vm.slice_ns = 6 * MSEC
    vmm.period_hooks[-1](0)
    assert san.violations == []


# ----------------------------------------------------------------------
# Violation bookkeeping
# ----------------------------------------------------------------------
def test_max_violations_caps_storage():
    sim = Simulator()
    san = SimSanitizer(sim, [], max_violations=3)
    for i in range(10):
        san.record("SAN001", f"v{i}")
    assert len(san.violations) == 3
    assert san.total_violations == 10


def test_violation_to_dict_roundtrip():
    v = Violation(code="SAN002", time_ns=42, message="m", context={"vcpu": "x"})
    assert v.to_dict() == {
        "code": "SAN002",
        "time_ns": 42,
        "message": "m",
        "context": {"vcpu": "x"},
    }
    assert "SAN002" in v.format() and "@t=42" in v.format()


# ----------------------------------------------------------------------
# Harness / runner integration
# ----------------------------------------------------------------------
def test_world_run_raises_on_violation():
    world = CloudWorld(WorldConfig(n_nodes=1, sanitize=True))
    assert world.sanitizer is not None
    world.sanitizer.record("SAN001", "injected")
    with pytest.raises(SanitizerViolationError):
        world.run(horizon_ns=1 * MSEC)


def test_world_without_sanitize_has_no_sanitizer():
    world = CloudWorld(WorldConfig(n_nodes=1))
    assert world.sanitizer is None


def test_runspec_cache_key_backward_compatible():
    params = {"app_name": "is", "scheduler": "CR", "n_nodes": 2}
    plain = RunSpec("type_a", params)
    sane = RunSpec("type_a", dict(params, sanitize=True))
    assert "sanitize" not in plain.key()
    assert '"sanitize":true' in sane.key()
    assert plain.digest("salt") != sane.digest("salt")
    assert "sanitize" not in plain.to_dict()["params"]
    assert sane.to_dict()["params"]["sanitize"] is True


def test_execute_cell_reports_violations_without_retry(monkeypatch):
    calls = []

    def boom(**kwargs):
        calls.append(kwargs)
        raise SanitizerViolationError(
            [Violation(code="SAN003", time_ns=9, message="drift")]
        )

    monkeypatch.setitem(SCENARIOS, "boom", boom)
    payload = _execute_cell(RunSpec("boom", {"sanitize": True}), retries=3)
    assert payload["ok"] is False
    assert payload["attempts"] == 1  # deterministic failure: no retry
    assert payload["error"]["type"] == "SanitizerViolationError"
    assert payload["error"]["violations"] == [
        {"code": "SAN003", "time_ns": 9, "message": "drift", "context": {}}
    ]
    assert calls == [{"sanitize": True}]


# ----------------------------------------------------------------------
# Same-seed bit-identity regression (acceptance criterion)
# ----------------------------------------------------------------------
def test_sanitized_run_is_bit_identical():
    plain = run_type_a("is", "ATC", 2, rounds=1, horizon_s=20.0, seed=3)
    sane = run_type_a("is", "ATC", 2, rounds=1, horizon_s=20.0, seed=3, sanitize=True)
    assert plain == sane
