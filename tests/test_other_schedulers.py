"""Tests for BS, CS, DSS, VS and the scheduler registry."""

import pytest

from repro.guest.process import compute, recv_block, send, sleep
from repro.hypervisor.vm import VCPUState
from repro.schedulers.balance import BalanceParams, BalanceScheduler
from repro.schedulers.base import Scheduler, SchedulerParams
from repro.schedulers.coschedule import CoScheduleParams, CoScheduler
from repro.schedulers.dss import DSSParams, DSSScheduler
from repro.schedulers.registry import (
    SCHEDULERS,
    make_scheduler_factory,
    params_class,
    scheduler_class,
    scheduler_names,
)
from repro.schedulers.vslicer import VSlicerParams, VSlicerScheduler
from repro.sim.units import MSEC, USEC

from tests.conftest import add_guest_vm, make_node_world


def hog():
    while True:
        yield compute(10 * MSEC)


def start_hogs(vm, n=None):
    for _ in range(n if n is not None else len(vm.vcpus)):
        p = vm.kernel.add_process()
        p.load_program(hog())
        p.start()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_contains_paper_approaches():
    assert set(scheduler_names()) == {"CR", "CS", "BS", "DSS", "VS", "ATC"}
    for name in scheduler_names():
        assert issubclass(scheduler_class(name), Scheduler)
        assert issubclass(params_class(name), SchedulerParams)


def test_scheduler_names_derives_from_registry():
    # Regression: the name list is derived from SCHEDULERS (insertion
    # order preserved), not a hand-maintained tuple that can drift when a
    # scheduler is added to the dict.
    assert scheduler_names() == list(SCHEDULERS)


def test_registry_unknown_name():
    with pytest.raises(KeyError):
        make_scheduler_factory("NOPE")


def test_registry_param_type_check():
    with pytest.raises(TypeError):
        make_scheduler_factory("CS", BalanceParams())


@pytest.mark.parametrize("name", ["CR", "CS", "BS", "DSS", "VS", "ATC"])
def test_registry_builds_working_scheduler(name):
    sim, cluster, vmms = make_node_world(
        scheduler_factory=make_scheduler_factory(name)
    )
    vm = add_guest_vm(vmms[0], 1)
    start_hogs(vm)
    vmms[0].start()
    sim.run(until=100 * MSEC)
    assert vm.vcpus[0].total_run_ns > 50 * MSEC


# ----------------------------------------------------------------------
# Balance Scheduling
# ----------------------------------------------------------------------
def balance_world(n_pcpus=4):
    return make_node_world(
        n_pcpus=n_pcpus,
        scheduler_factory=lambda vmm: BalanceScheduler(vmm, BalanceParams()),
    )


def test_bs_places_siblings_on_distinct_queues():
    sim, cluster, vmms = balance_world(n_pcpus=4)
    vmm = vmms[0]
    vm = add_guest_vm(vmm, 4, name="smp")
    other = add_guest_vm(vmm, 4, name="other")
    start_hogs(vm)
    start_hogs(other)
    vmm.start()
    sched = vmm.scheduler

    def check_invariant():
        for qi, q in enumerate(sched.runqs):
            vms_in_q = [v.vm.name for v in q]
            cur = cluster.nodes[0].pcpus[qi].current
            if cur is not None:
                vms_in_q.append(cur.vm.name)
            assert len(vms_in_q) == len(set(vms_in_q)), f"queue {qi}: {vms_in_q}"

    for _ in range(50):
        sim.run(until=sim.now + 7 * MSEC)
        check_invariant()


def test_bs_falls_back_when_no_sibling_free_queue():
    sim, cluster, vmms = balance_world(n_pcpus=2)
    vmm = vmms[0]
    vm = add_guest_vm(vmm, 4, name="wide")  # more VCPUs than PCPUs
    start_hogs(vm)
    vmm.start()
    sim.run(until=500 * MSEC)
    # all four VCPUs still make progress despite the impossible constraint
    runs = [v.total_run_ns for v in vm.vcpus]
    assert min(runs) > 0


# ----------------------------------------------------------------------
# Co-Scheduling
# ----------------------------------------------------------------------
def cs_world(**kw):
    params = CoScheduleParams(**kw)
    return make_node_world(
        n_pcpus=2,
        scheduler_factory=lambda vmm: CoScheduler(vmm, params),
    )


def test_cs_triggers_gang_on_spin():
    sim, cluster, vmms = cs_world(spin_threshold_ns=1 * MSEC)
    vmm = vmms[0]
    vm = add_guest_vm(vmm, 2, name="spinny", is_parallel=True)
    other = add_guest_vm(vmm, 2, name="other")
    start_hogs(other)
    # two processes synchronizing via a contended barrier -> spin waits
    from repro.guest.spinlock import SpinBarrier
    from repro.guest.process import barrier

    bar = SpinBarrier(2)

    def bsp(grain_ms):
        while True:
            yield compute(grain_ms * MSEC)
            yield barrier(bar)

    # asymmetric ranks: the fast one spins at the barrier for ~8 ms/step
    for grain in (1, 9):
        p = vm.kernel.add_process()
        p.load_program(bsp(grain))
        p.start()
    vmm.start()
    sim.run(until=2_000 * MSEC)
    assert vmm.scheduler.gangs_triggered > 0


def test_cs_gang_preemption_policy():
    # default: gangs are preemptible (ratelimited boost, Xen-style)
    sim, cluster, vmms = cs_world()
    vmm = vmms[0]
    sched = vmm.scheduler
    vm = add_guest_vm(vmm, 1, name="co", is_parallel=True)
    start_hogs(vm)
    sched._co_vm = vm
    sched._co_until = 10**15
    pcpu = vm.vcpus[0].pcpu
    guest_waker = add_guest_vm(vmm, 1, name="g")
    assert sched._may_preempt(guest_waker.vcpus[0], pcpu) is True
    assert sched._may_preempt(vmm.dom0.vm.vcpus[0], pcpu) is True


def test_cs_strict_gang_mode_denies_guest_preemption():
    sim, cluster, vmms = cs_world(deny_gang_preemption=True)
    vmm = vmms[0]
    sched = vmm.scheduler
    vm = add_guest_vm(vmm, 1, name="co", is_parallel=True)
    start_hogs(vm)
    sched._co_vm = vm
    sched._co_until = 10**15
    pcpu = vm.vcpus[0].pcpu
    guest_waker = add_guest_vm(vmm, 1, name="g")
    assert sched._may_preempt(guest_waker.vcpus[0], pcpu) is False
    # dom0 remains privileged even in strict mode
    assert sched._may_preempt(vmm.dom0.vm.vcpus[0], pcpu) is True


def test_cs_slot_rotation_is_time_based():
    sim, cluster, vmms = cs_world(gang_slice_ns=30 * MSEC)
    vmm = vmms[0]
    sched = vmm.scheduler
    a = add_guest_vm(vmm, 1, name="a", is_parallel=True)
    b = add_guest_vm(vmm, 1, name="b", is_parallel=True)
    sched._flagged = [a, b]
    sched._slot_gang(0)
    first = sched._co_vm
    sched._slot_gang(30 * MSEC)
    second = sched._co_vm
    assert {first, second} == {a, b}


# ----------------------------------------------------------------------
# DSS
# ----------------------------------------------------------------------
def test_dss_assigns_slices_by_io_tier():
    params = DSSParams()
    sim, cluster, vmms = make_node_world(
        n_pcpus=2, scheduler_factory=lambda vmm: DSSScheduler(vmm, params)
    )
    vmm = vmms[0]
    sched = vmm.scheduler
    io_vm = add_guest_vm(vmm, 1, name="io")
    cpu_vm = add_guest_vm(vmm, 1, name="cpu")
    # fake per-period io activity directly
    for _ in range(3):
        io_vm.count_io_event(100)
        sched.on_period(sim.now)
    assert io_vm.slice_ns == params.hi_slice_ns
    assert cpu_vm.slice_ns is None  # default 30 ms for pure CPU


def test_dss_mid_tier():
    params = DSSParams(io_lo_per_period=1.0, io_hi_per_period=50.0, ewma_alpha=1.0)
    sim, cluster, vmms = make_node_world(
        n_pcpus=2, scheduler_factory=lambda vmm: DSSScheduler(vmm, params)
    )
    vmm = vmms[0]
    vm = add_guest_vm(vmm, 1)
    vm.count_io_event(5)
    vmm.scheduler.on_period(0)
    assert vm.slice_ns == params.mid_slice_ns


def test_dss_ewma_smooths_flapping():
    params = DSSParams(io_lo_per_period=1.0, ewma_alpha=0.5)
    sim, cluster, vmms = make_node_world(
        n_pcpus=2, scheduler_factory=lambda vmm: DSSScheduler(vmm, params)
    )
    vmm = vmms[0]
    vm = add_guest_vm(vmm, 1)
    vm.count_io_event(4)
    vmm.scheduler.on_period(0)
    assert vm.slice_ns == params.mid_slice_ns
    # one silent period: EWMA (2.0) still above the low tier
    vmm.scheduler.on_period(1)
    assert vm.slice_ns == params.mid_slice_ns


# ----------------------------------------------------------------------
# vSlicer
# ----------------------------------------------------------------------
def test_vs_classifies_latency_sensitive_vm():
    params = VSlicerParams()
    sim, cluster, vmms = make_node_world(
        n_pcpus=2, scheduler_factory=lambda vmm: VSlicerScheduler(vmm, params)
    )
    vmm = vmms[0]
    ls = add_guest_vm(vmm, 1, name="ls")
    cpu = add_guest_vm(vmm, 1, name="cpu")
    start_hogs(cpu)

    def pinger():
        while True:
            yield sleep(2 * MSEC)
            yield compute(50 * USEC)

    p = ls.kernel.add_process()
    p.load_program(pinger())
    p.start()
    vmm.start()
    sim.run(until=300 * MSEC)
    assert ls.vmid in vmm.scheduler.ls_vms
    assert ls.slice_ns == params.micro_slice_ns
    assert cpu.vmid not in vmm.scheduler.ls_vms
    assert cpu.slice_ns is None
