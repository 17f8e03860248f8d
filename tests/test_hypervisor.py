"""Tests for VM/VCPU state machines and the VMM dispatch machinery."""

import pytest

from repro.guest.process import compute
from repro.hypervisor.vm import NO_RUNNER, VCPUState, VM
from repro.sim.units import MSEC, USEC

from tests.conftest import add_guest_vm, make_node_world


class StubRunner:
    """Minimal runner: compute ``work_ns`` then block; records events."""

    cache_sensitivity = 1.0

    def __init__(self, sim, work_ns=None):
        self.sim = sim
        self.work_ns = work_ns
        self.vcpu = None
        self.dispatches = []
        self.preempts = []
        self.overheads = []
        self._ev = None
        self._remaining = work_ns
        self._started = 0
        self.finished_at = None

    def on_dispatch(self, now, overhead_ns):
        self.dispatches.append(now)
        self.overheads.append(overhead_ns)
        if self._remaining is not None:
            self._started = now
            self._ev = self.sim.after(self._remaining + overhead_ns, self._done)

    def on_preempt(self, now):
        self.preempts.append(now)
        if self._ev is not None:
            self._ev.cancel()
            self._remaining = max(0, self._remaining - (now - self._started))
            self._ev = None

    def _done(self):
        self._ev = None
        self._remaining = None
        self.finished_at = self.sim.now
        self.vcpu.block()


def attach_stub(sim, vm, idx=0, work_ns=None):
    r = StubRunner(sim, work_ns)
    vm.vcpus[idx].runner = r
    r.vcpu = vm.vcpus[idx]
    return r


def test_vcpu_initially_blocked(single_node):
    sim, cluster, vmm = single_node
    vm = add_guest_vm(vmm, 2)
    assert all(v.state is VCPUState.BLOCKED for v in vm.vcpus)


def test_wake_dispatches_on_idle_pcpu(single_node):
    sim, cluster, vmm = single_node
    vm = VM(vmm.node, 1)
    vmm.add_vm(vm)
    r = attach_stub(sim, vm, work_ns=5 * USEC)
    vm.vcpus[0].wake()
    assert vm.vcpus[0].state is VCPUState.RUNNING
    sim.run()
    assert r.finished_at == 5 * USEC + r.overheads[0]
    assert vm.vcpus[0].state is VCPUState.BLOCKED


def test_vcpu_without_runner_survives_slice_end_preempt_and_pause(single_node):
    """A woken VCPU nothing is attached to holds its PCPU slice after
    slice; every deschedule path tolerates it."""
    sim, cluster, vmm = single_node
    vm = VM(vmm.node, 1)
    vmm.add_vm(vm)
    vcpu = vm.vcpus[0]
    assert vcpu.runner is NO_RUNNER
    vcpu.wake()
    sim.run(until=100 * MSEC)  # three 30 ms slice expiries
    assert vcpu.state is VCPUState.RUNNING
    assert vcpu.total_run_ns == 90 * MSEC
    vmm.preempt(vcpu.pcpu)
    assert vcpu.state is VCPUState.RUNNING  # re-picked: nothing else runs
    vmm.pause_vm(vm)
    assert vcpu.state is VCPUState.BLOCKED
    vmm.resume_vm(vm)
    sim.run(until=200 * MSEC)
    assert vcpu.state is VCPUState.RUNNING
    assert vcpu.total_run_ns == 190 * MSEC


def test_block_requires_running(single_node):
    sim, cluster, vmm = single_node
    vm = VM(vmm.node, 1)
    vmm.add_vm(vm)
    attach_stub(sim, vm)
    with pytest.raises(RuntimeError):
        vm.vcpus[0].block()


def test_wake_is_idempotent_when_runnable(single_node):
    sim, cluster, vmm = single_node
    vm = VM(vmm.node, 1)
    vmm.add_vm(vm)
    attach_stub(sim, vm, work_ns=MSEC)
    vm.vcpus[0].wake()
    state = vm.vcpus[0].state
    vm.vcpus[0].wake()  # no-op
    assert vm.vcpus[0].state is state


def test_slice_end_requeues_and_rotates(single_node):
    """Two CPU-hungry VCPUs on one PCPU alternate on slice boundaries."""
    sim, cluster, vmm = single_node
    # one PCPU only: constrain by using node with 2 pcpus but 3 runners so
    # at least two share one queue; simpler: use big work and check both
    # finish interleaved.
    vm1 = VM(vmm.node, 1, name="a")
    vm2 = VM(vmm.node, 1, name="b")
    vm3 = VM(vmm.node, 1, name="c")
    for vm in (vm1, vm2, vm3):
        vmm.add_vm(vm)
    r1 = attach_stub(sim, vm1, work_ns=70 * MSEC)
    r2 = attach_stub(sim, vm2, work_ns=70 * MSEC)
    r3 = attach_stub(sim, vm3, work_ns=70 * MSEC)
    for vm in (vm1, vm2, vm3):
        vm.vcpus[0].wake()
    sim.run(until=500 * MSEC)
    # 3 runners on 2 PCPUs: everyone should finish, with preemptions.
    assert r1.finished_at and r2.finished_at and r3.finished_at
    total_preempts = len(r1.preempts) + len(r2.preempts) + len(r3.preempts)
    assert total_preempts >= 2  # slice ends happened
    # CPU accounting: each consumed at least its work
    for vm, r in ((vm1, r1), (vm2, r2), (vm3, r3)):
        assert vm.vcpus[0].total_run_ns >= 70 * MSEC


def test_context_switch_overhead_charged_once_per_switch(single_node):
    sim, cluster, vmm = single_node
    vm = VM(vmm.node, 1)
    vmm.add_vm(vm)
    r = attach_stub(sim, vm, work_ns=MSEC)
    vm.vcpus[0].wake()
    sim.run()
    # first dispatch on a cold pcpu: ctx switch + full refill
    expected = vmm.node.params.ctx_switch_ns + vmm.node.params.cache.refill_ns
    assert r.overheads[0] == expected


def test_same_vcpu_redispatch_has_no_overhead(single_node):
    sim, cluster, vmm = single_node
    vm = VM(vmm.node, 1, name="solo")
    vmm.add_vm(vm)

    # Runner that blocks briefly and resumes on the same (otherwise idle)
    # PCPU: the second dispatch must be free.
    r = attach_stub(sim, vm, work_ns=MSEC)
    vm.vcpus[0].wake()
    sim.run()
    first_overhead = r.overheads[0]
    r._remaining = MSEC
    vm.vcpus[0].wake()
    sim.run()
    assert first_overhead > 0
    assert r.overheads[1] == 0


def test_preempt_mid_slice_preserves_progress(single_node):
    sim, cluster, vmm = single_node
    vm1 = VM(vmm.node, 1, name="w")
    vmm.add_vm(vm1)
    r = attach_stub(sim, vm1, work_ns=10 * MSEC)
    vm1.vcpus[0].wake()
    sim.run(until=4 * MSEC)
    pcpu = vm1.vcpus[0].pcpu
    vmm.preempt(pcpu)
    # With no competitor the VCPU is immediately re-picked, but the
    # preemption was observed by the runner and progress was preserved.
    assert r.preempts == [4 * MSEC]
    assert r._remaining == 6 * MSEC  # 4 ms of wall time consumed
    sim.run()
    # total work time equals requested work plus overheads
    assert r.finished_at is not None
    assert vm1.vcpus[0].total_run_ns >= 10 * MSEC


def test_dispatch_on_busy_pcpu_rejected(single_node):
    sim, cluster, vmm = single_node
    vm = VM(vmm.node, 1)
    vmm.add_vm(vm)
    attach_stub(sim, vm, work_ns=MSEC)
    vm.vcpus[0].wake()
    with pytest.raises(RuntimeError):
        vmm.dispatch(vm.vcpus[0].pcpu)


def test_add_vm_wrong_node_rejected():
    sim, cluster, vmms = make_node_world(n_nodes=2)
    vm = VM(cluster.nodes[0], 1)
    with pytest.raises(ValueError):
        vmms[1].add_vm(vm)


def test_period_tick_runs_hooks(single_node):
    sim, cluster, vmm = single_node
    ticks = []
    vmm.period_hooks.append(lambda now: ticks.append(now))
    vmm.start()
    sim.run(until=100 * MSEC)
    assert ticks == [30 * MSEC, 60 * MSEC, 90 * MSEC]


def test_start_idempotent(single_node):
    sim, cluster, vmm = single_node
    vmm.start()
    vmm.start()
    sim.run(until=35 * MSEC)
    # only one tick chain: next pending tick is exactly one event
    assert sim.pending() == 1


def test_guest_vms_excludes_dom0(single_node):
    sim, cluster, vmm = single_node
    vm = add_guest_vm(vmm, 1)
    names = [v.name for v in vmm.guest_vms]
    assert vm.name in names
    assert not any(n.startswith("dom0") for n in names)


def test_vm_admin_slice_and_io_counters(single_node):
    sim, cluster, vmm = single_node
    vm = add_guest_vm(vmm, 1)
    vm.count_io_event()
    vm.count_io_event(3)
    assert vm.period_io_events == 4
    assert vm.total_io_events == 4
    assert vm.drain_period_io() == 4
    assert vm.period_io_events == 0
    assert vm.total_io_events == 4


def test_deliver_without_kernel_raises(single_node):
    sim, cluster, vmm = single_node
    vm = VM(vmm.node, 1)
    vmm.add_vm(vm)
    with pytest.raises(RuntimeError):
        vm.deliver(object())
