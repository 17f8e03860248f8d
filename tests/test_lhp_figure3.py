"""Figure 3 reproduction: lock-holder preemption makes the lock-waiter's
spinlock latency a multiple of the time slice.

Setup mirrors the figure: VCPU0 (lock holder) and VCPU1 (lock waiter)
belong to the same VM and run on different PCPUs; other VMs' VCPUs occupy
the slices marked 'X'.  When VCPU0 is preempted while holding the lock,
VCPU1 spins across entire slices of the competing VMs — so the measured
latency scales with the slice length, the paper's core observation."""

from repro.guest.process import call, compute, lock
from repro.guest.spinlock import SpinLock
from repro.sim.units import MSEC, USEC

from tests.conftest import add_guest_vm, make_node_world


def lhp_latency(slice_ns: int) -> int:
    """Spinlock wait of the lock waiter when the holder gets preempted."""
    sim, cluster, vmms = make_node_world(n_nodes=1, n_pcpus=2)
    vmm = vmms[0]
    vm = add_guest_vm(vmm, 2, name="par", is_parallel=True)
    vm.slice_ns = slice_ns
    # two competitor VMs so the holder has to wait a full rotation
    comp_a = add_guest_vm(vmm, 2, name="compA")
    comp_b = add_guest_vm(vmm, 2, name="compB")
    comp_a.slice_ns = slice_ns
    comp_b.slice_ns = slice_ns

    lk = SpinLock("fig3")
    holder = vm.kernel.add_process()
    waiter = vm.kernel.add_process()

    def holder_prog():
        # long critical section: guaranteed to be preempted mid-hold
        yield lock(lk, 3 * slice_ns // 2)

    def waiter_prog():
        yield compute(10 * USEC)  # let the holder take the lock first
        yield lock(lk, 1 * USEC)

    def hog():
        while True:
            yield compute(10 * MSEC)

    holder.load_program(holder_prog())
    waiter.load_program(waiter_prog())
    for cvm in (comp_a, comp_b):
        for i in range(2):
            p = cvm.kernel.add_process()
            p.load_program(hog())
            p.start()
    holder.start()
    waiter.start()
    sim.run(until=3000 * MSEC)
    assert waiter.done, "waiter never got the lock"
    return waiter.total_spin_ns


def test_lhp_latency_spans_multiple_slices():
    # waiter spun across at least two competitor slices (Fig. 3 shows 3),
    # at every slice length
    for slice_ns in (10 * MSEC, 5 * MSEC, 1 * MSEC):
        assert lhp_latency(slice_ns) >= 2 * slice_ns


def test_lhp_latency_scales_with_slice_length():
    w_long, w_mid, w_short = (lhp_latency(s * MSEC) for s in (10, 5, 1))
    # shortening the slice shrinks the LHP-induced spinlock latency
    assert w_long > w_mid > w_short
    assert w_short < w_long / 3
