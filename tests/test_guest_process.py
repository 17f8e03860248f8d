"""Tests for the guest process state machine: segments, preemption,
spin-then-block semantics."""

import pytest

from repro.experiments.scenarios import run_type_a
from repro.guest.process import (
    PAST_SLICE,
    GuestProcess,
    barrier,
    call,
    compute,
    lock,
    recv,
    recv_block,
    send,
    sleep,
)
from repro.guest.spinlock import SpinBarrier, SpinLock
from repro.hypervisor.vm import VCPUState
from repro.hypervisor.vmm import VMM
from repro.sim.engine import Event, simulator_hook
from repro.sim.units import MSEC, USEC

from tests.conftest import add_guest_vm, make_node_world


def world_with_procs(n_procs=1, n_pcpus=2, spin_block_ns=None, n_vcpus=None):
    sim, cluster, vmms = make_node_world(n_nodes=1, n_pcpus=n_pcpus)
    vm = add_guest_vm(vmms[0], n_vcpus or n_procs, spin_block_ns=spin_block_ns)
    procs = [vm.kernel.add_process() for _ in range(n_procs)]
    return sim, vm, procs


def test_compute_and_finish():
    sim, vm, (p,) = world_with_procs()
    finished = []

    def prog():
        yield compute(3 * MSEC)

    p.load_program(prog())
    p.on_done = lambda proc: finished.append(sim.now)
    p.start()
    sim.run()
    # 3 ms of work plus first-dispatch overhead
    assert finished and finished[0] >= 3 * MSEC
    assert finished[0] < 4 * MSEC
    assert p.done and p.state == "done"


def test_call_segment_runs_inline():
    sim, vm, (p,) = world_with_procs()
    seen = []

    def prog():
        yield call(lambda now: seen.append(("a", now)))
        yield compute(1 * MSEC)
        yield call(lambda now: seen.append(("b", now)))

    p.load_program(prog())
    p.start()
    sim.run()
    assert seen[0][0] == "a"
    assert seen[1][0] == "b"
    assert seen[1][1] - seen[0][1] >= 1 * MSEC


def test_sleep_blocks_vcpu():
    sim, vm, (p,) = world_with_procs()

    def prog():
        yield sleep(10 * MSEC)
        yield compute(1 * USEC)

    p.load_program(prog())
    done = []
    p.on_done = lambda proc: done.append(sim.now)
    p.start()
    sim.run(until=5 * MSEC)
    assert p.vcpu.state is VCPUState.BLOCKED
    sim.run()
    assert done and done[0] >= 10 * MSEC


def test_cannot_load_program_while_running():
    sim, vm, (p,) = world_with_procs()
    p.load_program(iter([compute(MSEC)]))
    p.start()
    sim.run(until=100)
    with pytest.raises(RuntimeError):
        p.load_program(iter([]))


def test_start_without_program_raises():
    sim, vm, (p,) = world_with_procs()
    with pytest.raises(RuntimeError):
        p.start()


def test_program_reload_after_done():
    sim, vm, (p,) = world_with_procs()
    p.load_program(iter([compute(1 * USEC)]))
    p.start()
    sim.run()
    assert p.done
    p.load_program(iter([compute(1 * USEC)]))
    p.start()
    sim.run()
    assert p.done


def test_uncontended_lock_immediate():
    sim, vm, (p,) = world_with_procs()
    lk = SpinLock("l")

    def prog():
        yield lock(lk, 10 * USEC)

    p.load_program(prog())
    p.start()
    sim.run()
    assert lk.holder is None
    assert lk.acquisitions == 1
    assert lk.contended_acquisitions == 0
    assert p.total_spin_ns == 0


def test_contended_lock_fifo_and_latency_recorded():
    sim, vm, procs = world_with_procs(n_procs=2, n_pcpus=2)
    lk = SpinLock("l")
    order = []

    def prog(i):
        yield lock(lk, 1 * MSEC)
        yield call(lambda now: order.append(i))

    procs[0].load_program(prog(0))
    procs[1].load_program(prog(1))
    procs[0].start()
    procs[1].start()
    sim.run()
    assert sorted(order) == [0, 1]
    assert lk.contended_acquisitions == 1
    # the loser spun for about the winner's hold time
    assert vm.kernel.total_spin_ns >= 0.8 * MSEC


def test_lock_release_by_non_holder_raises():
    lk = SpinLock("l")

    class P:
        name = "p"

    with pytest.raises(RuntimeError):
        lk.release(P())


def test_recursive_acquire_raises():
    sim, vm, (p,) = world_with_procs()
    lk = SpinLock("l")
    assert lk.acquire(p) is True
    with pytest.raises(RuntimeError):
        lk.acquire(p)


def test_barrier_all_ranks_cross_together():
    sim, vm, procs = world_with_procs(n_procs=4, n_pcpus=4)
    bar = SpinBarrier(4)
    crossing_times = []

    def prog(i):
        yield compute((i + 1) * MSEC)  # staggered arrivals
        yield barrier(bar)
        yield call(lambda now: crossing_times.append(now))

    for i, p in enumerate(procs):
        p.load_program(prog(i))
        p.start()
    sim.run()
    assert len(crossing_times) == 4
    assert bar.generation == 1
    assert bar.crossings == 1
    # nobody crosses before the slowest arrival (~4 ms)
    assert min(crossing_times) >= 4 * MSEC
    # early arrivals recorded spin latency
    assert vm.kernel.total_spin_count >= 3


def test_barrier_reusable_across_generations():
    sim, vm, procs = world_with_procs(n_procs=2, n_pcpus=2)
    bar = SpinBarrier(2)

    def prog(i):
        for _ in range(5):
            yield compute(100 * USEC)
            yield barrier(bar)

    for i, p in enumerate(procs):
        p.load_program(prog(i))
        p.start()
    sim.run()
    assert bar.generation == 5
    assert all(p.done for p in procs)


def test_recv_busywait_consumes_cpu_until_message():
    """Busy-wait receive burns the VCPU while waiting (overcommitment
    waste), then resumes when the message arrives."""
    sim, vm, procs = world_with_procs(n_procs=2, n_pcpus=2)
    rx, tx = procs

    def rprog():
        yield recv(1)
        yield compute(1 * USEC)

    def tprog():
        yield compute(5 * MSEC)
        yield send(vm, rx.index, 64)

    rx.load_program(rprog())
    tx.load_program(tprog())
    rx.start()
    tx.start()
    sim.run(until=3 * MSEC)
    assert rx.vcpu.state is VCPUState.RUNNING  # spinning, not blocked
    sim.run(until=200 * MSEC)
    assert rx.done
    assert rx.total_spin_ns >= 4 * MSEC  # waited ~5ms + delivery


def test_recv_block_sleeps_until_message():
    sim, vm, procs = world_with_procs(n_procs=2, n_pcpus=2)
    rx, tx = procs

    def rprog():
        yield recv_block(1)

    def tprog():
        yield compute(5 * MSEC)
        yield send(vm, rx.index, 64)

    rx.load_program(rprog())
    tx.load_program(tprog())
    rx.start()
    tx.start()
    sim.run(until=3 * MSEC)
    assert rx.vcpu.state is VCPUState.BLOCKED
    sim.run(until=200 * MSEC)
    assert rx.done


def test_recv_already_satisfied_consumes_inline():
    sim, vm, procs = world_with_procs(n_procs=2, n_pcpus=2)
    rx, tx = procs

    def rprog():
        yield compute(20 * MSEC)  # message arrives while computing
        yield recv(1)

    def tprog():
        yield send(vm, rx.index, 64)

    rx.load_program(rprog())
    tx.load_program(tprog())
    rx.start()
    tx.start()
    sim.run(until=400 * MSEC)
    assert rx.done
    # no spin was needed for the receive
    assert rx.total_spin_ns == 0


def test_spin_then_block_yields_cpu():
    """With a finite grace budget the spinner blocks after the budget."""
    sim, vm, procs = world_with_procs(n_procs=2, n_pcpus=2, spin_block_ns=500 * USEC)
    rx, tx = procs

    def rprog():
        yield recv(1)

    def tprog():
        yield compute(20 * MSEC)
        yield send(vm, rx.index, 64)

    rx.load_program(rprog())
    tx.load_program(tprog())
    rx.start()
    tx.start()
    sim.run(until=5 * MSEC)
    assert rx.vcpu.state is VCPUState.BLOCKED  # grace exhausted
    sim.run(until=400 * MSEC)
    assert rx.done
    # full wait (including blocked stretch) was recorded as spin latency
    assert rx.total_spin_ns >= 15 * MSEC


def test_unknown_segment_raises():
    sim, vm, (p,) = world_with_procs()
    p.load_program(iter([("bogus",)]))
    p.start()
    with pytest.raises(ValueError):
        sim.run()


def test_messages_counters():
    sim, vm, procs = world_with_procs(n_procs=2, n_pcpus=2)
    rx, tx = procs
    rx.load_program(iter([recv_block(3)]))

    def tprog():
        for _ in range(3):
            yield send(vm, rx.index, 10)

    tx.load_program(tprog())
    rx.start()
    tx.start()
    sim.run(until=100 * MSEC)
    assert tx.messages_sent == 3
    assert rx.messages_received == 3
    assert vm.total_io_events >= 6  # 3 sends + 3 deliveries


# ----------------------------------------------------------------------
# Slice-bounded timers: no guest timer is armed past the slice deadline
# ----------------------------------------------------------------------
SLICE = 1 * MSEC


def one_pcpu_world(n_procs, tie_order="fifo", spin_block_ns=None):
    """``n_procs`` processes sharing one PCPU under a 1 ms slice."""
    sim, cluster, vmms = make_node_world(n_nodes=1, n_pcpus=1, tie_order=tie_order)
    vm = add_guest_vm(vmms[0], n_procs, spin_block_ns=spin_block_ns)
    vm.slice_ns = SLICE
    return sim, vm, [vm.kernel.add_process() for _ in range(n_procs)]


def _arm_unclipped(self, delay, timer):
    return self.sim.rearm(timer, self.sim.now + delay)


def run_contended(monkeypatch, clipped):
    """Three processes sharing one PCPU: computes and critical
    sections outlast the slice, and a 1.5 ms spin-grace budget outlasts
    what is left of it, so work and grace timers both cross slice ends."""
    with monkeypatch.context() as m:
        if not clipped:
            m.setattr(GuestProcess, "_arm", _arm_unclipped)
        sim, vm, procs = one_pcpu_world(3, spin_block_ns=1500 * USEC)
        lk = SpinLock("lk")
        done = {}

        def prog():
            for _ in range(6):
                yield compute(2300 * USEC)
                yield lock(lk, 700 * USEC)

        for p in procs:
            p.load_program(prog())
            p.on_done = lambda proc: done.setdefault(proc.index, sim.now)
            p.start()
        sim.run(until=200 * MSEC)
    outcome = {
        "done": done,
        "spin": [p.total_spin_ns for p in procs],
        "run": [p.vcpu.total_run_ns for p in procs],
        "now": sim.now,
        "events": sim.events_processed,
    }
    return outcome, sim


def test_guest_timers_never_outlive_the_slice(monkeypatch):
    """After every dispatch, each live guest timer is due no later than
    its PCPU's slice deadline; longer work holds the stand-in instead."""
    sim, vm, procs = one_pcpu_world(2)
    overheads = {p.index: 0 for p in procs}
    clipped = []
    dispatch = VMM.dispatch
    on_dispatch = GuestProcess.on_dispatch

    def checked_dispatch(self, pcpu):
        dispatch(self, pcpu)
        for ev in sim.live_events():
            if ev.cat == "guest":
                assert ev.time <= ev.fn.__self__.vcpu.pcpu.slice_end_ns
        if pcpu.current is not None:
            clipped.append(pcpu.current.runner._work_ev is PAST_SLICE)

    def counted_on_dispatch(self, now, overhead_ns):
        if self.state == "compute":
            overheads[self.index] += overhead_ns
        on_dispatch(self, now, overhead_ns)

    monkeypatch.setattr(VMM, "dispatch", checked_dispatch)
    monkeypatch.setattr(GuestProcess, "on_dispatch", counted_on_dispatch)
    done = {}
    for p in procs:
        p.load_program(iter([compute(5500 * USEC)]))
        p.on_done = lambda proc: done.setdefault(proc.index, sim.now)
        p.start()
    sim.run(until=100 * MSEC)
    assert sorted(done) == [0, 1]
    assert any(clipped)
    for p in procs:
        # Preemptions settled progress from the clock: the CPU each VCPU
        # got is exactly its work plus the overhead charged to it.
        assert p.vcpu.total_run_ns == 5500 * USEC + overheads[p.index]
        assert overheads[p.index] > 0


def test_slice_bounded_timers_change_no_outcome(monkeypatch):
    """Arming every guest timer unclipped gives the same completion
    instants, spin and CPU totals and executed-event count."""
    clipped, sim_clipped = run_contended(monkeypatch, clipped=True)
    unclipped, sim_unclipped = run_contended(monkeypatch, clipped=False)
    assert sorted(clipped["done"]) == [0, 1, 2]
    assert max(clipped["spin"]) > 0
    assert clipped == unclipped
    assert sim_clipped.cancelled_popped < sim_unclipped.cancelled_popped


@pytest.mark.parametrize("tie_order", ["fifo", "reversed"])
def test_timer_due_exactly_at_slice_end_is_armed(tie_order):
    """The rule is strict: work ending exactly at the deadline keeps its
    real timer (the tie order decides which runs first); one nanosecond
    more and it holds the stand-in."""
    sim, vm, (p,) = one_pcpu_world(1, tie_order=tie_order)
    done = []
    p.load_program(iter([compute(SLICE)]))
    p.on_done = lambda proc: done.append(sim.now)
    p.start()
    sim.run(until=0)
    assert isinstance(p._work_timer, Event)
    assert p._work_ev is p._work_timer  # the owner's one handle, re-armed
    assert p._work_ev.time == p.vcpu.pcpu.slice_end_ns == SLICE
    sim.run(until=10 * MSEC)
    assert done == [SLICE]

    sim, vm, (p,) = one_pcpu_world(1, tie_order=tie_order)
    p.load_program(iter([compute(SLICE + 1)]))
    p.start()
    sim.run(until=0)
    assert p._work_ev is PAST_SLICE


def test_atc_cell_cancels_few_events():
    """Under converged ATC slices, computes outlast most slices; arming
    their timers anyway made ~58% of this cell's executed-event count
    pop back out of the queue as cancelled entries."""
    sims = []
    with simulator_hook(sims.append):
        r = run_type_a("lu", "ATC", 2, rounds=None, npb_class="A", horizon_s=1.0)
    (sim,) = sims
    assert r["rounds_measured"] > 0
    assert sim.cancelled_popped < 0.05 * sim.events_processed
