"""Tests for the non-intrusive run-queue-wait monitor (the paper's
future-work variant: no guest instrumentation)."""

import pytest

from repro.core.config import ATCConfig
from repro.core.monitor import SpinLatencyMonitor
from repro.experiments.harness import CloudWorld, WorldConfig
from repro.schedulers.atc_sched import ATCParams
from repro.sim.units import MSEC, SEC, USEC

from tests.conftest import add_guest_vm, make_node_world


def test_config_validates_monitor_mode():
    ATCConfig(monitor_mode="guest")
    ATCConfig(monitor_mode="queuewait")
    with pytest.raises(ValueError):
        ATCConfig(monitor_mode="telepathy")


def test_vmm_accounts_queue_wait():
    from repro.guest.process import compute

    sim, cluster, vmms = make_node_world(n_pcpus=1)
    vmm = vmms[0]
    vms = [add_guest_vm(vmm, 1, name=f"v{i}") for i in range(2)]
    for vm in vms:
        p = vm.kernel.add_process()

        def hog():
            while True:
                yield compute(10 * MSEC)

        p.load_program(hog())
        p.start()
    vmm.start()
    sim.run(until=300 * MSEC)
    # with two hogs sharing one PCPU, both accumulate run-queue waits
    mon = SpinLatencyMonitor(ATCConfig(monitor_mode="queuewait"))
    for vm in vms:
        total, count = vm.total_queue_wait_ns, vm.total_queue_waits
        assert count > 0
        assert total > 0
        # the monitor reads the whole ledger once, then nothing new ...
        assert mon.end_period(vm, 30 * MSEC).latencies == [total / count]
        assert mon.end_period(vm, 30 * MSEC).latencies[-1] == 0.0
        # ... and reading leaves the cumulative ledger untouched
        assert (vm.total_queue_wait_ns, vm.total_queue_waits) == (total, count)


def test_monitor_reads_queue_wait_in_queuewait_mode():
    sim, cluster, vmms = make_node_world()
    vm = add_guest_vm(vmms[0], 1)
    vm.total_queue_wait_ns = 5 * USEC
    vm.total_queue_waits = 2
    vm.kernel.record_spin_wait(999_999, "lock")  # must be ignored
    mon = SpinLatencyMonitor(ATCConfig(monitor_mode="queuewait"))
    st = mon.end_period(vm, 30 * MSEC)
    assert st.latencies == [2500.0]
    # the next period reads only what the ledger gained since
    vm.total_queue_wait_ns += 9 * USEC
    vm.total_queue_waits += 3
    st = mon.end_period(vm, 30 * MSEC)
    assert st.latencies == [2500.0, 3000.0]


def test_nonintrusive_atc_accelerates_like_guest_mode():
    def run(mode):
        params = ATCParams(atc=ATCConfig(monitor_mode=mode))
        world = CloudWorld(WorldConfig(n_nodes=2, scheduler="ATC", seed=0, sched_params=params))
        apps = []
        for k in range(4):
            vc = world.virtual_cluster(2, name=f"vc{k}")
            apps.append(world.add_npb("is", vc.vms, rounds=2, warmup_rounds=1))
        world.run(horizon_ns=120 * SEC)
        assert world.all_apps_done
        slices = {vm.slice_ns for vm in world.vms if vm.is_parallel}
        return sum(a.mean_round_ns for a in apps) / len(apps), slices

    guest_time, guest_slices = run("guest")
    qw_time, qw_slices = run("queuewait")
    # both converge to the minimum threshold and perform comparably
    assert qw_slices == guest_slices == {ATCConfig().min_threshold_ns}
    assert qw_time < 1.3 * guest_time
