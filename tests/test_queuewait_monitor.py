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


def test_migrated_vm_is_read_from_the_old_hosts_last_read(monkeypatch):
    """A VM that arrives by live migration keeps its read baseline: the
    new host's first period sees only the waits since the old host's
    last read, not the VM's whole ledger."""
    from repro.migration import MigrationConfig, MigrationParams
    from repro.migration.engine import MIB

    reads = []  # (monitor, ledger ns, ledger count, latency) per read of the migrant
    end_period = SpinLatencyMonitor.end_period

    def spy(self, vm, *args):
        st = end_period(self, vm, *args)
        if vm.name == "vc0.vm0":
            reads.append((self, vm.total_queue_wait_ns, vm.total_queue_waits, st.latencies[-1]))
        return st

    monkeypatch.setattr(SpinLatencyMonitor, "end_period", spy)
    world = CloudWorld(WorldConfig(
        n_nodes=2, scheduler="ATC", seed=0,
        sched_params=ATCParams(atc=ATCConfig(monitor_mode="queuewait")),
        migration=MigrationConfig(params=MigrationParams(mem_bytes=2 * MIB))))
    vc = world.virtual_cluster(2, name="vc0", node_indices=[0, 0])
    world.add_npb("is", vc.vms, rounds=None, warmup_rounds=0)
    world.run(horizon_ns=300 * MSEC)
    vm = vc.vms[0]
    old, new = (world.vmms[i].scheduler.controller.monitor for i in (0, 1))
    assert world.migration_engine.start(vm, 1)
    world.run(horizon_ns=300 * MSEC)
    assert vm.node is world.cluster.nodes[1]

    _, seen_ns, seen_n, _ = [r for r in reads if r[0] is old][-1]
    assert seen_n > 0 and seen_ns > 0  # the old host read accumulated waits
    _, ns, n, latency = next(r for r in reads if r[0] is new)
    assert n > seen_n
    assert latency == (ns - seen_ns) / (n - seen_n)
