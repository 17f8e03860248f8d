"""Tests for the CloudWorld experiment facade."""

import pytest

from repro.experiments.harness import CloudWorld, WorldConfig
from repro.metrics.collectors import cluster_stats, node_stats, vm_stats
from repro.sim.units import MSEC, SEC, ns_from_ms


def test_world_wiring_defaults():
    w = CloudWorld()
    assert len(w.vmms) == 2
    assert all(vmm.dom0 is not None for vmm in w.vmms)
    assert w.cluster.n_pcpus == 16
    assert w.config.scheduler == "CR"


def test_new_vm_spreads_across_nodes():
    w = CloudWorld(WorldConfig(n_nodes=2))
    vms = [w.new_vm(name=f"v{i}") for i in range(4)]
    nodes = [vm.node.index for vm in vms]
    assert nodes.count(0) == 2 and nodes.count(1) == 2
    assert all(vm.kernel is not None for vm in vms)


def test_new_vm_capacity_enforced():
    w = CloudWorld(WorldConfig(n_nodes=1, vms_per_node=2))
    w.new_vm()
    w.new_vm()
    with pytest.raises(RuntimeError):
        w.new_vm()
    with pytest.raises(RuntimeError):
        w.new_vm(node_idx=0)


def test_virtual_cluster_spread_one_vm_per_node():
    w = CloudWorld(WorldConfig(n_nodes=4))
    vc = w.virtual_cluster(4, name="vc")
    assert sorted(vm.node.index for vm in vc.vms) == [0, 1, 2, 3]
    assert all(vm.is_parallel for vm in vc.vms)
    assert vc.name == "vc"


def test_virtual_cluster_pack_placement():
    w = CloudWorld(WorldConfig(n_nodes=2, vms_per_node=4))
    vc = w.virtual_cluster(3, placement="pack")
    assert [vm.node.index for vm in vc.vms] == [0, 0, 0]


def test_virtual_cluster_explicit_nodes():
    w = CloudWorld(WorldConfig(n_nodes=3))
    vc = w.virtual_cluster(2, node_indices=[2, 2])
    assert [vm.node.index for vm in vc.vms] == [2, 2]


def test_uniform_slice_applied_to_guests():
    w = CloudWorld(WorldConfig(uniform_slice_ns=ns_from_ms(5)))
    vm = w.new_vm()
    assert vm.slice_ns == ns_from_ms(5)


@pytest.mark.parametrize("slice_ns", [0, -ns_from_ms(1)])
def test_non_positive_uniform_slice_is_rejected(slice_ns):
    # a zero slice used to livelock at t=0; a negative one failed deep in
    # the engine
    with pytest.raises(ValueError, match="uniform_slice_ns"):
        WorldConfig(uniform_slice_ns=slice_ns)


def test_run_stops_when_tracked_apps_finish():
    w = CloudWorld(WorldConfig(n_nodes=2, seed=1))
    vc = w.virtual_cluster(2)
    app = w.add_npb("is", vc.vms, rounds=1, warmup_rounds=0)
    w.run(horizon_ns=600 * SEC)
    assert app.finished
    assert w.all_apps_done
    assert w.sim.now < 600 * SEC  # stopped early


def test_background_apps_do_not_gate_run():
    w = CloudWorld(WorldConfig(n_nodes=2, seed=1))
    vc = w.virtual_cluster(2)
    bg = w.add_npb("is", vc.vms, rounds=None, warmup_rounds=0)
    w.run(horizon_ns=2 * SEC)
    assert w.sim.now == 2 * SEC
    assert not bg.finished


def test_run_extends_horizon_on_repeat_calls():
    w = CloudWorld(WorldConfig(n_nodes=2))
    w.run(horizon_ns=1 * SEC)
    w.run(horizon_ns=1 * SEC)
    assert w.sim.now == 2 * SEC


def test_same_seed_reproducible():
    def makespan(seed):
        w = CloudWorld(WorldConfig(n_nodes=2, seed=seed))
        vc = w.virtual_cluster(2)
        app = w.add_npb("is", vc.vms, rounds=1, warmup_rounds=0)
        w.run(horizon_ns=600 * SEC)
        return app.round_times

    assert makespan(7) == makespan(7)
    assert makespan(7) != makespan(8)


def test_collectors_over_world():
    w = CloudWorld(WorldConfig(n_nodes=2, seed=0))
    vc = w.virtual_cluster(2)
    w.add_npb("is", vc.vms, rounds=1, warmup_rounds=0)
    w.run(horizon_ns=600 * SEC)
    cs = cluster_stats(w.cluster)
    assert cs["n_nodes"] == 2
    assert cs["busy_ns"] > 0
    assert cs["messages_sent"] > 0
    ns = node_stats(w.cluster.nodes[0])
    assert ns["context_switches"] > 0
    vs = vm_stats(vc.vms[0])
    assert vs["is_parallel"] is True
    assert vs["cpu_ns"] > 0
    assert vs["spin_waits"] >= 0


def test_nonparallel_builders():
    w = CloudWorld(WorldConfig(n_nodes=2, seed=0))
    v1, v2 = w.new_vm(name="a"), w.new_vm(name="b")
    sphinx = w.add_cpu_app("sphinx3", v1)
    stream = w.add_stream(v1)
    bonnie = w.add_bonnie(v2)
    ping = w.add_ping(v1, v2, interval_ns=5 * MSEC)
    web = w.add_webserver(v2, v1)
    w.run(horizon_ns=1 * SEC)
    assert sphinx.run_times
    assert stream.run_times
    assert bonnie.pass_times
    assert ping.rtts
    assert web.response_times


def test_late_tracked_app_starts_and_gates_run():
    """Regression: a tracked app added after start() must run and join the
    completion countdown instead of being silently ignored."""
    w = CloudWorld(WorldConfig(n_nodes=2, seed=1))
    vc1 = w.virtual_cluster(2)
    app1 = w.add_npb("is", vc1.vms, rounds=1, warmup_rounds=0)
    w.run(horizon_ns=600 * SEC)
    assert app1.finished

    vc2 = w.virtual_cluster(2)
    app2 = w.add_npb("is", vc2.vms, rounds=1, warmup_rounds=0)
    t_added = w.sim.now
    w.run(horizon_ns=600 * SEC)
    assert app2.finished
    assert w.all_apps_done
    assert w.sim.now < t_added + 600 * SEC  # countdown stopped the sim early


def test_late_tracked_app_does_not_inherit_stale_countdown():
    """A second add_npb + run() must not end early off app1's completion."""
    w = CloudWorld(WorldConfig(n_nodes=2, seed=1))
    vc1 = w.virtual_cluster(2)
    w.add_npb("is", vc1.vms, rounds=1, warmup_rounds=0)
    w.run(horizon_ns=1 * SEC)  # world is started; app1 may or may not be done

    vc2 = w.virtual_cluster(2)
    app2 = w.add_npb("is", vc2.vms, rounds=2, warmup_rounds=0)
    w.run(horizon_ns=600 * SEC)
    assert app2.finished


def test_late_background_app_starts_immediately():
    """Regression: background workloads registered after start() were never
    started; they must begin producing samples on the next run()."""
    w = CloudWorld(WorldConfig(n_nodes=2, seed=0))
    v1, v2 = w.new_vm(name="a"), w.new_vm(name="b")
    w.run(horizon_ns=1 * SEC)

    sphinx = w.add_cpu_app("sphinx3", v1)
    stream = w.add_stream(v1)
    ping = w.add_ping(v1, v2, interval_ns=5 * MSEC)
    bg = w.add_npb("is", [v2], rounds=None, warmup_rounds=0, procs_per_vm=4)
    w.run(horizon_ns=2 * SEC)
    assert sphinx.run_times
    assert stream.run_times
    assert ping.rtts
    assert bg.round_times
