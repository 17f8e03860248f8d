"""Additional edge-case coverage across modules."""

import pytest

from repro.guest.spinlock import SpinBarrier
from repro.sim.engine import Simulator
from repro.workloads.base import BSPSpec


def test_barrier_size_validation():
    with pytest.raises(ValueError):
        SpinBarrier(0)
    b = SpinBarrier(1)
    assert b.n == 1


def test_engine_trace_hook():
    sim = Simulator()
    seen = []
    sim.observe(lambda t, fn, cat, depth: seen.append(t))
    sim.at(5, lambda: None)
    sim.at(9, lambda: None)
    sim.run()
    assert seen == [5, 9]


def test_single_rank_barrier_passes_immediately():
    """A barrier of size 1 never spins."""
    from tests.conftest import add_guest_vm, make_node_world
    from repro.guest.process import barrier, compute

    sim, cluster, vmms = make_node_world()
    vm = add_guest_vm(vmms[0], 1)
    p = vm.kernel.add_process()
    bar = SpinBarrier(1)

    def prog():
        for _ in range(3):
            yield compute(1000)
            yield barrier(bar)

    p.load_program(prog())
    p.start()
    sim.run(until=10_000_000)
    assert p.done
    assert bar.generation == 3
    assert p.total_spin_ns == 0


def test_atc_scheduler_in_registry_is_wired():
    from repro.schedulers.registry import make_scheduler_factory
    from tests.conftest import make_node_world

    sim, cluster, vmms = make_node_world(scheduler_factory=make_scheduler_factory("ATC"))
    # the controller installed itself as a period hook
    assert vmms[0].period_hooks


def test_vslicer_registry_roundtrip():
    from repro.schedulers.registry import scheduler_class
    from repro.schedulers.vslicer import VSlicerScheduler

    assert scheduler_class("VS") is VSlicerScheduler


def test_world_config_frozen():
    from repro.experiments.harness import WorldConfig

    cfg = WorldConfig()
    with pytest.raises(Exception):
        cfg.n_nodes = 99


def test_bsp_spec_scaled_identity():
    s = BSPSpec("x", grain_ns=100, grain_cv=0.1, supersteps=5, pattern="ring", msg_bytes=10)
    t = s.scaled()
    assert t == s


def test_packet_repr_and_vm_repr_smoke():
    from tests.conftest import add_guest_vm, make_node_world
    from repro.hypervisor.dom0 import Packet

    sim, cluster, vmms = make_node_world()
    a = add_guest_vm(vmms[0], 1, name="a")
    b = add_guest_vm(vmms[0], 1, name="b")
    pkt = Packet(a, 0, b, 0, 64)
    assert pkt.t_send == -1 and pkt.nbytes == 64


def test_simulation_determinism_across_schedulers():
    """The same seed gives bit-identical results per scheduler (the A/B
    comparisons in the benches rely on this)."""
    from repro.experiments.scenarios import run_type_a

    for sched in ("CR", "ATC"):
        a = run_type_a("is", sched, 2, rounds=1, warmup_rounds=0, seed=3)
        b = run_type_a("is", sched, 2, rounds=1, warmup_rounds=0, seed=3)
        assert a["mean_round_ns"] == b["mean_round_ns"], sched
        assert a["events"] == b["events"], sched
