"""Tests for workload models: BSP specs, NPB table, ParallelApp batch
coordination, peer patterns."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.rng import SimRNG
from repro.sim.units import MSEC, SEC, USEC
from repro.workloads.base import BSPSpec, ParallelApp, _peer_indices, bsp_rank_program
from repro.workloads.npb import CLASS_SCALES, NPB_NAMES, NPB_SPECS, npb_spec

from tests.conftest import add_guest_vm, make_node_world


# ----------------------------------------------------------------------
# Peer patterns
# ----------------------------------------------------------------------
def test_peers_none_pattern():
    assert _peer_indices("none", 0, 4) == []
    assert _peer_indices("ring", 0, 1) == []


def test_peers_ring():
    assert _peer_indices("ring", 0, 2) == [1]  # left == right deduped
    assert _peer_indices("ring", 1, 4) == [0, 2]
    assert _peer_indices("ring", 0, 4) == [3, 1]


def test_peers_alltoall():
    assert _peer_indices("alltoall", 1, 4) == [0, 2, 3]


def test_peers_unknown_pattern():
    with pytest.raises(ValueError):
        _peer_indices("mesh", 0, 4)


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
def test_npb_table_complete():
    from repro.workloads.npb import NPB_EXTENDED

    assert set(NPB_EXTENDED) == set(NPB_SPECS)
    assert set(NPB_NAMES) <= set(NPB_SPECS)  # the paper's six
    for name, spec in NPB_SPECS.items():
        assert spec.name == name
        assert spec.grain_ns > 0 and spec.supersteps > 0
        assert spec.pattern in ("ring", "alltoall", "none")


def test_npb_sensitivity_ordering():
    """lu/cg have the finest grains (most scheduler-sensitive), is the
    coarsest — the ordering behind the paper's 1.5-10x spread."""
    g = {n: NPB_SPECS[n].grain_ns for n in NPB_NAMES}
    assert g["lu"] <= min(g["sp"], g["bt"], g["mg"], g["is"])
    assert g["is"] == max(g.values())


def test_npb_class_scaling():
    b = npb_spec("lu", "B")
    c = npb_spec("lu", "C")
    a = npb_spec("lu", "A")
    assert c.grain_ns == 2 * b.grain_ns
    assert a.grain_ns == b.grain_ns // 2
    assert c.supersteps > b.supersteps > a.supersteps
    assert npb_spec("lu", "b").grain_ns == b.grain_ns  # case-insensitive


def test_npb_unknown_inputs():
    with pytest.raises(KeyError):
        npb_spec("linpack")
    with pytest.raises(KeyError):
        npb_spec("lu", "D")


def test_spec_scaled_preserves_flags():
    s = npb_spec("is", "C")
    assert s.hard_comm_sync is True
    assert s.pattern == "alltoall"


@given(st.floats(min_value=0.1, max_value=10), st.floats(min_value=0.1, max_value=10))
def test_scaled_positive(gm, sm):
    s = NPB_SPECS["lu"].scaled(gm, sm)
    assert s.grain_ns >= 1 and s.supersteps >= 1


# ----------------------------------------------------------------------
# Program structure
# ----------------------------------------------------------------------
def test_rank0_does_comm_others_do_not():
    spec = BSPSpec("t", grain_ns=MSEC, grain_cv=0, supersteps=4, pattern="ring",
                   msg_bytes=100, comm_every=1, hard_comm_sync=True)

    class FakeVM:
        pass

    vms = [FakeVM(), FakeVM(), FakeVM()]
    from repro.guest.spinlock import SpinBarrier

    bar = SpinBarrier(2)
    rng = SimRNG(0)
    segs0 = list(bsp_rank_program(spec, vms, 0, 0, bar, rng))
    segs1 = list(bsp_rank_program(spec, vms, 0, 1, bar, rng))
    kinds0 = [s[0] for s in segs0]
    kinds1 = [s[0] for s in segs1]
    assert "send" in kinds0 and "recv" in kinds0
    assert "send" not in kinds1 and "recv" not in kinds1
    # hard sync: both ranks see the post-comm barrier
    assert kinds0.count("barrier") == kinds1.count("barrier") == 8


def test_pipelined_program_skips_post_comm_barrier():
    spec = BSPSpec("t", grain_ns=MSEC, grain_cv=0, supersteps=4, pattern="ring",
                   msg_bytes=100, comm_every=1, hard_comm_sync=False)

    class FakeVM:
        pass

    from repro.guest.spinlock import SpinBarrier

    segs = list(bsp_rank_program(spec, [FakeVM(), FakeVM()], 0, 1, SpinBarrier(2), SimRNG(0)))
    assert [s[0] for s in segs].count("barrier") == 4


def test_comm_every_reduces_exchanges():
    spec = BSPSpec("t", grain_ns=MSEC, grain_cv=0, supersteps=6, pattern="ring",
                   msg_bytes=100, comm_every=3)

    class FakeVM:
        pass

    from repro.guest.spinlock import SpinBarrier

    segs = list(bsp_rank_program(spec, [FakeVM(), FakeVM()], 0, 0, SpinBarrier(1), SimRNG(0)))
    assert [s[0] for s in segs].count("send") == 2  # steps 0 and 3


# ----------------------------------------------------------------------
# ParallelApp
# ----------------------------------------------------------------------
def tiny_spec(steps=3):
    return BSPSpec("tiny", grain_ns=200 * USEC, grain_cv=0.0, supersteps=steps,
                   pattern="ring", msg_bytes=256)


def test_parallel_app_runs_rounds_and_records_times():
    sim, cluster, vmms = make_node_world(n_nodes=2, n_pcpus=2)
    vms = [add_guest_vm(vmms[i], 2, is_parallel=True) for i in range(2)]
    app = ParallelApp(sim, tiny_spec(), vms, SimRNG(1), rounds=3, warmup_rounds=1)
    done = []
    app.on_complete = lambda a: done.append(sim.now)
    for vmm in vmms:
        vmm.start()
    app.start()
    sim.run(until=60 * SEC)
    assert app.finished
    assert len(app.round_times) == 3
    assert app.rounds_completed == 4  # 1 warmup + 3 measured
    assert all(t > 0 for t in app.round_times)
    assert app.mean_round_ns == sum(app.round_times) / 3
    assert done


def test_parallel_app_single_vm_no_comm():
    sim, cluster, vmms = make_node_world(n_nodes=1, n_pcpus=2)
    vm = add_guest_vm(vmms[0], 2, is_parallel=True)
    app = ParallelApp(sim, tiny_spec(), [vm], SimRNG(1), rounds=2, warmup_rounds=0)
    vmms[0].start()
    app.start()
    sim.run(until=60 * SEC)
    assert app.finished
    assert cluster.fabric.messages_sent == 0  # no peers -> no comm


def test_parallel_app_requires_kernel():
    sim, cluster, vmms = make_node_world()
    from repro.hypervisor.vm import VM

    vm = VM(vmms[0].node, 1)
    vmms[0].add_vm(vm)
    with pytest.raises(ValueError):
        ParallelApp(sim, tiny_spec(), [vm], SimRNG(0))


def test_parallel_app_procs_per_vm_override():
    sim, cluster, vmms = make_node_world(n_pcpus=2)
    vm = add_guest_vm(vmms[0], 4, is_parallel=True)
    app = ParallelApp(sim, tiny_spec(), [vm], SimRNG(0), procs_per_vm=2, rounds=1)
    assert app.n_ranks == 2


def test_parallel_app_background_mode_repeats_forever():
    sim, cluster, vmms = make_node_world(n_pcpus=2)
    vm = add_guest_vm(vmms[0], 2, is_parallel=True)
    app = ParallelApp(sim, tiny_spec(1), [vm], SimRNG(0), rounds=None, warmup_rounds=0)
    vmms[0].start()
    app.start()
    sim.run(until=2 * SEC)
    assert not app.finished
    assert app.rounds_completed > 10


def test_mean_round_nan_without_rounds():
    sim, cluster, vmms = make_node_world(n_pcpus=2)
    vm = add_guest_vm(vmms[0], 2, is_parallel=True)
    app = ParallelApp(sim, tiny_spec(), [vm], SimRNG(0), rounds=1)
    assert app.mean_round_ns is None  # no sample: undefined, not NaN
