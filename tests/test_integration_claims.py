"""Integration tests asserting the paper's headline claims hold in the
simulator (scaled-down configurations).

These are the load-bearing end-to-end checks: if a refactor breaks the
physics (spin latency vs slice, ATC's advantage, non-interference with
non-parallel apps), these fail.
"""

import pytest

from repro.experiments.harness import CloudWorld, WorldConfig
from repro.experiments.scenarios import run_small_mix, run_type_a
from repro.metrics.summary import mean, pearson
from repro.sim.units import SEC


@pytest.fixture(scope="module")
def sweep():
    """One shared CR slice sweep for lu (the paper's Fig. 5 core): one
    type-A cell per uniform slice."""
    return [run_type_a("lu", "CR", n_nodes=2, rounds=2, warmup_rounds=1, uniform_slice_ms=sm)
            for sm in (30, 6, 1, 0.3)]


def test_shorter_slices_reduce_spin_latency(sweep):
    spins = [row["avg_spin_ns"] for row in sweep]
    assert spins == sorted(spins, reverse=True), spins


def test_shorter_slices_improve_parallel_performance(sweep):
    rounds = [row["mean_round_ns"] for row in sweep]
    assert rounds[-1] < rounds[0] / 3  # >= 3x faster at 0.3 ms than 30 ms


def test_spin_latency_correlates_with_performance(sweep):
    """Section II-B: Pearson correlation between spinlock latency and
    execution time above 0.9 across the slice sweep."""
    spins = [row["avg_spin_ns"] for row in sweep]
    rounds = [row["mean_round_ns"] for row in sweep]
    assert pearson(spins, rounds) > 0.9


def test_shorter_slices_increase_context_switches(sweep):
    ctx = [row["cluster"]["context_switches"] for row in sweep]
    assert ctx[-1] > 2 * ctx[0]


@pytest.fixture(scope="module")
def typea_lu():
    out = {}
    for sched in ("CR", "ATC", "CS", "BS"):
        out[sched] = run_type_a("lu", sched, n_nodes=2, rounds=2, warmup_rounds=1)
    return out


def test_atc_beats_credit_significantly(typea_lu):
    """Headline claim: 1.5-10x gain over CR for parallel applications."""
    ratio = typea_lu["CR"]["mean_round_ns"] / typea_lu["ATC"]["mean_round_ns"]
    assert 1.5 <= ratio, f"ATC gain only {ratio:.2f}x"


def test_atc_beats_all_other_approaches(typea_lu):
    atc = typea_lu["ATC"]["mean_round_ns"]
    for other in ("CR", "CS", "BS"):
        assert atc < typea_lu[other]["mean_round_ns"], other


def test_atc_reduces_spin_latency(typea_lu):
    assert typea_lu["ATC"]["avg_spin_ns"] < typea_lu["CR"]["avg_spin_ns"] / 2


def test_atc_converges_to_min_threshold():
    world = CloudWorld(WorldConfig(n_nodes=2, scheduler="ATC", seed=0))
    apps = []
    for k in range(4):
        vc = world.virtual_cluster(2, name=f"vc{k}")
        apps.append(world.add_npb("lu", vc.vms, rounds=None, warmup_rounds=0))
    world.run(horizon_ns=3 * SEC)
    par_slices = {vm.slice_ns for vm in world.vms if vm.is_parallel}
    sched = world.vmms[0].scheduler
    assert par_slices == {sched.controller.cfg.min_threshold_ns}


def test_atc_host_uniformity():
    """Algorithm 2: all parallel VMs on a host share one (minimum) slice."""
    world = CloudWorld(WorldConfig(n_nodes=2, scheduler="ATC", seed=0))
    vc0 = world.virtual_cluster(2, name="fine")
    vc1 = world.virtual_cluster(2, name="coarse")
    world.add_npb("lu", vc0.vms, rounds=None, warmup_rounds=0)  # fine grain
    world.add_npb("is", vc1.vms, rounds=None, warmup_rounds=0)  # coarse grain
    world.run(horizon_ns=2 * SEC)
    for node_vms in ([vm for vm in world.vms if vm.node.index == i and vm.is_parallel] for i in range(2)):
        assert len({vm.slice_ns for vm in node_vms}) == 1


class TestNonParallelImpact:
    """Section IV-C: ATC(30ms) leaves non-parallel apps ~unaffected,
    while CS hurts latency-sensitive and CPU-bound apps."""

    @pytest.fixture(scope="class")
    def mix(self):
        out = {}
        for sched in ("CR", "CS", "ATC"):
            out[sched] = run_small_mix(sched, horizon_s=4.0)
        return out

    def test_cs_hurts_ping(self, mix):
        assert mix["CS"]["ping_mean_rtt_ns"] > 1.5 * mix["CR"]["ping_mean_rtt_ns"]

    def test_cs_hurts_sphinx3(self, mix):
        assert mix["CS"]["sphinx3_mean_run_ns"] > 1.05 * mix["CR"]["sphinx3_mean_run_ns"]

    def test_atc_default_preserves_cpu_app(self, mix):
        ratio = mix["ATC"]["sphinx3_mean_run_ns"] / mix["CR"]["sphinx3_mean_run_ns"]
        assert ratio < 1.15

    def test_atc_default_preserves_disk_app(self, mix):
        ratio = mix["ATC"]["bonnie_throughput_Bps"] / mix["CR"]["bonnie_throughput_Bps"]
        assert ratio > 0.8

    def test_atc_accelerates_parallel_in_mix(self, mix):
        assert (
            mix["ATC"]["parallel_mean_round_ns"]
            < 0.7 * mix["CR"]["parallel_mean_round_ns"]
        )
