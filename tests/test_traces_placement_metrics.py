"""Tests for LLNL trace synthesis (Table I), placement, and metrics."""

import collections

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.summary import mean, pearson
from repro.sim.rng import SimRNG
from repro.virtcluster.cluster import VirtualCluster
from repro.virtcluster.placement import (
    PLACEMENTS,
    pack_placement,
    place,
    placement_names,
    spread_placement,
)
from repro.workloads.traces import ATLAS_TABLE1, paper_vc_mix, synthesize_vc_mix


# ----------------------------------------------------------------------
# Table I / trace synthesis
# ----------------------------------------------------------------------
def test_table1_matches_paper():
    assert ATLAS_TABLE1[8] == 0.314
    assert ATLAS_TABLE1[16] == 0.126
    assert ATLAS_TABLE1[256] == 0.045
    # "others" = 28.3% is not a size class
    assert abs(sum(ATLAS_TABLE1.values()) + 0.283 - 1.0) < 1e-9


def test_paper_mix_is_the_section_ivb2_configuration():
    mix = paper_vc_mix()
    assert mix.vcpus_per_vm == 8
    assert mix.total_vms == 128
    assert mix.independent_vms == 30
    assert sorted(mix.cluster_sizes_vcpus, reverse=True) == [
        256, 128, 128, 64, 64, 64, 32, 16, 16, 16,
    ]
    assert len(mix.cluster_sizes_vms) == 10
    # The paper says "ninety" VMs build the clusters, but its own sizes
    # sum to 784 VCPUs = 98 VMs (and 98 + 30 independents = 128, matching
    # the stated platform) — the printed "ninety" is a truncation.
    assert sum(mix.cluster_sizes_vms) == 98


def test_synthesized_sizes_follow_table1():
    """Over 200 draws, small virtual clusters are drawn more often than
    large ones, as in Table I (64 VCPUs: 12.6% of jobs, 32: 4.5%)."""
    counts = collections.Counter(
        s for seed in range(200)
        for s in synthesize_vc_mix(128, 8, SimRNG(seed), min_vcpus=16,
                                   max_vcpus=256).cluster_sizes_vcpus)
    assert counts[16] > counts[256]
    assert counts[64] > counts[32]


def test_synthesize_respects_budget_and_sizes():
    rng = SimRNG(5)
    mix = synthesize_vc_mix(32, 8, rng, min_vcpus=16, max_vcpus=128)
    assert mix.total_vms == 32
    assert all(s >= 2 for s in mix.cluster_sizes_vms)
    assert mix.independent_vms >= 0
    # sorted largest first
    sizes = list(mix.cluster_sizes_vms)
    assert sizes == sorted(sizes, reverse=True)


def test_synthesize_deterministic_per_seed():
    a = synthesize_vc_mix(64, 8, SimRNG(9))
    b = synthesize_vc_mix(64, 8, SimRNG(9))
    assert a == b


def test_synthesize_validates():
    with pytest.raises(ValueError):
        synthesize_vc_mix(1, 8, SimRNG(0))
    with pytest.raises(ValueError):
        synthesize_vc_mix(64, 8, SimRNG(0), min_vcpus=1000, max_vcpus=2000)


@settings(max_examples=30)
@given(st.integers(min_value=8, max_value=200), st.integers(min_value=1, max_value=100))
def test_synthesize_property(total, seed):
    mix = synthesize_vc_mix(total, 8, SimRNG(seed))
    assert mix.total_vms == total
    assert sum(mix.cluster_sizes_vms) + mix.independent_vms == total


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
def test_spread_round_robins():
    load = [0, 0, 0]
    assert spread_placement(6, load, 4) == [0, 1, 2, 0, 1, 2]
    assert load == [2, 2, 2]


def test_spread_prefers_least_loaded():
    load = [3, 0, 1]
    assert spread_placement(2, load, 4) == [1, 1]


def test_spread_capacity_error():
    load = [4, 4]
    with pytest.raises(RuntimeError):
        spread_placement(1, load, 4)


def test_pack_fills_in_order():
    load = [0, 0]
    assert pack_placement(5, load, 4) == [0, 0, 0, 0, 1]


def test_pack_capacity_error():
    with pytest.raises(RuntimeError):
        pack_placement(9, [0, 0], 4)


def test_place_is_pure_and_returns_new_loads():
    loads = [1, 0, 2]
    assignment, new_loads = place("spread", 2, loads, 4)
    assert assignment == [1, 0]
    assert new_loads == [2, 1, 2]
    assert loads == [1, 0, 2]  # inputs untouched


def test_wrappers_still_mutate_in_place():
    load = [0, 0]
    assert pack_placement(3, load, 4) == [0, 0, 0]
    assert load == [3, 0]


def test_striped_walks_cyclically_from_load_offset():
    assert place("striped", 4, [0, 0, 0], 2)[0] == [0, 1, 2, 0]
    # Total load 2 -> the walk starts at node 2 and wraps.
    assert place("striped", 3, [1, 1, 0], 2)[0] == [2, 0, 1]
    # Full nodes are skipped, not errors, until everything is full.
    assert place("striped", 2, [2, 0, 0], 2)[0] == [2, 1]
    with pytest.raises(RuntimeError):
        place("striped", 1, [2, 2], 2)


def test_random_placement_is_reproducible_per_spec():
    a, _ = place("random:7", 6, [0, 0, 0], 4)
    b, _ = place("random:7", 6, [0, 0, 0], 4)
    assert a == b
    assert set(a) <= {0, 1, 2}
    c, _ = place("random:8", 6, [0, 0, 0], 4)
    assert a != c  # different seed, different draw (overwhelmingly)
    with pytest.raises(RuntimeError):
        place("random:7", 9, [0, 0], 4)


def test_unknown_policy_and_bad_random_spec_raise():
    with pytest.raises(ValueError, match="unknown placement policy"):
        place("bogus", 1, [0], 4)
    with pytest.raises(ValueError, match="random:SEED"):
        place("random:x", 1, [0], 4)
    assert placement_names() == [*PLACEMENTS, "random:SEED"]


def test_capacity_error_names_the_cluster():
    with pytest.raises(RuntimeError, match="cluster 'vc3' out of VM capacity"):
        place("spread", 5, [4, 4], 4, cluster="vc3")


@pytest.mark.parametrize("policy", ["spread", "pack", "striped", "random:3"])
def test_equal_load_ties_are_deterministic(policy):
    # On freshly equal loads every policy resolves ties the same way on
    # every call: placement is a pure function of (policy, loads, cap).
    first, _ = place(policy, 4, [0, 0, 0, 0], 4)
    again, _ = place(policy, 4, [0, 0, 0, 0], 4)
    assert first == again
    # The deterministic tie-break is by node index: the first VM of the
    # non-random policies always lands on node 0.
    if not policy.startswith("random:"):
        assert first[0] == 0


@settings(max_examples=30)
@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=10),
)
def test_spread_balance_property(n_vms, n_nodes, cap):
    if n_vms > n_nodes * cap:
        return
    load = [0] * n_nodes
    spread_placement(n_vms, load, cap)
    assert max(load) - min(load) <= 1  # perfectly balanced
    assert sum(load) == n_vms


def test_virtual_cluster_accessors(single_node):
    sim, cluster, vmm = single_node
    from tests.conftest import add_guest_vm

    vms = [add_guest_vm(vmm, 2, name=f"v{i}") for i in range(2)]
    vc = VirtualCluster("vc", vms)
    assert vc.n_vms == 2
    assert vc.n_vcpus == 4
    assert vc.nodes == [0]
    with pytest.raises(ValueError):
        VirtualCluster("empty", [])


# ----------------------------------------------------------------------
# Metric summaries
# ----------------------------------------------------------------------
def test_mean_and_empty():
    assert mean([1, 2, 3]) == 2
    assert mean([]) is None  # no sample: undefined, not NaN
    assert mean([1.0, None]) is None


def test_pearson_perfect_and_inverse():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)


def test_pearson_validation():
    with pytest.raises(ValueError):
        pearson([1], [1])
    with pytest.raises(ValueError):
        pearson([1, 2], [1])
    with pytest.raises(ValueError):
        pearson([1, 1], [2, 3])


@settings(max_examples=50)
@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=3, max_size=30))
def test_pearson_bounded(pairs):
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    try:
        r = pearson(xs, ys)
    except ValueError:
        return  # degenerate (zero or underflowing variance) is rejected
    assert -1.0001 <= r <= 1.0001
