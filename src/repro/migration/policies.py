"""The rebalancing policy: demix co-hosted parallel clusters.

:func:`demix` is a pure function of the world (read-only) that returns
an ordered list of proposed ``(vm, dst_node_idx)`` moves.  The
:class:`~repro.migration.rebalancer.Rebalancer` applies them
front-to-back under its concurrency budget, re-checking eligibility per
move, so the policy may over-propose.

It is deterministic: no RNG, no set-order iteration, ties broken by node
index / vmid / insertion order.  Its inputs are signals the cloud control
plane sees without guest cooperation: the per-host parallel-VM census
(which virtual clusters share which node — the hidden variable of
Algorithm 2's per-host minimum), per-node VM load and which nodes are
down.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.harness import CloudWorld
    from repro.hypervisor.vm import VM

__all__ = ["parallel_census", "demix"]


def parallel_census(world: "CloudWorld") -> dict[int, dict[str, list["VM"]]]:
    """``{node_idx: {cluster_name: [VMs...]}}`` for parallel VMs.

    Built by walking virtual clusters in creation order and VMs in
    cluster order, so every nested container is insertion-ordered and
    iteration is deterministic.
    """
    census: dict[int, dict[str, list["VM"]]] = {}
    for vc in world.virtual_clusters:
        for vm in vc.vms:
            census.setdefault(vm.node.index, {}).setdefault(vc.name, []).append(vm)
    return census


def demix(world: "CloudWorld") -> list[tuple["VM", int]]:
    """Separate parallel clusters sharing a host.

    For each node hosting ≥ 2 parallel clusters, the *minority* cluster
    (fewest VMs there; insertion order breaks ties) donates its
    lowest-vmid VM.  Destinations are ranked: nodes already hosting the
    victim's cluster first, then fewest parallel clusters, then lowest
    load, then lowest index — and must not host any *other* parallel
    cluster (moving the mix elsewhere would be churn, not progress).
    """
    census = parallel_census(world)
    nodes = world.cluster.nodes
    cap = world.config.vms_per_node
    load = world._node_vm_load
    moves: list[tuple["VM", int]] = []
    for node_idx in sorted(census):
        if nodes[node_idx].crashed:
            continue
        clusters = census[node_idx]
        if len(clusters) < 2:
            continue
        victim = min(clusters, key=lambda c: len(clusters[c]))
        vm = min(clusters[victim], key=lambda v: v.vmid)
        best = None
        for i in range(len(nodes)):
            if i == node_idx or nodes[i].crashed or load[i] >= cap:
                continue
            here = set(census.get(i, {}))
            if not here <= {victim}:
                continue
            key = (0 if victim in here else 1, len(here), load[i], i)
            if best is None or key < best[0]:
                best = (key, i)
        if best is not None:
            moves.append((vm, best[1]))
    return moves
