"""Deterministic fractional-allocation solver (DFRS).

Pure functions: no RNG, no wall clock, no simulator access.  Everything
the solver sees arrives as plain numbers, so a solve is a reproducible
function of its inputs and can be unit-tested in isolation.

Model (Stillwell/Vivien/Casanova, *Dynamic Fractional Resource
Scheduling for HPC Workloads* / *Resource Allocation using Virtual
Clusters*):

* each VM ``i`` has a resource **need** ``n_i`` — the fraction of its
  host's CPU capacity it would consume unconstrained (estimated from the
  monitor signals by the controller);
* an allocation gives VM ``i`` a fraction ``a_i <= ceil_i`` of the host
  (``ceil_i = min(n_vcpus, n_pcpus) / n_pcpus``: a VM cannot use more
  PCPUs than it has VCPUs);
* the **yield** of VM ``i`` is ``a_i / n_i``; the solver maximizes the
  *minimum* yield on each host subject to ``sum(a_i) <= 1``.

With per-VM ceilings the optimum is a water-fill: every VM gets
``min(y * n_i, ceil_i)`` for the largest feasible common yield ``y``.
:func:`solve_host` finds that ``y`` by binary search (the monotone
feasibility predicate ``sum(min(y*n_i, ceil_i)) <= 1``), which keeps the
solve exact enough at 60 iterations and trivially deterministic.

The published **cap** is the allocation times a configurable headroom.
Caps are per-VM limits, not a partition — like Xen's ``cap`` they may
sum above host capacity (the scheduler arbitrates the overlap); it is
the *allocations* that must fit in the host, and the water-fill
guarantees ``sum(a_i) <= 1`` by construction (SAN009 checks it).  The
published **weight** is the need normalized to mean 1.0 per host —
comparable to the default weight of VMs outside DFRS's control (dom0
keeps 1.0), so enabling DFRS does not starve the control domain.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "VMNeed",
    "Allocation",
    "HostSolve",
    "solve_host",
    "solve_cluster",
]

#: Binary-search iterations: 2^-60 relative error, far below any
#: tolerance the sanitizer or the benches use.
_ITERS = 60


@dataclass(frozen=True)
class VMNeed:
    """Solver input for one VM (built by the controller)."""

    name: str
    vmid: int
    node: int
    #: Estimated need as a fraction of host capacity, already clamped to
    #: ``(0, ceil]`` by the controller.
    need: float
    #: Per-VM allocation ceiling (``min(n_vcpus, n_pcpus) / n_pcpus``).
    ceil: float


@dataclass(frozen=True)
class Allocation:
    """Solver output for one VM: the binding fractional allocation."""

    name: str
    vmid: int
    node: int
    need: float
    #: Yield-optimal allocation (fraction of host capacity).
    alloc: float
    #: Published cap: ``alloc * headroom``, clipped to ``ceil``.  A per-VM
    #: limit, not a partition: caps on one host may sum above 1.0.
    cap: float
    #: Published weight: need, normalized to mean 1.0 on the host.
    weight: float
    #: ``alloc / need``.
    vm_yield: float


@dataclass(frozen=True)
class HostSolve:
    """Per-host solve result."""

    node: int
    #: The max-min yield the binary search converged to (capped at 1.0:
    #: a VM never needs more than its need).
    min_yield: float
    allocations: tuple[Allocation, ...]


def _feasible(needs: list[VMNeed], y: float) -> bool:
    return sum(min(y * n.need, n.ceil) for n in needs) <= 1.0


def solve_host(node: int, needs: list[VMNeed], headroom: float = 1.0) -> HostSolve:
    """Max-min-yield water-fill for one host.

    ``needs`` must be insertion-ordered deterministically by the caller
    (the controller walks VMs in creation order).  ``headroom > 1``
    publishes caps looser than the exact allocation: burst room without
    giving up the solve's proportions.  Caps deliberately keep that
    slack even when it makes them sum above 1.0 on a packed host —
    renormalizing would collapse every cap back to exactly its
    allocation, turning the non-work-conserving limit hard-binding and
    throttling whatever the per-host scheduler (e.g. ATC) accelerates.
    """
    if not needs:
        return HostSolve(node=node, min_yield=1.0, allocations=())
    # Largest useful yield: 1.0 (every VM fully satisfied).  If even that
    # is feasible the host is under-committed and allocations equal needs.
    if _feasible(needs, 1.0):
        y = 1.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(_ITERS):
            mid = (lo + hi) / 2.0
            if _feasible(needs, mid):
                lo = mid
            else:
                hi = mid
        y = lo
    allocs = [min(y * n.need, n.ceil) for n in needs]
    caps = [min(a * headroom, n.ceil) for a, n in zip(allocs, needs)]
    mean_need = sum(n.need for n in needs) / len(needs)
    out = tuple(
        Allocation(
            name=n.name,
            vmid=n.vmid,
            node=n.node,
            need=n.need,
            alloc=a,
            cap=c,
            weight=n.need / mean_need if mean_need > 0 else 1.0,
            vm_yield=a / n.need if n.need > 0 else 1.0,
        )
        for n, a, c in zip(needs, allocs, caps)
    )
    return HostSolve(node=node, min_yield=y, allocations=out)


def solve_cluster(
    needs: list[VMNeed], n_nodes: int, headroom: float = 1.0
) -> dict[int, HostSolve]:
    """Solve every host independently: caps never couple two hosts.

    Returns ``{node_index: HostSolve}`` for all ``n_nodes`` hosts, empty
    hosts included."""
    by_node: dict[int, list[VMNeed]] = {i: [] for i in range(n_nodes)}
    for n in needs:
        by_node[n.node].append(n)
    return {i: solve_host(i, by_node[i], headroom) for i in range(n_nodes)}
