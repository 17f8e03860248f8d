"""VM placement policies for virtual clusters.

The paper's setups spread each virtual cluster across physical nodes
(e.g. "four identical virtual clusters ... and the four VMs on each
physical node belong to them separately"), which maximizes the cross-VM
network synchronization this work targets.  ``spread`` reproduces that;
``pack`` fills nodes one at a time (for contrast/ablations); ``striped``
walks the nodes cyclically from a load-derived offset; ``random:SEED``
draws uniformly among nodes with free capacity from a dedicated
:class:`~repro.sim.rng.SimRNG` sub-stream (so workload RNG is never
perturbed by placement).

:func:`place` is the pure registry entry point.  It takes the policy
name, the current per-node VM loads and the per-node capacity, and
returns ``(assignment, new_loads)`` without mutating its inputs.  Ties
between equally-loaded nodes always resolve to the lowest node index, for
every policy, so placement is deterministic by construction.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.sim.rng import SimRNG

__all__ = [
    "PLACEMENTS",
    "place",
    "placement_names",
    "placer",
]

#: Dedicated SimRNG sub-stream key for ``random:SEED`` placement draws
#: (disjoint from workload keys, which are small positive integers, and
#: from the fault key 0xFA).
RNG_KEY = 0x9C


def _spread(n_vms: int, loads: list[int], cap: int) -> list[int]:
    """Least-loaded node first; ties resolve to the lowest index."""
    out: list[int] = []
    for _ in range(n_vms):
        best = min(range(len(loads)), key=lambda i: (loads[i], i))
        if loads[best] >= cap:
            raise _CapacityError()
        loads[best] += 1
        out.append(best)
    return out


def _pack(n_vms: int, loads: list[int], cap: int) -> list[int]:
    """Fill nodes in index order (anti-spread, for ablations)."""
    out: list[int] = []
    for _ in range(n_vms):
        placed = False
        for i in range(len(loads)):
            if loads[i] < cap:
                loads[i] += 1
                out.append(i)
                placed = True
                break
        if not placed:
            raise _CapacityError()
    return out


def _striped(n_vms: int, loads: list[int], cap: int) -> list[int]:
    """Cyclic walk over nodes with free capacity, starting at an offset
    derived from the total load already placed (so successive calls start
    on different nodes).  With equal loads the walk starts at node 0 and
    proceeds by index — the same deterministic tie-break as the others."""
    n_nodes = len(loads)
    start = sum(loads) % n_nodes if n_nodes else 0
    out: list[int] = []
    for k in range(n_vms):
        placed = False
        for step in range(n_nodes):
            i = (start + k + step) % n_nodes
            if loads[i] < cap:
                loads[i] += 1
                out.append(i)
                placed = True
                break
        if not placed:
            raise _CapacityError()
    return out


def _random(seed: int) -> Callable[[int, list[int], int], list[int]]:
    """Uniform draw among nodes with free capacity, from a dedicated
    seeded sub-stream.  The same spec string always produces the same
    assignment for the same inputs."""

    def placer(n_vms: int, loads: list[int], cap: int) -> list[int]:
        rng = SimRNG(seed).substream(RNG_KEY)
        out: list[int] = []
        for _ in range(n_vms):
            free = [i for i in range(len(loads)) if loads[i] < cap]
            if not free:
                raise _CapacityError()
            pick = free[int(rng.uniform_ns(0, len(free) - 1))]
            loads[pick] += 1
            out.append(pick)
        return out

    return placer


class _CapacityError(Exception):
    """Internal marker; :func:`place` converts it to a RuntimeError with
    the cluster name and shape attached."""


#: Policy registry: name -> placer(n_vms, loads, cap) -> assignment.
#: Placers mutate the ``loads`` list they are handed; :func:`place` gives
#: them a private copy, so the public API stays pure.
PLACEMENTS: dict[str, Callable[[int, list[int], int], list[int]]] = {
    "spread": _spread,
    "pack": _pack,
    "striped": _striped,
}


def placement_names() -> list[str]:
    """Registered policy names (plus the parametric ``random:SEED`` form)."""
    return [*PLACEMENTS, "random:SEED"]


def placer(policy: str) -> Callable[[int, list[int], int], list[int]]:
    """The placer of ``policy``; :class:`ValueError` for an unknown name."""
    if policy in PLACEMENTS:
        return PLACEMENTS[policy]
    if policy.startswith("random:"):
        try:
            seed = int(policy.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad random placement spec {policy!r}; want random:SEED") from None
        return _random(seed)
    raise ValueError(
        f"unknown placement policy {policy!r}; known: {', '.join(placement_names())}"
    )


def place(
    policy: str,
    n_vms: int,
    loads: Sequence[int],
    cap: int,
    cluster: str = "?",
) -> tuple[list[int], list[int]]:
    """Assign ``n_vms`` to nodes under ``policy``.

    ``loads`` is the current VM count per node (NOT mutated); ``cap`` the
    per-node VM capacity.  Returns ``(assignment, new_loads)``.  Raises
    ``RuntimeError`` naming ``cluster`` when capacity is exhausted and
    ``ValueError`` for an unknown policy name.
    """
    placement = placer(policy)
    new_loads = list(loads)
    try:
        assignment = placement(n_vms, new_loads, cap)
    except _CapacityError:
        raise RuntimeError(
            f"cluster {cluster!r} out of VM capacity ({cap} per node, {len(loads)} nodes)"
        ) from None
    return assignment, new_loads
