"""Physical machines: PCPUs and the per-node disk.

A :class:`PhysicalNode` owns a set of :class:`PCPU` execution resources and
one :class:`Disk`.  The hypervisor layer (:mod:`repro.hypervisor`) attaches
a VMM to each node and multiplexes VCPUs onto the PCPUs; this module only
holds the hardware state (who is running, cache warmth, counters).

The paper's testbed nodes have two quad-core Xeon E5620s (8 cores); that is
the default ``n_pcpus``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.cluster.cache import CacheParams, PCPUCache
from repro.sim.units import MSEC, USEC

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.hypervisor.vm import VCPU

__all__ = ["NodeParams", "DiskParams", "Disk", "PCPU", "PhysicalNode"]


@dataclass(frozen=True)
class DiskParams:
    """Per-request disk service model (2010s-era SATA drive)."""

    #: Fixed per-request positioning latency (ns).
    seek_ns: int = 2 * MSEC
    #: Sequential transfer bandwidth, bytes per second.
    bandwidth_Bps: float = 120e6

    def service_ns(self, nbytes: int) -> int:
        return self.seek_ns + int(nbytes / self.bandwidth_Bps * 1e9)


@dataclass(frozen=True)
class NodeParams:
    """Hardware description of one physical machine."""

    #: Number of physical cores (paper: 2x quad-core Xeon E5620).
    n_pcpus: int = 8
    #: Direct cost of a VMM context switch (register/VMCS swap, ns).
    ctx_switch_ns: int = 2 * USEC
    #: LLC model parameters.
    cache: CacheParams = field(default_factory=CacheParams)
    #: Disk model parameters.
    disk: DiskParams = field(default_factory=DiskParams)


class Disk:
    """FIFO disk: requests are served one at a time at ``DiskParams`` speed.

    The dom0 block backend submits requests; completion callbacks fire in
    submission order.  Keeps utilization counters for throughput metrics.
    """

    __slots__ = ("sim", "params", "_free_at", "requests", "bytes_moved")

    def __init__(self, sim, params: DiskParams) -> None:
        self.sim = sim
        self.params = params
        self._free_at = 0
        self.requests = 0
        self.bytes_moved = 0

    def submit(self, nbytes: int, done_fn) -> int:
        """Queue a request; ``done_fn`` fires at completion.  Returns the
        absolute completion time."""
        now = self.sim.now
        start = max(now, self._free_at)
        finish = start + self.params.service_ns(nbytes)
        self._free_at = finish
        self.requests += 1
        self.bytes_moved += nbytes
        # Disk completions are never cancelled: fire-and-forget.
        self.sim.post_at(finish, done_fn, cat="disk")
        return finish


class PCPU:
    """One physical core.

    The VMM mutates ``current``/``slice_end_ev``/``slice_end_ns``; this
    class only tracks hardware-side state and counters.  ``slice_end_ns``
    is the absolute deadline of the current dispatch's slice, written by
    ``VMM.dispatch`` before the runner is notified; runners read it to
    skip timers the slice expiry would cancel (see
    :mod:`repro.hypervisor.vmm`).  It is stale while the PCPU is idle.
    """

    __slots__ = (
        "index",
        "node",
        "cache",
        "current",
        "slice_end_ev",
        "slice_end_ns",
        "run_start_ns",
        "context_switches",
        "busy_ns",
    )

    def __init__(self, index: int, node: "PhysicalNode", cache_params: CacheParams) -> None:
        self.index = index
        self.node = node
        self.cache = PCPUCache(cache_params)
        self.current: Optional["VCPU"] = None
        self.slice_end_ev = None
        self.slice_end_ns = 0
        self.run_start_ns = 0
        self.context_switches = 0
        self.busy_ns = 0

    @property
    def is_idle(self) -> bool:
        return self.current is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cur = getattr(self.current, "name", None)
        return f"<PCPU {self.node.index}.{self.index} current={cur}>"


class PhysicalNode:
    """A physical machine: PCPUs + disk.  The VMM is attached by the
    hypervisor layer after construction."""

    __slots__ = ("index", "params", "pcpus", "disk", "vmm", "sim", "crashed")

    def __init__(self, sim, index: int, params: NodeParams | None = None) -> None:
        self.sim = sim
        self.index = index
        self.params = params or NodeParams()
        self.pcpus = [PCPU(i, self, self.params.cache) for i in range(self.params.n_pcpus)]
        self.disk = Disk(sim, self.params.disk)
        self.vmm = None  # set by repro.hypervisor.vmm.VMM
        #: Fault-injection crash flag (VMM.crash / restart): while set, no
        #: VM on this node runs and the fabric drops deliveries to it.
        self.crashed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PhysicalNode {self.index} pcpus={len(self.pcpus)}>"
