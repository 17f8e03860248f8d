"""Guest kernel: process table and spinlock-latency accounting.

The paper instruments the guest Linux kernel to measure spinlock latency
and exports it to the VMM ("an intrusive monitoring method in the OS
kernel", Section VI).  :class:`GuestKernel` is that monitor: every
completed spin wait (lock, barrier-generation, or busy-wait receive — the
synchronization phases of the BSP model, Section II-B) is accumulated, and
the VMM-side ATC monitor drains the accumulator once per scheduling
period to obtain the *average spinlock latency of the VM during that
period* — the exact input of Algorithm 1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.guest.process import GuestProcess
from repro.sim.units import MSEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.dom0 import Packet
    from repro.hypervisor.vm import VM
    from repro.sim.engine import Simulator

__all__ = ["GuestKernel"]


class GuestKernel:
    """Guest OS instance for one VM; pins process *i* to VCPU *i*."""

    __slots__ = (
        "sim",
        "vm",
        "spin_block_ns",
        "processes",
        "period_spin_ns",
        "period_spin_count",
        "total_spin_ns",
        "total_spin_count",
        "spin_by_kind",
        "packet_log",
    )

    def __init__(self, sim: "Simulator", vm: "VM", spin_block_ns: "int | None" = 20 * MSEC) -> None:
        """``spin_block_ns`` is the PV-spinlock grace budget: CPU time a
        waiter spins before blocking on its event channel (Xen PV guests
        and MPI runtimes both spin-then-yield).  ``None`` = spin forever
        (pure busy-waiting, for ablations)."""
        self.sim = sim
        self.vm = vm
        self.spin_block_ns = spin_block_ns
        vm.kernel = self
        self.processes: list[GuestProcess] = []
        self.period_spin_ns = 0
        self.period_spin_count = 0
        self.total_spin_ns = 0
        self.total_spin_count = 0
        self.spin_by_kind: dict[str, int] = {}
        #: When set to a list, every delivered packet is appended — used by
        #: the Fig. 4 overhead-source probe to read per-hop timestamps.
        self.packet_log: list | None = None

    # ------------------------------------------------------------------
    def add_process(self, cache_sensitivity: float = 1.0) -> GuestProcess:
        """Create a process pinned to the next free VCPU."""
        idx = len(self.processes)
        if idx >= len(self.vm.vcpus):
            raise RuntimeError(
                f"{self.vm.name}: more processes ({idx + 1}) than VCPUs ({len(self.vm.vcpus)})"
            )
        proc = GuestProcess(self, idx, cache_sensitivity)
        self.processes.append(proc)
        return proc

    # ------------------------------------------------------------------
    # Network receive (Fig. 4 step 10-11)
    # ------------------------------------------------------------------
    def deliver(self, pkt: "Packet") -> None:
        if self.packet_log is not None:
            self.packet_log.append(pkt)
        proc = self.processes[pkt.dst_proc]
        proc.on_message(pkt)

    # ------------------------------------------------------------------
    # Spinlock-latency monitor
    # ------------------------------------------------------------------
    def record_spin_wait(self, wait_ns: int, kind: str) -> None:
        sim = self.sim
        if sim.record is not None:
            sim.record(
                "spin.episode",
                sim.now,
                node=self.vm.node.index,
                vm=self.vm.name,
                spin_kind=kind,
                wait_ns=wait_ns,
            )
        self.period_spin_ns += wait_ns
        self.period_spin_count += 1
        self.total_spin_ns += wait_ns
        self.total_spin_count += 1
        self.spin_by_kind[kind] = self.spin_by_kind.get(kind, 0) + wait_ns

    def drain_period_spin(self) -> tuple[int, int]:
        """Return ``(total_wait_ns, completed_waits)`` for the period just
        ended, and reset the period accumulator.  Called by the VMM-side
        monitor once per scheduling period."""
        stats = (self.period_spin_ns, self.period_spin_count)
        self.period_spin_ns = 0
        self.period_spin_count = 0
        return stats

    @property
    def avg_spin_ns(self) -> float:
        """Lifetime average spin latency (reporting only)."""
        if self.total_spin_count == 0:
            return 0.0
        return self.total_spin_ns / self.total_spin_count
