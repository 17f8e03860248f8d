"""Co-Scheduling (CS) — dynamic spinlock-driven gang scheduling.

Model of the dynamic adaptive co-scheduling approach the paper compares
against ([7], Weng et al.): the VMM watches each SMP VM's spinlock wait
time; when it exceeds a threshold within an observation window, the VM is
marked for co-scheduling and all its VCPUs are ganged onto distinct PCPUs
simultaneously for the next slice — preempting whatever else was running.

Two properties of CS matter for the paper's comparison and emerge here:

* VCPUs of one VM are synchronized, so intra-VM LHP drops — CS beats CR
  for parallel apps;
* but (a) VMs of the same *virtual cluster* on different hosts are still
  scheduled asynchronously (each host gangs independently), so cross-VM
  synchronization overhead remains and grows with cluster scale (Fig. 1),
  and (b) the gang preemptions hurt latency-sensitive and CPU-bound
  neighbours (Figs. 2, 13, 14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.hypervisor.vm import VCPUState
from repro.schedulers.credit import CreditParams, CreditScheduler
from repro.sim.units import MSEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import PCPU
    from repro.hypervisor.vm import VCPU, VM
    from repro.hypervisor.vmm import VMM

__all__ = ["CoScheduleParams", "CoScheduler"]

_RUNNABLE = VCPUState.RUNNABLE


@dataclass(frozen=True)
class CoScheduleParams(CreditParams):
    """CS tunables."""

    #: Minimum spinlock wait accumulated in one scheduling period that
    #: flags a VM as synchronization-bound and triggers co-scheduling.
    spin_threshold_ns: int = 1 * MSEC
    #: How long a co-schedule gang lease lasts (one default slice).
    gang_slice_ns: int = 30 * MSEC
    #: Fraction of slots that host a gang; the rest are gang-free so
    #: non-parallel VMs keep their proportional share (real dynamic
    #: co-scheduling gangs within the fair-share envelope rather than as
    #: a strict priority class).
    gang_duty: float = 0.75
    #: When True, gang members cannot be preempted by boosted guest wakes
    #: (strict gangs — ablation mode); the default allows ratelimited
    #: boost preemption, as Xen's credit scheduler would.
    deny_gang_preemption: bool = False


class CoScheduler(CreditScheduler):
    """Credit + dynamic co-scheduling of spin-heavy SMP VMs."""

    name = "CS"

    def __init__(self, vmm: "VMM", params: CoScheduleParams | None = None) -> None:
        super().__init__(vmm, params or CoScheduleParams())
        self._spin_seen: dict[int, int] = {}
        self._co_vm: Optional["VM"] = None
        self._co_until = -1
        self._flagged: list["VM"] = []  # spin-heavy VMs, domain-ID order
        self._boundary_armed = False
        self.gangs_triggered = 0

    # ------------------------------------------------------------------
    def _co_active(self) -> Optional["VM"]:
        if self._co_vm is not None and self.vmm.sim.now < self._co_until:
            return self._co_vm
        return None

    def _running_prio(self, pcpu: "PCPU") -> int:
        """Gang members hold a BOOST-equivalent shield until the next
        global tick: boosted latency-sensitive wakes get through, but one
        tick late on average — CS's moderate ping/web degradation."""
        from repro.schedulers.base import PRIO_BOOST

        rp = super()._running_prio(pcpu)
        cur = pcpu.current
        co = self._co_active()
        if co is not None and cur is not None and cur.vm is co:
            tick = self.params.tick_ns
            if self.vmm.sim.now // tick == pcpu.run_start_ns // tick:
                return PRIO_BOOST
        return rp

    def _may_preempt(self, vcpu, pcpu: "PCPU") -> bool:
        # dom0 may always interject (the gang would otherwise starve its
        # own netback path).  Other boosted wakes may also preempt a gang
        # member — but only through the base class's ratelimit, and the
        # gang re-asserts immediately afterwards (pick_next prefers ganged
        # VCPUs), so latency-sensitive neighbours see an extra ratelimit
        # of delay per wake plus gang-induced queueing: the moderate
        # ping/web degradation of Figs. 2 and 13.
        if vcpu is not None and vcpu.vm.is_dom0:
            return True
        if pcpu.current is not None and self.params.deny_gang_preemption:
            co_vm = self._co_active()
            return not (co_vm is not None and pcpu.current.vm is co_vm)
        return True

    def on_wake(self, vcpu: "VCPU") -> None:
        super().on_wake(vcpu)
        # A ganged VCPU that wakes mid-lease (e.g. its cross-VM message
        # arrived) rejoins the gang immediately.
        co_vm = self._co_active()
        if co_vm is not None and vcpu.vm is co_vm and vcpu.queued:
            pcpu = self.vmm.node.pcpus[vcpu.rq]
            if pcpu.current is not None and pcpu.current.vm is not co_vm:
                self.vmm.preempt(pcpu)

    def pick_next(self, pcpu: "PCPU") -> Optional[tuple["VCPU", int]]:
        co_vm = self._co_active()
        if co_vm is not None:
            # Boosted wakes outrank the gang (they preempted their way in;
            # handing the PCPU back to the gang would undo the tickle).
            from repro.schedulers.base import PRIO_BOOST

            if not any(v.prio == PRIO_BOOST for v in self.runqs[pcpu.index]):
                # Otherwise prefer a ganged VCPU wherever one is queued.
                for q in (self.runqs[pcpu.index], *self.runqs):
                    for i, v in enumerate(q):
                        if v.vm is co_vm:
                            del q[i]
                            v.queued = False
                            v.rq = pcpu.index
                            return v, self.slice_for(v)
        return super().pick_next(pcpu)

    # ------------------------------------------------------------------
    def on_period(self, now: int) -> None:
        super().on_period(now)
        flagged: list["VM"] = []
        for vm in self.vmm.guest_vms:
            if vm.kernel is None:
                continue
            seen = self._spin_seen.get(vm.vmid, 0)
            total = vm.kernel.total_spin_ns
            delta = total - seen
            self._spin_seen[vm.vmid] = total
            if delta >= self.params.spin_threshold_ns:
                flagged.append(vm)
        # Gang flagged VMs in wall-clock slots, ordered by domain ID.
        # Because the slot index derives from absolute time and domain IDs
        # of a virtual cluster's VMs are created together, hosts with the
        # *same* set of spin-heavy clusters gang the two halves of a
        # cluster simultaneously without any cross-host protocol; with
        # heterogeneous cluster mixes the orders diverge and the gangs
        # de-align — reproducing CS's scalability problem (Fig. 1).
        flagged.sort(key=lambda vm: vm.vmid)
        self._flagged = flagged
        if flagged and not self._boundary_armed:
            self._arm_boundary(now)

    def _arm_boundary(self, now: int) -> None:
        gang = self.params.gang_slice_ns
        nxt = (now // gang + 1) * gang
        self._boundary_armed = True
        self.vmm.sim.post_at(nxt, self._boundary, cat="sched.cosched")
        self._slot_gang(now)

    def _boundary(self) -> None:
        self._boundary_armed = False
        if self._flagged:
            self._arm_boundary(self.vmm.sim.now)
        else:
            self._co_vm = None

    def _slot_gang(self, now: int) -> None:
        """Gang the VM owning the current wall-clock slot (or none, on a
        fairness slot)."""
        flagged = self._flagged
        if not flagged:
            self._end_gang()
            return
        gang = self.params.gang_slice_ns
        slot = now // gang
        duty = min(1.0, max(0.1, self.params.gang_duty))
        cycle = max(2, round(1.0 / max(1e-9, 1.0 - duty))) if duty < 1.0 else 0
        if cycle and slot % cycle == cycle - 1:
            self._end_gang()  # gang-free slot: everyone competes normally
            return
        gang_slot = slot - (slot // cycle + 1 if cycle else 0)
        vm = flagged[gang_slot % len(flagged)]
        if self._co_vm is vm and now < self._co_until:
            return
        self._trigger_gang(vm, now)

    def _end_gang(self) -> None:
        """Close the current gang and release its PCPUs for fair dispatch."""
        old = self._co_vm
        self._co_vm = None
        if old is None:
            return
        for p in self.vmm.node.pcpus:
            if p.current is not None and p.current.vm is old:
                self.vmm.preempt(p)

    def _trigger_gang(self, vm: "VM", now: int) -> None:
        """Gang-schedule ``vm``: run its runnable VCPUs simultaneously on
        distinct PCPUs, preempting other VMs."""
        gang = self.params.gang_slice_ns
        self._co_vm = vm
        self._co_until = (now // gang + 1) * gang  # lease ends at the slot boundary
        self.gangs_triggered += 1
        runnable = [v for v in vm.vcpus if v.state is _RUNNABLE]
        if not runnable:
            return
        need = len(runnable)
        # Free up PCPUs: idle ones first, then ones running other VMs.
        pcpus = self.vmm.node.pcpus
        freed = 0
        for p in pcpus:
            if freed >= need:
                break
            if p.current is None:
                self.vmm.kick(p)
                freed += 1
        for p in pcpus:
            if freed >= need:
                break
            if p.current is not None and p.current.vm is not vm:
                self.vmm.preempt(p)  # dispatch will pick a ganged VCPU
                freed += 1
