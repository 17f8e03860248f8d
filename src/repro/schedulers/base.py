"""Scheduler protocol.

A scheduler instance is installed per node (as in Xen) and owns the node's
run queues.  The VMM calls into it at every scheduling decision point; the
scheduler calls back ``vmm.kick`` / ``vmm.preempt`` to effect placement
decisions.

Priorities follow Xen's credit scheduler convention: numerically lower
runs first (BOOST < UNDER < OVER).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sim.units import MSEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import PCPU
    from repro.hypervisor.vm import VCPU, VM
    from repro.hypervisor.vmm import VMM

__all__ = ["PRIO_BOOST", "PRIO_UNDER", "PRIO_OVER", "SchedulerParams", "Scheduler"]

PRIO_BOOST = 0
PRIO_UNDER = 1
PRIO_OVER = 2


@dataclass(frozen=True)
class SchedulerParams:
    """Parameters common to every scheduler model."""

    #: Default time slice (Xen credit default: 30 ms).
    slice_ns: int = 30 * MSEC
    #: Enable wake-time BOOST priority (credit-family schedulers).
    boost: bool = True


class Scheduler(abc.ABC):
    """Abstract per-node scheduler."""

    def __init__(self, vmm: "VMM", params: SchedulerParams | None = None) -> None:
        self.vmm = vmm
        self.params = params or SchedulerParams()
        #: Cluster-scope allocation updates staged by ``set_vm_cap`` /
        #: ``set_vm_weight`` (insertion-ordered ``{VM: value}``); applied
        #: at the next accounting boundary by ``apply_pending_allocations``
        #: so a mid-period publish cannot skew in-flight credit accounting.
        self._pending_caps: dict["VM", Optional[float]] = {}
        self._pending_weights: dict["VM", float] = {}

    # -- queue events ----------------------------------------------------
    @abc.abstractmethod
    def on_wake(self, vcpu: "VCPU") -> None:
        """A blocked VCPU became runnable; place (and maybe preempt)."""

    @abc.abstractmethod
    def pick_next(self, pcpu: "PCPU") -> Optional[tuple["VCPU", int]]:
        """Choose the next VCPU and its slice for an idle PCPU."""

    @abc.abstractmethod
    def on_slice_expired(self, vcpu: "VCPU") -> None:
        """A VCPU consumed its full slice; requeue it."""

    @abc.abstractmethod
    def on_preempted(self, vcpu: "VCPU") -> None:
        """A VCPU was involuntarily descheduled mid-slice; requeue it."""

    def on_block(self, vcpu: "VCPU") -> None:
        """A running VCPU blocked voluntarily (default: nothing to do)."""

    def remove_queued(self, vcpu: "VCPU") -> None:
        """Withdraw a queued RUNNABLE VCPU from the run queues without
        dispatching it — the VMM's fault-injection pause path.  Schedulers
        with explicit queues must drop the VCPU from them; the default
        only clears the bookkeeping flag."""
        vcpu.queued = False

    # -- cluster-scope allocation hooks -----------------------------------
    def set_vm_cap(self, vm: "VM", cap: Optional[float]) -> None:
        """Stage a per-VM CPU cap (fraction of host capacity; ``None`` =
        uncapped) from a cluster-level controller (:mod:`repro.dfrs`).

        The cap is *not* applied immediately: it takes effect at the next
        accounting boundary (``apply_pending_allocations``), so the
        in-flight period's budgets stay consistent with the weights and
        caps its accounting started under."""
        self._pending_caps[vm] = cap

    def set_vm_weight(self, vm: "VM", weight: float) -> None:
        """Stage a per-VM proportional-share weight from a cluster-level
        controller; applied at the next accounting boundary, like
        :meth:`set_vm_cap`."""
        if weight <= 0:
            raise ValueError(f"{vm.name}: weight must be positive, got {weight}")
        self._pending_weights[vm] = weight

    def apply_pending_allocations(self) -> None:
        """Apply staged cap/weight updates.  Called by concrete schedulers
        at the *top* of their accounting boundary (before shares are
        computed), so the new weights govern the very period they open.
        No-op — and allocation-free — when nothing is staged, keeping
        worlds without a cluster controller bit-identical."""
        if self._pending_weights:
            for vm, weight in self._pending_weights.items():
                vm.weight = weight
            self._pending_weights.clear()
        if self._pending_caps:
            for vm, cap in self._pending_caps.items():
                vm.cap = cap
            self._pending_caps.clear()

    # -- periodic accounting ----------------------------------------------
    def on_period(self, now: int) -> None:
        """Called once per VMM scheduling period (default: nothing)."""

    # -- policy ------------------------------------------------------------
    def slice_for(self, vcpu: "VCPU") -> int:
        """Time slice for a VCPU: per-VM override or scheduler default."""
        vm: "VM" = vcpu.vm
        if vm.slice_ns is not None:
            return vm.slice_ns
        return self.params.slice_ns
