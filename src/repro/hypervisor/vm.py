"""Virtual machines and virtual CPUs.

A :class:`VCPU` is the schedulable entity: the VMM multiplexes VCPUs onto
PCPUs.  Each VCPU carries a *runner* — the guest-side logic that actually
executes when the VCPU holds a PCPU (a guest process via the 1:1 pinning of
:mod:`repro.guest.kernel`, or a dom0 backend worker).

Runner protocol (duck-typed)::

    runner.on_dispatch(now, overhead_ns)  # VCPU started running; overhead_ns
                                          # is context-switch + LLC refill
                                          # cost to charge to current work
    runner.on_preempt(now)                # VCPU involuntarily stopped
    runner.cache_sensitivity              # float multiplier for LLC model

Runners *voluntarily* stop by calling ``vcpu.block()`` (never from inside
``on_dispatch`` — see the reentrancy note in :mod:`repro.hypervisor.vmm`).

A VCPU with nothing attached holds the shared :data:`NO_RUNNER`: neutral
cache sensitivity, no-op notifications.  Woken anyway, it keeps its PCPU
until the slice expires, so the VMM never special-cases a missing runner.

Scheduler bookkeeping fields (``credit``, ``prio``, ``rq`` …) live directly
on the VCPU as plain slots to keep the hot path allocation-free; they are
owned by whichever scheduler is installed on the node.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import PCPU, PhysicalNode

__all__ = ["VCPUState", "VCPU", "VM", "NO_RUNNER"]


class VCPUState(enum.IntEnum):
    """Lifecycle of a VCPU, mirroring Xen's blocked/runnable/running."""

    BLOCKED = 0
    RUNNABLE = 1
    RUNNING = 2


class _NoRunner:
    """The runner of a VCPU nothing is attached to (see :data:`NO_RUNNER`)."""

    __slots__ = ()
    cache_sensitivity = 1.0

    def on_dispatch(self, now: int, overhead_ns: int) -> None:
        pass

    def on_preempt(self, now: int) -> None:
        pass


#: Shared default runner: every VCPU starts with it until the guest or
#: dom0 layer attaches a real one.
NO_RUNNER = _NoRunner()


class VCPU:
    """One virtual CPU of a VM."""

    __slots__ = (
        "vm",
        "index",
        "state",
        "runner",
        "pcpu",
        "rq",
        "run_start_ns",
        "total_run_ns",
        "period_run_ns",
        "period_charged_ns",
        "period_wakes",
        "wake_ns",
        "wake_pending",
        # scheduler-owned fields
        "credit",
        "prio",
        "queued",
    )

    def __init__(self, vm: "VM", index: int) -> None:
        self.vm = vm
        self.index = index
        self.state = VCPUState.BLOCKED
        self.runner = NO_RUNNER  # replaced by the guest / dom0 layer
        self.pcpu: Optional["PCPU"] = None
        self.rq: int = index % len(vm.node.pcpus)  # home run queue
        self.run_start_ns = 0
        self.total_run_ns = 0
        self.period_run_ns = 0
        #: What the scheduler actually *debits* this period.  Equal to
        #: ``period_run_ns`` under exact accounting; under Xen-faithful
        #: tick-sampled accounting (``CreditParams.tick_accounting``) a
        #: dispatch is charged per accounting tick it spans, which is the
        #: window the yield-before-tick theft attack games.
        self.period_charged_ns = 0
        self.period_wakes = 0
        self.wake_ns = 0
        #: A wake arrived while the VM was paused (fault injection); the
        #: VMM replays it on resume.
        self.wake_pending = False
        self.credit = 0.0
        self.prio = 1  # UNDER
        self.queued = False

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"{self.vm.name}.v{self.index}"

    def wake(self) -> None:
        """Make a blocked VCPU runnable (event-channel notification,
        timer expiry, message arrival...).  No-op unless BLOCKED.

        While the VM is paused (fault injection / node crash) the wake is
        latched instead of delivered; the VMM replays it on resume."""
        if self.vm.paused:
            self.wake_pending = True
            return
        if self.state is VCPUState.BLOCKED:
            self.state = VCPUState.RUNNABLE
            self.period_wakes += 1
            self.wake_ns = self.vm.node.sim.now
            self.vm.node.vmm.on_vcpu_wake(self)

    def block(self) -> None:
        """Voluntarily yield the PCPU and sleep until woken.

        Must be called by the runner *while RUNNING*, from its own event
        (never from inside ``on_dispatch``).
        """
        if self.state is not VCPUState.RUNNING:
            raise RuntimeError(f"{self.name}: block() while {self.state.name}")
        self.vm.node.vmm.vcpu_block(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VCPU {self.name} {self.state.name}>"


class VM:
    """A virtual machine: a set of VCPUs on one physical node.

    ``is_parallel`` is the VM-type input of the paper's Algorithm 2 (the
    administrator / cloud control plane knows which VMs belong to virtual
    clusters running parallel applications).
    """

    __slots__ = (
        "vmid",
        "name",
        "node",
        "vcpus",
        "is_parallel",
        "is_dom0",
        "weight",
        "cap",
        "slice_ns",
        "admin_slice_ns",
        "paused",
        "pause_depth",
        "kernel",
        "llc_misses",
        "llc_penalty_ns",
        "period_io_events",
        "total_io_events",
        "total_queue_wait_ns",
        "total_queue_waits",
        "period_run_ns",
        # theft accounting (repro.workloads.attacks / DESIGN.md §15)
        "cpu_consumed_ns",
        "cpu_debited_ns",
        "boost_preempts_inflicted",
        "boost_preempts_suffered",
        "boost_window_idx",
        "boost_window_wakes",
    )

    _next_id = 0

    def __init__(
        self,
        node: "PhysicalNode",
        n_vcpus: int,
        name: str | None = None,
        is_parallel: bool = False,
        is_dom0: bool = False,
        weight: float = 1.0,
    ) -> None:
        self.vmid = VM._next_id
        VM._next_id += 1
        self.name = name or f"vm{self.vmid}"
        self.node = node
        self.is_parallel = is_parallel
        self.is_dom0 = is_dom0
        self.weight = weight
        #: Per-VM CPU cap as a fraction of *host* capacity (Xen's
        #: non-work-conserving ``cap``): once the VM's VCPUs have run
        #: ``cap * period * n_pcpus`` ns within a period they are parked
        #: until the next accounting boundary, even if PCPUs sit idle.
        #: ``None`` (the default) = uncapped; set through the scheduler's
        #: cluster-scope hook (``set_vm_cap``), never written mid-period.
        self.cap: Optional[float] = None
        self.vcpus = [VCPU(self, i) for i in range(n_vcpus)]
        #: Current scheduler time slice for this VM (ns); set by the
        #: scheduler / ATC controller.  ``None`` means scheduler default.
        self.slice_ns: Optional[int] = None
        #: Administrator-specified slice for non-parallel VMs (Algorithm 2's
        #: flexibility interface); ``None`` = use VMM default.
        self.admin_slice_ns: Optional[int] = None
        #: Pause flag (VMM.pause_vm / resume_vm): while set, no VCPU of
        #: this VM runs and wakes are latched, not delivered.  Pauses
        #: nest (fault injection and migration stop-and-copy can overlap):
        #: ``pause_depth`` counts the outstanding pause_vm calls and the
        #: VM only unfreezes when the count returns to zero.
        self.paused = False
        self.pause_depth = 0
        self.kernel = None  # attached by repro.guest.kernel.GuestKernel
        self.llc_misses = 0
        self.llc_penalty_ns = 0
        self.period_io_events = 0
        self.total_io_events = 0
        #: Cumulative run-queue wait (RUNNABLE -> RUNNING latency) and
        #: dispatch count, kept by the VMM: the *non-intrusive* synchronization-
        #: pressure signal of the paper's future work.  Its readers (ATC's
        #: queue-wait monitor, DFRS) take deltas; nothing resets it.
        self.total_queue_wait_ns = 0
        self.total_queue_waits = 0
        #: Run time of all this VM's VCPUs this period: the running sum of
        #: their ``period_run_ns``, kept by the VMM next to the per-VCPU
        #: counters and reset with them at the accounting boundary, so a
        #: capped pick reads its budget without re-summing the VCPUs.
        self.period_run_ns = 0
        #: Theft accounting: CPU time this VM's VCPUs actually consumed vs
        #: what the scheduler debited against their credits.  Identical
        #: under exact accounting; a gap (consumed > debited) quantifies
        #: yield-before-tick theft under tick-sampled accounting.
        self.cpu_consumed_ns = 0
        self.cpu_debited_ns = 0
        #: BOOST-wake preemptions this VM's wakes inflicted on other VMs'
        #: running VCPUs / its own running VCPUs suffered (tickle-abuse
        #: pressure, both directions).
        self.boost_preempts_inflicted = 0
        self.boost_preempts_suffered = 0
        #: BOOST rate-limit window bookkeeping (scheduler-owned; only
        #: touched when ``CreditParams.boost_rate_limit`` > 0).
        self.boost_window_idx = -1
        self.boost_window_wakes = 0

    # ------------------------------------------------------------------
    def count_io_event(self, n: int = 1) -> None:
        """DSS observes per-VM I/O behaviour through this counter."""
        self.period_io_events += n
        self.total_io_events += n

    def drain_period_io(self) -> int:
        n = self.period_io_events
        self.period_io_events = 0
        return n

    def deliver(self, packet) -> None:
        """Final step of the Fig. 4 receive path: dom0 copied the packet to
        this VM's I/O ring and signalled its event channel."""
        if self.kernel is None:
            raise RuntimeError(f"{self.name}: packet delivered but no guest kernel")
        self.count_io_event()  # netfront receive is I/O activity (DSS input)
        self.kernel.deliver(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "dom0" if self.is_dom0 else ("par" if self.is_parallel else "np")
        return f"<VM {self.name} {kind} vcpus={len(self.vcpus)} node={self.node.index}>"
