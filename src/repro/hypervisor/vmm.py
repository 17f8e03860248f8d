"""The per-node virtual machine monitor: dispatch machinery.

One :class:`VMM` runs on each physical node.  It owns the node's VMs
(including dom0), drives the installed scheduler, and performs the actual
PCPU context switches: charging the direct switch cost and the LLC refill
penalty (:mod:`repro.cluster.cache`), arming the slice timer, and notifying
runners.

Reentrancy contract
-------------------
``dispatch`` calls ``runner.on_dispatch``; runners must never synchronously
call back into ``vcpu.block()`` / ``wake`` chains that re-enter dispatch on
the same PCPU.  Guest processes honour this by resolving state changes in
zero-delay follow-up events (see :mod:`repro.guest.process`).  The VMM
itself only re-enters ``dispatch`` after fully unwinding the previous
PCPU transaction.

Before ``on_dispatch`` runs, ``dispatch`` has armed the slice timer and
written its absolute deadline to ``pcpu.slice_end_ns``.  Every path that
takes a running VCPU off its PCPU without the runner asking (slice
expiry, ``preempt``, ``pause_vm``) calls ``runner.on_preempt`` first, and
that call must settle the runner's partial progress and drop its pending
timers.  A runner may therefore skip arming any timer that would fire
strictly after ``pcpu.slice_end_ns``: such a timer could only ever be
cancelled.  Guest processes do (see ``GuestProcess._arm``); a timer
that ties with the deadline is still armed, because ``tie_order`` decides
whether it or the slice expiry runs first.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from repro.hypervisor.vm import VCPU, VCPUState, VM
from repro.obs import trace as obstrace
from repro.sim.engine import Event
from repro.sim.units import MSEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import PCPU, PhysicalNode
    from repro.sim.engine import Simulator

__all__ = ["VMM"]

_BLOCKED = VCPUState.BLOCKED
_RUNNABLE = VCPUState.RUNNABLE
_RUNNING = VCPUState.RUNNING


class VMM:
    """Hypervisor instance for one physical node."""

    __slots__ = (
        "sim",
        "node",
        "scheduler",
        "vms",
        "dom0",
        "period_ns",
        "_period_started",
        "period_hooks",
        "_slice_timers",
        "_ctx_switch_ns",
        "_exact_charge",
    )

    def __init__(
        self,
        sim: "Simulator",
        node: "PhysicalNode",
        scheduler_factory: Callable[["VMM"], object],
        period_ns: int = 30 * MSEC,
    ) -> None:
        self.sim = sim
        self.node = node
        node.vmm = self
        self.vms: list[VM] = []
        self.dom0 = None  # set by repro.hypervisor.dom0.Dom0
        self.period_ns = period_ns
        self._period_started = False
        #: Extra callables invoked each scheduling period *after* the
        #: scheduler's own accounting (ATC controller, CS trigger, ...).
        self.period_hooks: list[Callable[[int], None]] = []
        self._ctx_switch_ns = node.params.ctx_switch_ns
        #: One slice-expiry timer per PCPU (indexed by ``pcpu.index``), re-armed by
        #: every dispatch, which so allocates nothing; the ``partial`` adds no frame.
        self._slice_timers = [Event(fn=partial(self._on_slice_end, p), cat="vmm.slice")
                              for p in node.pcpus]
        self.scheduler = scheduler_factory(self)
        #: Debit the run time itself unless ``charge_ns`` samples ticks.
        self._exact_charge = not getattr(self.scheduler.params, "tick_accounting", False)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_vm(self, vm: VM) -> None:
        if vm.node is not self.node:
            raise ValueError(f"{vm.name} belongs to node {vm.node.index}, not {self.node.index}")
        self.vms.append(vm)

    def start(self) -> None:
        """Begin periodic scheduler accounting.  Idempotent."""
        if not self._period_started:
            self._period_started = True
            self.sim.post_after(self.period_ns, self._period_tick, cat="vmm.period")

    def _period_tick(self) -> None:
        now = self.sim.now
        if not self.node.crashed:
            self.scheduler.on_period(now)
            for hook in self.period_hooks:
                hook(now)
        # Keep ticking even while crashed so the period phase survives a
        # restart without rescheduling bookkeeping.
        self.sim.post_after(self.period_ns, self._period_tick, cat="vmm.period")

    # ------------------------------------------------------------------
    # Dispatch transactions
    # ------------------------------------------------------------------
    def dispatch(self, pcpu: "PCPU") -> None:
        """Pick the next VCPU for an idle PCPU and start it."""
        if pcpu.current is not None:
            raise RuntimeError(f"dispatch on busy PCPU {pcpu!r}")
        picked = self.scheduler.pick_next(pcpu)
        if picked is None:
            return
        sim = self.sim
        now = sim.now
        vcpu, slice_ns = picked
        if vcpu.state is not _RUNNABLE:
            raise RuntimeError(f"picked {vcpu.name} in state {vcpu.state.name}")
        vm = vcpu.vm
        # Non-intrusive monitoring signal: how long the VCPU sat runnable.
        wait_ns = now - vcpu.wake_ns
        vm.total_queue_wait_ns += wait_ns
        vm.total_queue_waits += 1
        if obstrace.enabled:
            obstrace.emit(
                "sched.dispatch",
                now,
                node=self.node.index,
                pcpu=pcpu.index,
                vcpu=vcpu.name,
                vm=vm.name,
                slice_ns=slice_ns,
                wait_ns=wait_ns,
            )
        vcpu.state = _RUNNING
        vcpu.pcpu = pcpu
        vcpu.rq = index = pcpu.index
        vcpu.run_start_ns = now
        pcpu.current = vcpu
        pcpu.run_start_ns = now

        runner = vcpu.runner
        cache = pcpu.cache
        switched = cache.last_key is not vcpu
        penalty, misses = cache.on_dispatch(now, vcpu, runner.cache_sensitivity)
        overhead = 0
        if switched:
            pcpu.context_switches += 1
            overhead = self._ctx_switch_ns + penalty
            vm.llc_misses += misses
            vm.llc_penalty_ns += penalty

        pcpu.slice_end_ns = deadline = now + slice_ns
        pcpu.slice_end_ev = sim.rearm(self._slice_timers[index], deadline)
        runner.on_dispatch(now, overhead)

    def _stop_current(self, pcpu: "PCPU", next_state: VCPUState) -> VCPU:
        """Common tail of every deschedule path: accounting + cache."""
        vcpu = pcpu.current
        now = self.sim.now
        ev = pcpu.slice_end_ev
        if ev is not None:
            ev.cancel()
            pcpu.slice_end_ev = None
        start = vcpu.run_start_ns
        ran = now - start
        vm = vcpu.vm
        vcpu.total_run_ns += ran
        vcpu.period_run_ns += ran
        vm.period_run_ns += ran
        # What the scheduler *debits* for this dispatch.  Exact accounting
        # charges ran; tick-sampled accounting (CreditParams.tick_accounting)
        # charges per tick boundary crossed — the charged/ran gap is the
        # theft-accounting signal of the adversarial-tenancy experiments.
        charged = ran if self._exact_charge else self.scheduler.charge_ns(
            vcpu, start, now, next_state is _BLOCKED)
        vcpu.period_charged_ns += charged
        vm.cpu_consumed_ns += ran
        vm.cpu_debited_ns += charged
        pcpu.busy_ns += ran
        pcpu.cache.on_undispatch(now, vcpu)
        if obstrace.enabled:
            if charged != ran:
                obstrace.emit(
                    "sched.theft",
                    now,
                    node=self.node.index,
                    pcpu=pcpu.index,
                    vcpu=vcpu.name,
                    vm=vm.name,
                    ran_ns=ran,
                    charged_ns=charged,
                )
            obstrace.emit(
                "vcpu.state",
                now,
                node=self.node.index,
                pcpu=pcpu.index,
                vcpu=vcpu.name,
                vm=vm.name,
                to_state=next_state.name,
                ran_ns=ran,
            )
        vcpu.state = next_state
        if next_state is _RUNNABLE:
            vcpu.wake_ns = now  # run-queue wait starts now
        vcpu.pcpu = None
        pcpu.current = None
        return vcpu

    def _on_slice_end(self, pcpu: "PCPU") -> None:
        vcpu = pcpu.current
        if vcpu is None:  # pragma: no cover - cancelled races are defensive
            return
        pcpu.slice_end_ev = None
        vcpu.runner.on_preempt(self.sim.now)
        self._stop_current(pcpu, _RUNNABLE)
        self.scheduler.on_slice_expired(vcpu)
        self.dispatch(pcpu)

    def vcpu_block(self, vcpu: VCPU) -> None:
        """Voluntary block of the currently running VCPU (from its runner)."""
        pcpu = vcpu.pcpu
        if pcpu is None or pcpu.current is not vcpu:
            raise RuntimeError(f"block of non-running {vcpu.name}")
        self._stop_current(pcpu, _BLOCKED)
        self.scheduler.on_block(vcpu)
        self.dispatch(pcpu)

    def preempt(self, pcpu: "PCPU") -> None:
        """Involuntarily deschedule whatever runs on ``pcpu`` and re-pick.

        Used for wake-time boost preemption (Credit) and co-scheduling
        (CS).  The descheduled VCPU is returned to the run queues.
        """
        if pcpu.current is None:
            self.dispatch(pcpu)
            return
        vcpu = pcpu.current
        vcpu.runner.on_preempt(self.sim.now)
        self._stop_current(pcpu, _RUNNABLE)
        self.scheduler.on_preempted(vcpu)
        self.dispatch(pcpu)

    def on_vcpu_wake(self, vcpu: VCPU) -> None:
        """A blocked VCPU became runnable; let the scheduler place it."""
        self.scheduler.on_wake(vcpu)

    def kick(self, pcpu: "PCPU") -> None:
        """Dispatch ``pcpu`` if idle (used by schedulers after queueing)."""
        if pcpu.current is None:
            self.dispatch(pcpu)

    # ------------------------------------------------------------------
    # VM freezing (repro.faults pauses, repro.migration stop-and-copy)
    # ------------------------------------------------------------------
    def pause_vm(self, vm: VM, redispatch: bool = True) -> None:
        """Freeze ``vm``: deschedule its running VCPUs, withdraw queued
        ones, and latch any wake that arrives while paused (the guest's
        pending timers / deliveries replay on resume).

        Pauses nest: every ``pause_vm`` call must be matched by a
        ``resume_vm`` before the VM unfreezes, so an overlapping fault
        pause and migration stop-and-copy cannot double-resume each
        other's window.

        ``redispatch=False`` is used by :meth:`crash`, which frees every
        PCPU at once and must not re-dispatch in between."""
        vm.pause_depth += 1
        if vm.paused:
            return
        vm.paused = True
        freed: list["PCPU"] = []
        for vcpu in vm.vcpus:
            if vcpu.state is _RUNNING:
                pcpu = vcpu.pcpu
                vcpu.runner.on_preempt(self.sim.now)
                self._stop_current(pcpu, _BLOCKED)
                vcpu.wake_pending = True
                freed.append(pcpu)
            elif vcpu.state is _RUNNABLE:
                self.scheduler.remove_queued(vcpu)
                vcpu.state = _BLOCKED
                vcpu.wake_pending = True
        if redispatch:
            for pcpu in freed:
                self.dispatch(pcpu)

    def resume_vm(self, vm: VM) -> None:
        """Release one pause of ``vm``; unfreeze and replay latched wakes
        when the last outstanding pause is released.  A resume of an
        unpaused VM is a no-op."""
        if not vm.paused:
            vm.pause_depth = 0
            return
        vm.pause_depth -= 1
        if vm.pause_depth > 0:
            return
        vm.pause_depth = 0
        self._unfreeze(vm)

    def _unfreeze(self, vm: VM) -> None:
        vm.paused = False
        for vcpu in vm.vcpus:
            if vcpu.wake_pending:
                vcpu.wake_pending = False
                vcpu.wake()

    def crash(self) -> None:
        """Take the whole node down: every VM (dom0 included) is paused
        and the node is flagged crashed, which gates the period tick and
        lets the fabric drop in-flight deliveries.  Idempotent."""
        if self.node.crashed:
            return
        for vm in self.vms:
            self.pause_vm(vm, redispatch=False)
        self.node.crashed = True

    def restart(self) -> None:
        """Bring a crashed node back: clear the flag, then resume every
        VM (replaying wakes latched while down).  A reboot forgets any
        administrative pause that started before the crash, so the pause
        depth is force-cleared.  Idempotent."""
        if not self.node.crashed:
            return
        self.node.crashed = False
        for vm in self.vms:
            if vm.paused:
                vm.pause_depth = 0
                self._unfreeze(vm)

    # ------------------------------------------------------------------
    @property
    def guest_vms(self) -> list[VM]:
        """All VMs except dom0."""
        return [vm for vm in self.vms if not vm.is_dom0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VMM node={self.node.index} vms={len(self.vms)}>"
