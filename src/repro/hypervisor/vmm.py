"""The per-node virtual machine monitor: the context-switch transaction.

One :class:`VMM` runs on each physical node.  It owns the node's VMs
(including dom0), drives the installed scheduler, and performs the actual
PCPU context switches: charging the direct switch cost and the LLC refill
penalty (:mod:`repro.cluster.cache`), arming the slice timer, and notifying
runners.

The switch transaction
----------------------
Every context switch is one :meth:`VMM.dispatch` call.  Given the cause
the running VCPU leaves for (:data:`EXPIRE` from the slice timer,
:data:`PREEMPT`, :data:`BLOCK` or :data:`PAUSE`), it settles that VCPU
(``runner.on_preempt`` unless the runner blocked itself, then the one
deschedule accounting of run time, debit, PCPU busy time and the cache
leave time), hands it to the scheduler hook for the cause
(``on_slice_expired``, ``on_preempted`` or ``on_block``; a pause requeues
nothing and stops there), picks the next VCPU and starts it.  A real
switch, and only that, costs ``ctx_switch_ns`` plus the refill penalty
``PCPUCache.on_dispatch`` returns.  Each PCPU's slice timer calls
``dispatch`` as bound when the VMM is built: wrap ``VMM.dispatch`` before
building a world to observe expiries.

Decision points
---------------
The VMM reports each scheduler decision to its one ``observer`` (the
runtime sanitizer; ``None`` by default, so a plain run pays one test per
switch, wake and period tick):

* ``observer.switch(vmm, pcpu, prev, cause, picked)`` once per
  ``pick_next`` call in :meth:`VMM.dispatch`, after it returns and before
  the picked VCPU is checked or started.  ``prev`` is the VCPU that left
  for ``cause`` and has been handed to the scheduler's hook for it, or
  ``None`` when an idle PCPU starts; ``picked`` is what ``pick_next``
  returned.  A pause calls no scheduler hook and reports nothing;
* ``observer.wake(vmm, vcpu)`` before ``scheduler.on_wake``;
* ``observer.period(vmm, stage)`` on each live period tick, ``stage``
  being ``"begin"`` before ``scheduler.on_period``, ``"accounted"``
  after it and ``"end"`` after the period hooks.

An observer only reads: an observed run is bit-identical to a plain one.

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

from repro.hypervisor.vm import BLOCKED, RUNNABLE, RUNNING, VCPU, VM
from repro.sim.engine import Event
from repro.sim.units import MSEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import PCPU, PhysicalNode
    from repro.sim.engine import Simulator

__all__ = ["VMM", "EXPIRE", "PREEMPT", "BLOCK", "PAUSE"]

#: Why :meth:`VMM.dispatch` takes the running VCPU off its PCPU.  The
#: first two leave it RUNNABLE, the last two BLOCKED.
EXPIRE, PREEMPT, BLOCK, PAUSE = range(4)


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
        "observer",
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
        self._slice_timers = [Event(fn=partial(self.dispatch, p, EXPIRE), cat="vmm.slice")
                              for p in node.pcpus]
        self.scheduler = scheduler_factory(self)
        #: Debit the run time itself unless ``charge_ns`` samples ticks.
        self._exact_charge = not getattr(self.scheduler.params, "tick_accounting", False)
        #: The decision-point observer (see the module docstring), or ``None``.
        self.observer = None

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
            self.sim.after(self.period_ns, self._period_tick, cat="vmm.period")

    def _period_tick(self) -> None:
        now = self.sim.now
        if not self.node.crashed:
            observer = self.observer
            if observer is not None:
                observer.period(self, "begin")
            self.scheduler.on_period(now)
            if observer is not None:
                observer.period(self, "accounted")
            for hook in self.period_hooks:
                hook(now)
            if observer is not None:
                observer.period(self, "end")
        # Keep ticking even while crashed so the period phase survives a
        # restart without rescheduling bookkeeping.
        self.sim.after(self.period_ns, self._period_tick, cat="vmm.period")

    # ------------------------------------------------------------------
    # The switch transaction
    # ------------------------------------------------------------------
    def dispatch(self, pcpu: "PCPU", cause: Optional[int] = None) -> None:
        """Switch ``pcpu``: settle the VCPU it runs and hand it to the
        scheduler hook for ``cause``, then pick the next VCPU and start it.

        ``cause`` is why the running VCPU leaves (:data:`EXPIRE`,
        :data:`PREEMPT`, :data:`BLOCK` or :data:`PAUSE`); ``None`` starts
        an idle PCPU, and a cause given for an idle PCPU is ignored.  A
        pause only settles: the VCPU is not requeued and nothing is picked.
        """
        sim = self.sim
        now = sim.now
        sched = self.scheduler
        vcpu = pcpu.current
        if vcpu is not None:
            if cause is None:
                raise RuntimeError(f"dispatch on busy PCPU {pcpu!r}")
            ev = pcpu.slice_end_ev
            if ev is not None:
                if cause != EXPIRE:  # an expiry's timer has just fired
                    ev.cancel()
                pcpu.slice_end_ev = None
            if cause != BLOCK:  # a block is the runner's own request
                vcpu.runner.on_preempt(now)
            # Deschedule accounting, the one definition for every cause.
            state = RUNNABLE if cause < BLOCK else BLOCKED
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
            charged = ran if self._exact_charge else sched.charge_ns(
                vcpu, start, now, state is BLOCKED)
            vcpu.period_charged_ns += charged
            vm.cpu_consumed_ns += ran
            vm.cpu_debited_ns += charged
            pcpu.busy_ns += ran
            pcpu.cache.left_ns = now
            if sim.record is not None:
                if charged != ran:
                    sim.record(
                        "sched.theft",
                        now,
                        node=self.node.index,
                        pcpu=pcpu.index,
                        vcpu=vcpu.name,
                        vm=vm.name,
                        ran_ns=ran,
                        charged_ns=charged,
                    )
                sim.record(
                    "vcpu.state",
                    now,
                    node=self.node.index,
                    pcpu=pcpu.index,
                    vcpu=vcpu.name,
                    vm=vm.name,
                    to_state=state.name,
                    ran_ns=ran,
                )
            vcpu.state = state
            vcpu.pcpu = None
            pcpu.current = None
            # Requeue through the scheduler's hook for the cause.
            if cause == EXPIRE:
                vcpu.wake_ns = now  # run-queue wait starts now
                sched.on_slice_expired(vcpu)
            elif cause == PREEMPT:
                vcpu.wake_ns = now
                sched.on_preempted(vcpu)
            elif cause == BLOCK:
                sched.on_block(vcpu)
            else:
                return

        picked = sched.pick_next(pcpu)
        if self.observer is not None:
            self.observer.switch(self, pcpu, vcpu, cause, picked)
        if picked is None:
            return
        vcpu, slice_ns = picked
        if vcpu.state is not RUNNABLE:
            raise RuntimeError(f"picked {vcpu.name} in state {vcpu.state.name}")
        vm = vcpu.vm
        # Non-intrusive monitoring signal: how long the VCPU sat runnable.
        wait_ns = now - vcpu.wake_ns
        vm.total_queue_wait_ns += wait_ns
        vm.total_queue_waits += 1
        if sim.record is not None:
            sim.record(
                "sched.dispatch",
                now,
                node=self.node.index,
                pcpu=pcpu.index,
                vcpu=vcpu.name,
                vm=vm.name,
                slice_ns=slice_ns,
                wait_ns=wait_ns,
            )
        vcpu.state = RUNNING
        vcpu.pcpu = pcpu
        vcpu.rq = index = pcpu.index
        vcpu.run_start_ns = now
        pcpu.current = vcpu
        pcpu.run_start_ns = now

        runner = vcpu.runner
        cache = pcpu.cache
        overhead = 0
        if cache.last_key is not vcpu:
            pcpu.context_switches += 1
            overhead = self._ctx_switch_ns + cache.on_dispatch(now, vcpu, runner.cache_sensitivity)

        pcpu.slice_end_ns = deadline = now + slice_ns
        pcpu.slice_end_ev = sim.rearm(self._slice_timers[index], deadline)
        runner.on_dispatch(now, overhead)

    def vcpu_block(self, vcpu: VCPU) -> None:
        """Voluntary block of the currently running VCPU (from its runner)."""
        pcpu = vcpu.pcpu
        if pcpu is None or pcpu.current is not vcpu:
            raise RuntimeError(f"block of non-running {vcpu.name}")
        self.dispatch(pcpu, BLOCK)

    def preempt(self, pcpu: "PCPU") -> None:
        """Involuntarily deschedule whatever runs on ``pcpu`` and re-pick.

        Used for wake-time boost preemption (Credit) and co-scheduling
        (CS).  The descheduled VCPU is returned to the run queues.
        """
        self.dispatch(pcpu, PREEMPT)

    def on_vcpu_wake(self, vcpu: VCPU) -> None:
        """A blocked VCPU became runnable; let the scheduler place it."""
        if self.observer is not None:
            self.observer.wake(self, vcpu)
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
            if vcpu.state is RUNNING:
                pcpu = vcpu.pcpu
                self.dispatch(pcpu, PAUSE)
                vcpu.wake_pending = True
                freed.append(pcpu)
            elif vcpu.state is RUNNABLE:
                self.scheduler.remove_queued(vcpu)
                vcpu.state = BLOCKED
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
