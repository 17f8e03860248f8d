"""Xen's Credit scheduler (CR) — the paper's baseline.

Behavioural model of the classic credit scheduler:

* per-PCPU run queues; a VCPU has a home queue (where it last ran);
* three priorities: BOOST (just woken, still in credit), UNDER (credit
  left), OVER (credit exhausted); lower runs first, FIFO within a class;
* wake placement prefers an idle PCPU, then the least-loaded queue, and a
  BOOST wake preempts a lower-priority running VCPU — this is what gives
  I/O-blocked domains (dom0, ping, web servers) low latency under CR;
* work stealing: a PCPU whose queue is empty pulls the best runnable VCPU
  from its busiest sibling queue;
* per-period proportional-share credit accounting by VM weight.

The default time slice is 30 ms, the value the paper identifies as the
root cause of parallel-application slowdown in over-committed clouds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.hypervisor.vm import VCPUState
from repro.obs import trace as obstrace
from repro.sim.units import MSEC

from repro.schedulers.base import (
    PRIO_BOOST,
    PRIO_OVER,
    PRIO_UNDER,
    Scheduler,
    SchedulerParams,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import PCPU
    from repro.hypervisor.vm import VCPU
    from repro.hypervisor.vmm import VMM

__all__ = ["CreditParams", "CreditScheduler"]

_BLOCKED = VCPUState.BLOCKED


@dataclass(frozen=True)
class CreditParams(SchedulerParams):
    """Credit-scheduler tunables."""

    #: Credit clamp, as a multiple of (period * n_pcpus).
    credit_cap_periods: float = 1.0
    #: Xen's ``sched_ratelimit_us`` (default 1000 us): a running VCPU may
    #: not be preempted by a wake until it has run at least this long.
    #: This is what makes wake latency depend on slice length for short
    #: slices (slice end arrives before the ratelimit allows preemption).
    ratelimit_ns: int = 1 * MSEC
    #: Xen's accounting tick (10 ms): BOOST priority only protects a
    #: running VCPU until the next tick; after that it is treated at its
    #: credit priority, so later boosted wakes can preempt it.
    tick_ns: int = 10 * MSEC
    #: Xen-faithful tick-*sampled* debiting: a dispatch is charged one
    #: full tick per accounting tick it spans instead of its exact run
    #: time (real Xen debits whoever is running when the tick fires).
    #: Off by default — the model's exact accounting is immune to the
    #: classic yield-before-tick theft, so the adversarial-tenancy
    #: experiments (repro.workloads.attacks) switch this on to expose the
    #: window the attack games.  Disabled, charged == ran exactly and
    #: every run is bit-identical to the pre-attack-layer model.
    tick_accounting: bool = False
    #: Hardening knob: charge a *voluntary* yield (block) its exact run
    #: time even under tick accounting, so a VCPU cannot burn CPU and
    #: dodge the debit by sleeping across each tick.  This is the
    #: "deboost on yield" mitigation of the Xen scheduler-attack
    #: literature: the yielder's effective credit drops as if it had been
    #: sampled, and its next wake is no longer BOOST-eligible for free.
    deboost_on_yield: bool = False
    #: Hardening knob: at most this many BOOST-priority wakes per VM per
    #: accounting tick (0 = unlimited).  Caps tickle-abuse wake storms:
    #: excess wakes in the same tick window enter at their credit
    #: priority instead of preempting the running victim.
    boost_rate_limit: int = 0
    #: Hardening knob: phase offset of the accounting-tick grid (ns,
    #: normally drawn uniformly from [0, tick_ns) off a dedicated RNG
    #: substream — see scenarios.run_attack).  An attacker that aligns
    #: its burn/yield cycle to the nominal grid no longer knows where the
    #: sampling instants fall.  0 keeps the historical grid.
    tick_phase_ns: int = 0


class CreditScheduler(Scheduler):
    """Xen Credit scheduler model."""

    name = "CR"

    def __init__(self, vmm: "VMM", params: CreditParams | None = None) -> None:
        super().__init__(vmm, params or CreditParams())
        self.runqs: list[deque] = [deque() for _ in vmm.node.pcpus]
        #: Pending deferred tickle per PCPU index:
        #: ``(running_vcpu, run_start_ns, fire_ns, event)``.  Lets repeated
        #: wakes against the same dispatch coalesce into one queued
        #: ``_ratelimit_fire`` instead of piling a dead tickle per wake.
        self._pending_tickles: dict[int, tuple] = {}
        #: Last (vcpu, run_start_ns) dispatch whose deferral was *counted*
        #: per PCPU index.  ``stat_deferred_tickles`` must count once per
        #: (PCPU, dispatch) even when the pending tickle fires as a no-op
        #: (waiter stolen to a sibling or withdrawn by a VM pause) and a
        #: later wake re-defers against the same dispatch — the pending
        #: entry is gone by then, so presence in ``_pending_tickles`` alone
        #: would double-count.
        self._tickle_counted: dict[int, tuple] = {}
        #: VCPUs of capped VMs parked for the rest of the period: their
        #: VM's cap budget is exhausted, so ``pick_next`` sidelines them
        #: here (Xen's CSCHED_PRI_IDLE parking) instead of running them
        #: work-conservingly.  Unparked — re-queued on their home queues —
        #: at the next accounting boundary, when budgets refresh.  Stays
        #: empty (and costs one falsy check per pick) while no VM is
        #: capped, keeping cap-free runs bit-identical.
        self._parked: list["VCPU"] = []
        # Introspection counters (analysis/debugging; no behavioural role).
        self.stat_wake_preemptions = 0
        self.stat_deferred_tickles = 0
        self.stat_steals = 0
        self.stat_boost_wakes = 0
        self.stat_cap_parks = 0

    # ------------------------------------------------------------------
    # Accounting-tick arithmetic (single source of truth)
    # ------------------------------------------------------------------
    def _tick_index(self, t: int) -> int:
        """Index of the accounting-tick window containing instant ``t``.
        Every tick-boundary decision — deboost, tickle re-arm, tick-
        sampled debiting, BOOST rate-limit windows — goes through this
        one helper so the phase offset and the boundary convention
        (a dispatch at exactly ``k * tick`` belongs to window ``k`` and
        deboosts at ``(k+1) * tick``, not ``(k+2) * tick``) cannot drift
        apart between call sites."""
        p = self.params
        return (t - p.tick_phase_ns) // p.tick_ns

    def _next_tick_after(self, t: int) -> int:
        """First tick boundary strictly after ``t`` (the deboost instant
        of a dispatch started at ``t``)."""
        p = self.params
        return (self._tick_index(t) + 1) * p.tick_ns + p.tick_phase_ns

    def charge_ns(self, vcpu: "VCPU", start: int, end: int, voluntary: bool = False) -> int:
        """Debit for a dispatch ``[start, end)``: exact by default;
        tick-sampled under ``tick_accounting`` (one full tick per
        boundary crossed — whoever runs when the tick fires pays it,
        as in real Xen).  ``deboost_on_yield`` closes the voluntary-
        yield escape by charging blocks exactly."""
        p = self.params
        if not p.tick_accounting or (voluntary and p.deboost_on_yield):
            return end - start
        return (self._tick_index(end) - self._tick_index(start)) * p.tick_ns

    # ------------------------------------------------------------------
    # Placement / wake
    # ------------------------------------------------------------------
    def _effective_credit(self, vcpu: "VCPU") -> float:
        """Credit net of what the VCPU was already *charged* this period
        (Xen debits at every 10 ms tick; CPU-hungry VCPUs go OVER
        mid-period and lose BOOST eligibility — this is why spinning
        parallel VMs wait full run-queue rotations while idle-ish
        latency-sensitive VMs keep preempting promptly).  Charged equals
        consumed under exact accounting; under ``tick_accounting`` the
        gap between them is exactly what a yield-theft attacker steals."""
        return vcpu.credit - vcpu.period_charged_ns

    def _boost_within_rate(self, vcpu: "VCPU") -> bool:
        """BOOST rate-limit hardening: allow at most ``boost_rate_limit``
        BOOST wakes per VM per accounting tick.  With the knob off (0)
        this touches no state, keeping default runs bit-identical."""
        limit = self.params.boost_rate_limit
        if limit <= 0:
            return True
        vm = vcpu.vm
        idx = self._tick_index(self.vmm.sim.now)
        if vm.boost_window_idx != idx:
            vm.boost_window_idx = idx
            vm.boost_window_wakes = 0
        if vm.boost_window_wakes >= limit:
            return False
        vm.boost_window_wakes += 1
        return True

    def _wake_prio(self, vcpu: "VCPU") -> int:
        if self._effective_credit(vcpu) > 0:
            if self.params.boost and self._boost_within_rate(vcpu):
                return PRIO_BOOST
            return PRIO_UNDER
        return PRIO_OVER

    def choose_wake_queue(self, vcpu: "VCPU") -> int:
        """Queue index for a waking VCPU (overridden by Balance Scheduling)."""
        pcpus = self.vmm.node.pcpus
        for p in pcpus:
            if p.current is None:
                return p.index
        # least loaded; prefer the home queue on ties (cache affinity)
        home = vcpu.rq
        best = home
        best_load = len(self.runqs[home])
        for i, q in enumerate(self.runqs):
            if len(q) < best_load:
                best = i
                best_load = len(q)
        return best

    def on_wake(self, vcpu: "VCPU") -> None:
        vcpu.prio = self._wake_prio(vcpu)
        if vcpu.prio == PRIO_BOOST:
            self.stat_boost_wakes += 1
        qi = self.choose_wake_queue(vcpu)
        if obstrace.enabled:
            obstrace.emit(
                "sched.wake",
                self.vmm.sim.now,
                node=self.vmm.node.index,
                vcpu=vcpu.name,
                vm=vcpu.vm.name,
                rq=qi,
                prio=vcpu.prio,
            )
        vcpu.rq = qi
        self.runqs[qi].append(vcpu)
        vcpu.queued = True
        pcpu = self.vmm.node.pcpus[qi]
        if pcpu.current is None:
            self.vmm.kick(pcpu)
            return
        now = self.vmm.sim.now
        cur = pcpu.current
        start = pcpu.run_start_ns
        running_prio = self._running_prio(pcpu)
        if vcpu.prio < running_prio and self._may_preempt(vcpu, pcpu):
            if now - start >= self.params.ratelimit_ns:
                self.stat_wake_preemptions += 1
                if vcpu.prio == PRIO_BOOST:
                    self._count_boost_preempt(vcpu, cur)
                self.vmm.preempt(pcpu)
            else:
                # Xen sched_ratelimit: defer the tickle until the current
                # VCPU has had its minimum run.
                self._defer_tickle(pcpu, cur, start, start + self.params.ratelimit_ns)
        elif (
            running_prio == PRIO_BOOST
            and vcpu.prio < self._credit_prio(cur)
            and self._may_preempt(vcpu, pcpu)
        ):
            # The current VCPU is protected (BOOST, or a co-scheduled gang
            # member) — but only until the next global tick: re-evaluate
            # the tickle then.  This is the second deferral path, counted
            # like the ratelimit one.
            self._defer_tickle(
                pcpu, cur, start,
                max(self._next_tick_after(now), start + self.params.ratelimit_ns),
            )

    def _defer_tickle(
        self, pcpu: "PCPU", cur: "VCPU", start: int, fire_at: int
    ) -> None:
        """Schedule (or coalesce into) the pending deferred tickle for this
        dispatch.

        Only one ``_ratelimit_fire`` is kept queued per (PCPU, dispatch):
        a second deferred wake against the same running VCPU rides the
        already-scheduled tickle instead of adding a dead heap entry, and
        ``stat_deferred_tickles`` counts the deferral once.  If the new
        wake needs an *earlier* re-check (ratelimit expiry before a
        previously scheduled tick re-check), the pending tickle is
        cancelled and replaced — never delayed.
        """
        pend = self._pending_tickles.get(pcpu.index)
        if pend is not None and pend[0] is cur and pend[1] == start:
            if pend[2] <= fire_at:
                return  # already covered by an earlier (or equal) re-check
            pend[3].cancel()  # replace with the earlier fire time
            self._schedule_tickle(pcpu, cur, start, fire_at)
            return
        # Count once per (PCPU, dispatch), not once per pending entry: a
        # tickle that fired as a no-op (its waiter was stolen or withdrawn
        # by a VM pause) clears the pending slot, and without this check a
        # later wake against the same dispatch would be counted again.
        counted = self._tickle_counted.get(pcpu.index)
        if counted is None or counted[0] is not cur or counted[1] != start:
            self.stat_deferred_tickles += 1
            self._tickle_counted[pcpu.index] = (cur, start)
        self._schedule_tickle(pcpu, cur, start, fire_at)

    def _schedule_tickle(
        self, pcpu: "PCPU", cur: "VCPU", start: int, fire_at: int
    ) -> None:
        ev = self.vmm.sim.at(
            fire_at,
            lambda p=pcpu, c=cur, s=start: self._ratelimit_fire(p, c, s),
            cat="sched.tickle",
        )
        self._pending_tickles[pcpu.index] = (cur, start, fire_at, ev)

    def _may_preempt(self, vcpu: "VCPU", pcpu: "PCPU") -> bool:
        """Policy hook: may a waking ``vcpu`` preempt ``pcpu``'s current?
        (Co-scheduling denies this for ganged VCPUs.)"""
        return True

    def _running_prio(self, pcpu: "PCPU") -> int:
        """Effective priority of the running VCPU for preemption checks:
        BOOST protection lapses after one accounting tick (Xen deboosts
        at the next tick), so a long-running boosted VCPU is judged at
        its credit priority."""
        cur = pcpu.current
        prio = cur.prio
        if prio == PRIO_BOOST:
            # Deboost at the next *global* tick after dispatch (Xen's
            # periodic timer, not a per-dispatch countdown): a dispatch
            # at exactly ``k * tick`` is deboosted at ``(k+1) * tick``.
            if self._tick_index(self.vmm.sim.now) > self._tick_index(pcpu.run_start_ns):
                prio = self._credit_prio(cur)
        return prio

    def _ratelimit_fire(self, pcpu: "PCPU", expected: "VCPU", run_start: int) -> None:
        """Deferred wake preemption: still valid only if the same dispatch
        is in place and a higher-priority VCPU is actually waiting."""
        pend = self._pending_tickles.get(pcpu.index)
        if pend is not None and pend[0] is expected and pend[1] == run_start:
            del self._pending_tickles[pcpu.index]
        cur = pcpu.current
        if cur is not expected or pcpu.run_start_ns != run_start:
            return
        best = min((v.prio for v in self.runqs[pcpu.index]), default=None)
        if best is None or not self._may_preempt_queued(pcpu):
            return
        running = self._running_prio(pcpu)
        if best < running:
            if best == PRIO_BOOST:
                by = next(v for v in self.runqs[pcpu.index] if v.prio == PRIO_BOOST)
                self._count_boost_preempt(by, cur)
            self.vmm.preempt(pcpu)
        elif running == PRIO_BOOST and best < self._credit_prio(cur):
            # Still inside the runner's transient BOOST protection: re-arm
            # at the deboost instant *of this dispatch* rather than drop
            # the wake on the floor.  Running == BOOST means the fire is
            # still in the dispatch's tick window, so this equals the
            # next boundary after now; computing it from ``run_start``
            # pins the per-dispatch semantics.  The re-armed fire sees
            # the deboosted priority (the boundary is strictly past the
            # dispatch tick), so this re-arms at most once per dispatch.
            self._schedule_tickle(
                pcpu, expected, run_start, self._next_tick_after(run_start)
            )

    def _count_boost_preempt(self, by: "VCPU", victim: "VCPU") -> None:
        """Theft accounting: a BOOST-priority wake evicted a running VCPU."""
        by.vm.boost_preempts_inflicted += 1
        victim.vm.boost_preempts_suffered += 1
        if obstrace.enabled:
            obstrace.emit(
                "sched.boost_preempt",
                self.vmm.sim.now,
                node=self.vmm.node.index,
                by_vm=by.vm.name,
                by_vcpu=by.name,
                victim_vm=victim.vm.name,
                victim_vcpu=victim.name,
            )

    def _may_preempt_queued(self, pcpu: "PCPU") -> bool:
        return self._may_preempt(None, pcpu)

    # ------------------------------------------------------------------
    # Picking
    # ------------------------------------------------------------------
    def _pop_best(self, q: deque) -> Optional["VCPU"]:
        if not q:
            return None
        best_i = 0
        best_prio = q[0].prio
        if best_prio != PRIO_BOOST:
            for i in range(1, len(q)):
                p = q[i].prio
                if p < best_prio:
                    best_i, best_prio = i, p
                    if p == PRIO_BOOST:
                        break
        vcpu = q[best_i]
        del q[best_i]
        vcpu.queued = False
        return vcpu

    def _steal(self, pcpu: "PCPU") -> Optional["VCPU"]:
        """Pull the best candidate from the busiest sibling queue."""
        best_q = None
        best_len = 0
        for i, q in enumerate(self.runqs):
            if i != pcpu.index and len(q) > best_len:
                best_q, best_len = q, len(q)
        if best_q is None:
            return None
        vcpu = self._pop_best(best_q)
        if vcpu is not None:
            self.stat_steals += 1
            if obstrace.enabled:
                obstrace.emit(
                    "sched.steal",
                    self.vmm.sim.now,
                    node=self.vmm.node.index,
                    vcpu=vcpu.name,
                    vm=vcpu.vm.name,
                    from_rq=vcpu.rq,
                    to_rq=pcpu.index,
                )
            vcpu.rq = pcpu.index
        return vcpu

    # ------------------------------------------------------------------
    # Picking under Xen-style per-VM caps (non-work-conserving)
    # ------------------------------------------------------------------
    def pick_next(self, pcpu: "PCPU") -> Optional[tuple["VCPU", int]]:
        vmm = self.vmm
        while True:
            vcpu = self._pop_best(self.runqs[pcpu.index])
            if vcpu is None:
                vcpu = self._steal(pcpu)
            if vcpu is None:
                return None
            vm = vcpu.vm
            cap = vm.cap
            if cap is None:
                return vcpu, self.slice_for(vcpu)
            # Unused budget of the VM's cap this period: ``cap * period *
            # n_pcpus`` against the VM's aggregate ``period_run_ns`` —
            # concurrent VCPUs of one VM draw from the same pool, as with
            # Xen's per-domain cap.  Keep the product's left-to-right
            # association: ``cap * (period * n)`` can round differently
            # and change ``int()``.
            remaining = int(cap * vmm.period_ns * len(vmm.node.pcpus)) - vm.period_run_ns
            if remaining <= 0:
                # Budget exhausted: park until the next accounting
                # boundary even though the PCPU may go idle — the cap is
                # non-work-conserving, which is what makes a fractional
                # allocation binding.
                self._parked.append(vcpu)
                self.stat_cap_parks += 1
                continue
            # Truncate the slice so the dispatch cannot overrun the
            # budget (floor 1 ns: a dispatched slice must be positive).
            return vcpu, max(1, min(self.slice_for(vcpu), remaining))

    def remove_queued(self, vcpu: "VCPU") -> None:
        """Remove a queued RUNNABLE VCPU from the run queues without
        dispatching it (fault-injection VM pause path)."""
        if not vcpu.queued:
            # A parked VCPU is RUNNABLE but not queued; a pause/teardown/
            # stop-and-copy freeze must still withdraw it, or the next
            # period would re-queue a frozen VCPU.
            if vcpu in self._parked:
                self._parked.remove(vcpu)
            return
        try:
            self.runqs[vcpu.rq].remove(vcpu)
        except ValueError:
            # Defensive: home-queue bookkeeping went stale (steal race);
            # fall back to a scan so the VCPU cannot be picked while paused.
            for q in self.runqs:
                if vcpu in q:
                    q.remove(vcpu)
                    break
        vcpu.queued = False

    # ------------------------------------------------------------------
    # Requeue paths
    # ------------------------------------------------------------------
    def _credit_prio(self, vcpu: "VCPU") -> int:
        return PRIO_UNDER if self._effective_credit(vcpu) > 0 else PRIO_OVER

    def on_slice_expired(self, vcpu: "VCPU") -> None:
        # Full slice used: boost expires (``_credit_prio``, inlined).
        vcpu.prio = PRIO_UNDER if vcpu.credit - vcpu.period_charged_ns > 0 else PRIO_OVER
        self.runqs[vcpu.rq].append(vcpu)
        vcpu.queued = True

    def on_preempted(self, vcpu: "VCPU") -> None:
        # Preempted mid-slice: keep priority, go back near the front so the
        # remaining entitlement is honoured soon.
        self.runqs[vcpu.rq].appendleft(vcpu)
        vcpu.queued = True

    # ------------------------------------------------------------------
    # Periodic credit accounting
    # ------------------------------------------------------------------
    def on_period(self, now: int) -> None:
        # Cluster-scope updates (repro.dfrs) land exactly here — before
        # shares are computed — so the weights that govern a period are
        # the ones every observer (SAN003 included) reads after it.
        self.apply_pending_allocations()
        vmm = self.vmm
        period = vmm.period_ns
        capacity = period * len(vmm.node.pcpus)
        vcpus = [v for vm in vmm.vms for v in vm.vcpus]
        active = [v.state is not _BLOCKED or v.period_run_ns > 0 for v in vcpus]
        total_w = sum(v.vm.weight for v, act in zip(vcpus, active) if act) or 1.0
        cap = self.params.credit_cap_periods * capacity
        for v, act in zip(vcpus, active):
            share = capacity * (v.vm.weight / total_w) if act else 0.0
            # Debit what was *charged* (== consumed under exact
            # accounting; tick-sampled under ``tick_accounting``).
            v.credit = min(cap, max(-cap, v.credit + share - v.period_charged_ns))
            v.period_run_ns = 0
            v.period_charged_ns = 0
            if v.queued and v.prio != PRIO_BOOST:
                v.prio = self._credit_prio(v)
        for vm in vmm.vms:
            vm.period_run_ns = 0
        # Cap budgets refreshed (period_run_ns reset above): re-queue the
        # VCPUs parked by cap exhaustion and restart any idled PCPUs.
        if self._parked:
            parked, self._parked = self._parked, []
            for v in parked:
                v.prio = self._credit_prio(v)
                self.runqs[v.rq].append(v)
                v.queued = True
            for pcpu in vmm.node.pcpus:
                if pcpu.current is None:
                    vmm.kick(pcpu)
