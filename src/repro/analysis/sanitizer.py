"""Runtime simulation sanitizer: opt-in invariant checks for the DES core.

The sanitizer subscribes, read-only, to a wired world's observation
points — each event of the simulator
(:meth:`~repro.sim.engine.Simulator.observe`) and each VMM's switch, wake
and period decision points (the VMM's ``observer``; see
:mod:`repro.hypervisor.vmm`) — and asserts the invariants that
bit-reproducible scheduling simulations depend on:

* **SAN001 — event-time monotonicity**: the event loop never executes a
  callback at a time earlier than the previous one.
* **SAN002 — VCPU state machine**: every scheduler decision point sees a
  VCPU in the legal state (``on_wake``/``on_slice_expired``/
  ``on_preempted`` and picked VCPUs must be RUNNABLE; ``on_block`` must
  see BLOCKED).
* **SAN003 — credit conservation**: after each accounting period of a
  Credit-family scheduler, every VCPU's credit equals the clamped
  ``old + weight-share - consumed`` recomputed independently from the
  pre-period snapshot, and active shares sum to the period capacity.
  Before the reset, each VM's cached ``period_run_ns`` (the total a
  capped pick reads) must equal the sum over its VCPUs.
* **SAN004 — slice sanity**: every dispatched slice is positive, and the
  ATC controller keeps parallel-VM slices within
  ``[min_threshold, default]``.
* **SAN005 — latency sanity**: spin/queue-wait latencies fed to
  Algorithm 1 are never negative.
* **SAN006 — crashed-node quiescence**: no scheduler decision runs on a
  node that :mod:`repro.faults` crashed — a crashed node must be fully
  quiet until its restart (any activity means a fault hook leaked an
  event onto a dead node).
* **SAN007 — single residency**: after a live-migration handoff
  (:mod:`repro.migration`), no scheduler decision touches a VCPU whose
  VM now lives on another node (the source must forget the VM
  atomically), and the migrating VM must stay fully frozen — paused,
  every VCPU BLOCKED — for the whole stop-and-copy window (the engine
  reports window breaks through :meth:`SimSanitizer.record`).
* **SAN008 — tie-group commutativity** (opt-in, emitted by
  :class:`repro.analysis.races.TieRaceTracker` rather than the hooks
  here): two causally unrelated events at the same timestamp and engine
  phase whose attribute read/write sets do not commute (W–W or R–W
  overlap) — the outcome depends on insertion order, which the model
  never specifies.  Suspects are confirmed (or cleared) by the
  tie-permutation differential in :mod:`repro.analysis.races`.
* **SAN009 — DFRS allocation integrity** (emitted by
  :class:`repro.dfrs.controller.DFRSController` through
  :meth:`SimSanitizer.record`): the per-VM caps/weights a host scheduler
  actually applied must match the controller's last published solve, and
  no host's published caps may sum above its capacity.

Because the hooks only read state, a sanitized run is bit-identical to
an unsanitized one.  Violations are collected as structured
:class:`Violation` records; :meth:`SimSanitizer.check` raises
:class:`SanitizerViolationError`, which the sweep runner converts into a
structured failure record (``error["violations"]``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.hypervisor.vm import BLOCKED, RUNNABLE, VCPUState
from repro.hypervisor.vmm import BLOCK, EXPIRE, PREEMPT
from repro.schedulers.credit import CreditScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.vm import VCPU
    from repro.hypervisor.vmm import VMM
    from repro.schedulers.atc_sched import ATCScheduler
    from repro.sim.engine import Simulator

__all__ = ["Violation", "SanitizerViolationError", "SimSanitizer"]

#: Relative tolerance for float credit comparisons.
_CREDIT_EPS = 1e-6


@dataclass(frozen=True)
class Violation:
    """One invariant violation, with enough context to locate the bug."""

    code: str
    time_ns: int
    message: str
    context: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "time_ns": self.time_ns,
            "message": self.message,
            "context": dict(self.context),
        }

    def format(self) -> str:
        return f"{self.code} @t={self.time_ns}: {self.message}"


class SanitizerViolationError(RuntimeError):
    """Raised at the end of a sanitized run that recorded violations."""

    def __init__(self, violations: Sequence[Violation]) -> None:
        self.violations = list(violations)
        first = self.violations[0].format() if self.violations else "?"
        super().__init__(
            f"{len(self.violations)} simulation invariant violation(s); first: {first}"
        )


class SimSanitizer:
    """Subscribe invariant checks to a simulator + its VMMs.

    Every check only reads: the sanitized run processes the same events
    in the same order with the same results as an unsanitized one.
    ``max_violations`` bounds memory on a badly broken run; further
    violations are counted but not stored.
    """

    MONOTONIC = "SAN001"
    STATE = "SAN002"
    CREDIT = "SAN003"
    SLICE = "SAN004"
    LATENCY = "SAN005"
    CRASHED = "SAN006"
    MIGRATION = "SAN007"
    #: Emitted by :class:`repro.analysis.races.TieRaceTracker`, not by the
    #: checks below: a non-commuting pair of same-timestamp events.
    RACE = "SAN008"
    #: Emitted by :class:`repro.dfrs.controller.DFRSController`: the
    #: caps/weights a host applied do not match the last published solve,
    #: or a host's published caps sum above its capacity.
    DFRS = "SAN009"

    #: The scheduler hook a switch's cause hands the outgoing VCPU to,
    #: and the state that VCPU must be in.
    _REQUEUE = {EXPIRE: ("on_slice_expired", RUNNABLE), PREEMPT: ("on_preempted", RUNNABLE),
                BLOCK: ("on_block", BLOCKED)}

    def __init__(
        self,
        sim: "Simulator",
        vmms: Sequence["VMM"],
        max_violations: int = 1000,
    ) -> None:
        self.sim = sim
        self.violations: list[Violation] = []
        self.total_violations = 0
        self.max_violations = max_violations
        self._last_event_ns = -1
        #: The pre-accounting credit snapshot of the period being checked.
        self._snapshot: list = []
        sim.observe(self.event)
        for vmm in vmms:
            vmm.observer = self

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, code: str, message: str, **context) -> None:
        self.total_violations += 1
        if len(self.violations) < self.max_violations:
            self.violations.append(
                Violation(code=code, time_ns=self.sim.now, message=message, context=context)
            )

    def check(self) -> None:
        """Raise :class:`SanitizerViolationError` if anything was recorded."""
        if self.violations:
            raise SanitizerViolationError(self.violations)

    # ------------------------------------------------------------------
    # SAN001: event-time monotonicity (the simulator's event point)
    # ------------------------------------------------------------------
    def event(self, time_ns: int, fn, cat, depth) -> None:
        if time_ns < self._last_event_ns:
            self.record(
                self.MONOTONIC,
                f"event executed at t={time_ns} after t={self._last_event_ns}",
                event_time_ns=time_ns,
                previous_time_ns=self._last_event_ns,
            )
        else:
            self._last_event_ns = time_ns

    # ------------------------------------------------------------------
    # VMM decision points (SAN002 / SAN004 / SAN006 / SAN007)
    # ------------------------------------------------------------------
    def switch(self, vmm: "VMM", pcpu, prev: "VCPU | None", cause, picked) -> None:
        if prev is not None:
            where, expected = self._REQUEUE[cause]
            self._expect_decision(where, prev, expected, vmm)
        self._expect_alive("pick_next", vmm)
        if picked is not None:
            vcpu, slice_ns = picked
            self._expect_resident("pick_next", vcpu, vmm)
            self._expect_state("pick_next", vcpu, RUNNABLE)
            if slice_ns <= 0:
                self.record(
                    self.SLICE,
                    f"pick_next returned non-positive slice {slice_ns} ns "
                    f"for {vcpu.name}",
                    vcpu=vcpu.name,
                    slice_ns=slice_ns,
                )

    def wake(self, vmm: "VMM", vcpu: "VCPU") -> None:
        self._expect_decision("on_wake", vcpu, RUNNABLE, vmm)

    def _expect_decision(self, where: str, vcpu: "VCPU", expected: VCPUState,
                         vmm: "VMM") -> None:
        self._expect_alive(where, vmm)
        self._expect_resident(where, vcpu, vmm)
        self._expect_state(where, vcpu, expected)

    def _expect_state(self, where: str, vcpu: "VCPU", expected: VCPUState) -> None:
        if vcpu.state is not expected:
            self.record(
                self.STATE,
                f"{where}: {vcpu.name} is {vcpu.state.name}, expected {expected.name}",
                vcpu=vcpu.name,
                state=vcpu.state.name,
                expected=expected.name,
                where=where,
            )

    def _expect_alive(self, where: str, vmm: "VMM") -> None:
        if vmm.node.crashed:
            self.record(
                self.CRASHED,
                f"{where}: scheduler decision on crashed node {vmm.node.index}",
                node=vmm.node.index,
                where=where,
            )

    def _expect_resident(self, where: str, vcpu: "VCPU", vmm: "VMM") -> None:
        if vcpu.vm.node is not vmm.node:
            self.record(
                self.MIGRATION,
                f"{where}: {vcpu.name} scheduled on node {vmm.node.index} but its "
                f"VM resides on node {vcpu.vm.node.index} (stale residency after "
                f"migration handoff)",
                vcpu=vcpu.name,
                node=vmm.node.index,
                resident_node=vcpu.vm.node.index,
                where=where,
            )

    # ------------------------------------------------------------------
    # The VMM period point (SAN003 / SAN004 / SAN005)
    # ------------------------------------------------------------------
    def period(self, vmm: "VMM", stage: str) -> None:
        sched = vmm.scheduler
        if stage == "end":
            if getattr(sched, "controller", None) is not None:  # ATC
                self._check_atc(vmm, sched)
        elif isinstance(sched, CreditScheduler):
            if stage == "begin":
                self._check_run_totals(vmm)
                self._snapshot = self._credit_snapshot(vmm)
            else:
                self._check_credit(vmm, sched, self._snapshot)

    # ------------------------------------------------------------------
    # SAN003: per-period credit conservation
    # ------------------------------------------------------------------
    @staticmethod
    def _credit_snapshot(vmm: "VMM"):
        """(vcpu, credit, charged_ns, active) before accounting runs.

        The debit is what the scheduler *charged* (== ran under exact
        accounting; tick-sampled under ``CreditParams.tick_accounting``);
        activity is still judged on actual consumption."""
        return [
            (v, v.credit, v.period_charged_ns, v.state.value != 0 or v.period_run_ns > 0)
            for vm in vmm.vms
            for v in vm.vcpus
        ]

    def _check_run_totals(self, vmm: "VMM") -> None:
        for vm in vmm.vms:
            vcpu_sum = sum(v.period_run_ns for v in vm.vcpus)
            if vm.period_run_ns != vcpu_sum:
                self.record(
                    self.CREDIT,
                    f"cached period run time of {vm.name} drifted: "
                    f"{vm.period_run_ns} ns, its VCPUs ran {vcpu_sum} ns",
                    vm=vm.name,
                    cached_ns=vm.period_run_ns,
                    vcpu_sum_ns=vcpu_sum,
                )

    def _check_credit(self, vmm: "VMM", sched: CreditScheduler, snapshot) -> None:
        capacity = vmm.period_ns * len(vmm.node.pcpus)
        total_w = sum(v.vm.weight for v, _, _, active in snapshot if active) or 1.0
        cap = sched.params.credit_cap_periods * capacity
        distributed = 0.0
        any_active = False
        for v, old_credit, consumed, active in snapshot:
            share = capacity * (v.vm.weight / total_w) if active else 0.0
            distributed += share
            any_active = any_active or active
            expected = min(cap, max(-cap, old_credit + share - consumed))
            if abs(v.credit - expected) > _CREDIT_EPS * max(1.0, abs(expected)):
                self.record(
                    self.CREDIT,
                    f"credit accounting drift on {v.name}: "
                    f"got {v.credit:.3f}, expected {expected:.3f}",
                    vcpu=v.name,
                    credit=v.credit,
                    expected=expected,
                    share=share,
                    consumed_ns=consumed,
                )
        if any_active and abs(distributed - capacity) > _CREDIT_EPS * capacity:
            self.record(
                self.CREDIT,
                f"credit shares not conserved: distributed {distributed:.3f} ns "
                f"of {capacity} ns capacity",
                distributed=distributed,
                capacity=capacity,
            )

    # ------------------------------------------------------------------
    # SAN004 / SAN005: ATC slice and latency bounds
    # ------------------------------------------------------------------
    def _check_atc(self, vmm: "VMM", sched: ATCScheduler) -> None:
        cfg = sched.controller.cfg
        for vm in vmm.guest_vms:
            if vm.is_parallel and vm.slice_ns is not None:
                if not (cfg.min_threshold_ns <= vm.slice_ns <= cfg.default_ns):
                    self.record(
                        self.SLICE,
                        f"ATC applied slice {vm.slice_ns} ns to {vm.name}, outside "
                        f"[{cfg.min_threshold_ns}, {cfg.default_ns}]",
                        vm=vm.name,
                        slice_ns=vm.slice_ns,
                        min_threshold_ns=cfg.min_threshold_ns,
                        default_ns=cfg.default_ns,
                    )
        for vmid, st in sched.controller.monitor.states.items():
            if st.latencies and st.latencies[-1] < 0:
                self.record(
                    self.LATENCY,
                    f"negative spin latency {st.latencies[-1]} ns observed for "
                    f"vmid {vmid}",
                    vmid=vmid,
                    latency_ns=st.latencies[-1],
                )
