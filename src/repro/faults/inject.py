"""Apply a :class:`~repro.faults.plan.FaultPlan` to a wired world.

The injector schedules every plan event on the world's simulator at
construction time (category ``"fault"``), arms the fabric's optional
fault hooks only when the plan actually needs them, and heals each
transient fault when its duration elapses.  All state transitions run off
the simulation clock, so a faulted run is exactly reproducible from
``(seed, plan)``.

Overlap semantics: crash windows are depth-counted per node (two
overlapping crash windows keep the node down until *both* heal); VM
pauses nest natively in the VMM (``VM.pause_depth``), so overlapping
``vm_pause`` faults — or a fault pause overlapping a migration
stop-and-copy — keep the VM frozen until every window releases.  NIC
degradations stack, with heal restoring the previous degradation (or
the clean link).  A node ``restart`` resumes every VM on the node and
force-clears the pause depth — a reboot forgets pre-crash
administrative pauses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.plan import RNG_KEY, FaultEvent, FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.harness import CloudWorld
    from repro.hypervisor.vm import VM

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules, applies, and heals the faults of one plan."""

    def __init__(self, world: "CloudWorld", plan: FaultPlan) -> None:
        self.world = world
        self.sim = world.sim
        self.plan = plan
        n_nodes = len(world.cluster.nodes)
        n_pcpus = len(world.cluster.nodes[0].pcpus) if n_nodes else 0
        plan.validate(n_nodes, n_pcpus)
        self.injected: dict[str, int] = {}
        self.healed: dict[str, int] = {}
        self.skipped: dict[str, int] = {}
        kinds = plan.kinds()
        fabric = world.cluster.fabric
        if "nic_degrade" in kinds:
            # Dedicated sub-stream: drop draws never perturb workload RNG.
            fabric.drop_rng = world.rng.substream(RNG_KEY, 0)
        if "node_crash" in kinds:
            nodes = world.cluster.nodes
            fabric.crashed_of = lambda i: nodes[i].crashed
        self._crash_depth = [0] * n_nodes
        #: Per-node stack of (bw_factor, drop_prob) degradations.
        self._deg_stack: dict[int, list[tuple[float, float]]] = {}
        #: Plan-index → VM actually paused at inject time.  The heal must
        #: release exactly that pause: re-resolving the target at heal time
        #: can land on a *different* VM (service tenants arrive and depart
        #: between inject and heal) and decrement a pause depth it never
        #: incremented.
        self._paused: dict[int, "VM"] = {}
        for idx, ev in enumerate(plan.events):
            self.sim.at(ev.at_ns, lambda e=ev, i=idx: self._apply(e, i), cat="fault")

    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        """Deterministic injection rollup for scenario results."""
        fabric = self.world.cluster.fabric
        return {
            "events": len(self.plan.events),
            "injected": {k: self.injected[k] for k in sorted(self.injected)},
            "healed": {k: self.healed[k] for k in sorted(self.healed)},
            "skipped": {k: self.skipped[k] for k in sorted(self.skipped)},
            "messages_dropped": fabric.messages_dropped,
            "retransmits": fabric.retransmits,
            "messages_lost": fabric.messages_lost,
        }

    # ------------------------------------------------------------------
    def _emit(self, phase: str, ev: FaultEvent) -> None:
        sim = self.sim
        if sim.record is not None:
            sim.record(
                f"fault.{phase}",
                sim.now,
                fault=ev.kind,
                node=ev.node,
                vm=ev.vm or None,
                pcpu=ev.pcpu if ev.kind == "pcpu_straggler" else None,
                duration_ns=ev.duration_ns,
            )

    def _apply(self, ev: FaultEvent, idx: int) -> None:
        self.injected[ev.kind] = self.injected.get(ev.kind, 0) + 1
        self._emit("inject", ev)
        getattr(self, f"_apply_{ev.kind}")(ev, idx)
        if ev.duration_ns > 0:
            self.sim.after(
                ev.duration_ns, lambda e=ev, i=idx: self._heal(e, i), cat="fault"
            )

    def _heal(self, ev: FaultEvent, idx: int) -> None:
        if ev.kind in ("vm_pause", "dom0_stall") and idx not in self._paused:
            # The inject was skipped (no target VM existed), so there is
            # no pause to release — and no heal to record: transient
            # pauses keep ``injected == healed + skipped``.
            return
        self.healed[ev.kind] = self.healed.get(ev.kind, 0) + 1
        self._emit("heal", ev)
        getattr(self, f"_heal_{ev.kind}")(ev, idx)

    # -- node crash ------------------------------------------------------
    def _apply_node_crash(self, ev: FaultEvent, idx: int) -> None:
        self._crash_depth[ev.node] += 1
        self.world.vmms[ev.node].crash()

    def _heal_node_crash(self, ev: FaultEvent, idx: int) -> None:
        self._crash_depth[ev.node] -= 1
        if self._crash_depth[ev.node] <= 0:
            self.world.vmms[ev.node].restart()

    # -- dom0 stall / VM pause -------------------------------------------
    def _target_vm(self, ev: FaultEvent):
        vmm = self.world.vmms[ev.node]
        if ev.kind == "dom0_stall":
            return vmm.dom0.vm
        if ev.vm:
            # Named VMs may have been live-migrated off ev.node since the
            # plan was written: search the whole cluster.  Under the
            # service layer a named tenant VM may also have departed (torn
            # down) or not arrived yet — that's a skip, not an error.
            for other in self.world.vmms:
                for vm in other.vms:
                    if vm.name == ev.vm:
                        return vm
            return None
        guests = vmm.guest_vms
        if not guests:
            # A node whose tenants all departed has no guest to pause.
            return None
        return guests[0]

    def _skip(self, ev: FaultEvent) -> None:
        self.skipped[ev.kind] = self.skipped.get(ev.kind, 0) + 1
        sim = self.sim
        if sim.record is not None:
            sim.record(
                "fault.skip", sim.now,
                fault=ev.kind, node=ev.node, vm=ev.vm or None,
            )

    def _pause(self, ev: FaultEvent, idx: int) -> None:
        vm = self._target_vm(ev)
        if vm is None:
            self._skip(ev)
            return
        self._paused[idx] = vm
        vm.node.vmm.pause_vm(vm)

    def _unpause(self, ev: FaultEvent, idx: int) -> None:
        # Release exactly the VM paused at inject time.  Re-resolving the
        # target here could pick up a VM admitted *after* the skip/pause
        # (service-layer arrivals) and decrement a pause depth this window
        # never incremented — unfreezing someone else's stop-and-copy.
        vm = self._paused.pop(idx)
        # The VMM's pause depth keeps the VM frozen while other windows
        # (overlapping faults, migration stop-and-copy, a teardown of the
        # departed VM) are still open; a node restart force-clears the
        # depth, making this a no-op.
        vm.node.vmm.resume_vm(vm)

    _apply_dom0_stall = _pause
    _heal_dom0_stall = _unpause
    _apply_vm_pause = _pause
    _heal_vm_pause = _unpause

    # -- NIC degradation -------------------------------------------------
    def _apply_nic_degrade(self, ev: FaultEvent, idx: int) -> None:
        stack = self._deg_stack.setdefault(ev.node, [])
        stack.append((ev.bw_factor, ev.drop_prob))
        self.world.cluster.fabric.degrade_link(ev.node, ev.bw_factor, ev.drop_prob)

    def _heal_nic_degrade(self, ev: FaultEvent, idx: int) -> None:
        stack = self._deg_stack.get(ev.node, [])
        if (ev.bw_factor, ev.drop_prob) in stack:
            stack.remove((ev.bw_factor, ev.drop_prob))
        fabric = self.world.cluster.fabric
        if stack:
            fabric.degrade_link(ev.node, *stack[-1])
        else:
            fabric.restore_link(ev.node)

    # -- PCPU straggler --------------------------------------------------
    def _apply_pcpu_straggler(self, ev: FaultEvent, idx: int) -> None:
        end_ns = self.sim.now + ev.duration_ns
        self._straggle_tick(ev, end_ns)

    def _heal_pcpu_straggler(self, ev: FaultEvent, idx: int) -> None:
        """The tick chain self-terminates at its end time."""

    def _straggle_tick(self, ev: FaultEvent, end_ns: int) -> None:
        vmm = self.world.vmms[ev.node]
        if not vmm.node.crashed:
            # Interference steals the core for an instant: whatever runs is
            # forced off and must win the run queue again (context-switch +
            # LLC refill costs land on the victim).
            vmm.preempt(vmm.node.pcpus[ev.pcpu])
        nxt = self.sim.now + ev.steal_period_ns
        if nxt < end_ns:
            self.sim.at(nxt, lambda: self._straggle_tick(ev, end_ns), cat="fault")
