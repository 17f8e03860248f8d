"""Cluster-scope DFRS controller.

Runs on the world's leader-elected control tick
(:meth:`~repro.experiments.harness.CloudWorld.every_period`).  An idle
controller (``solve_every=0``) registers nothing, so it adds **zero**
simulator events and zero RNG draws — a world with a disabled DFRS layer
is bit-identical, event count included, to a world without the
subsystem.

Every ``solve_every``-th period the leader:

1. estimates each guest VM's *need* from the monitor signals already
   collected for ATC — the ``cpu_consumed_ns`` ledger plus the spin /
   run-queue-wait latencies (unmet demand), as interval deltas;
2. runs the deterministic max-min-yield solve (:mod:`repro.dfrs.solver`)
   per host;
3. publishes each VM's (cap, weight) through the scheduler-registry
   cluster hook (``set_vm_cap`` / ``set_vm_weight``; applied by the host
   scheduler at its next accounting boundary);
4. self-checks SAN009: the caps/weights a host actually applied match
   the last published solve, and no host's published caps sum above its
   capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.dfrs.solver import VMNeed, solve_cluster

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.harness import CloudWorld

__all__ = ["DFRSConfig", "DFRSController"]

#: Tolerance for SAN009 float comparisons (caps/weights round-trip
#: through plain float slots; only representation error is expected).
_EPS = 1e-9
#: Floor on the estimated need (fraction of host capacity): a VM that was
#: idle all interval still gets a sliver, so a later burst is not capped
#: to zero.
MIN_NEED = 0.05
#: Weight of the unmet-demand signal (spin + run-queue wait) relative to
#: consumed CPU in the need estimate.
WAIT_FACTOR = 1.0


@dataclass(frozen=True)
class DFRSConfig:
    """Control-plane configuration (``WorldConfig.dfrs``)."""

    #: Re-solve every N VMM periods; ``0`` never solves (the idle layer —
    #: bit-identity control).
    solve_every: int = 4
    #: Cap looseness: published cap = allocation * headroom (clipped to
    #: the VM's ceiling).  1.0 publishes the exact solve; larger values
    #: leave burst room.  Caps are per-VM limits, not a partition, so
    #: with headroom they may sum above 1.0 on a packed host.
    headroom: float = 1.25

    def __post_init__(self) -> None:
        if self.solve_every < 0:
            raise ValueError(f"solve_every must be >= 0, got {self.solve_every}")


class DFRSController:
    """Periodic cluster-level fractional-allocation controller."""

    def __init__(self, world: "CloudWorld", config: DFRSConfig) -> None:
        self.world = world
        self.sim = world.sim
        self.cfg = config
        #: Cumulative-signal snapshots per vmid from the previous solve:
        #: ``(cpu_consumed_ns, spin_total_ns, total_queue_wait_ns)``.  Deltas
        #: against these estimate the need over the last interval.
        self._last_sig: dict[int, tuple[int, int, int]] = {}
        self._last_solve_ns = 0
        #: Last published (cap, weight) per vmid, for the SAN009 check.
        self._published: dict[int, tuple[Optional[float], float]] = {}
        # Introspection counters (deterministic rollup).
        self.solves = 0
        self.caps_applied = 0
        self.weights_applied = 0
        self.last_min_yield = 1.0
        self.last_mean_yield = 1.0
        #: SAN009 violations found when no sanitizer is attached
        #: (strings; any one fails the cell) — the MigrationEngine pattern.
        self.violations: list[str] = []
        if config.solve_every:
            world.every_period(self._control, config.solve_every)

    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        """Deterministic rollup for scenario results."""
        return {
            "solve_every": self.cfg.solve_every,
            "solves": self.solves,
            "caps_applied": self.caps_applied,
            "weights_applied": self.weights_applied,
            "last_min_yield": self.last_min_yield,
            "last_mean_yield": self.last_mean_yield,
            "violations": len(self.violations),
        }

    # ------------------------------------------------------------------
    # Need estimation
    # ------------------------------------------------------------------
    def _estimate_needs(self, now: int) -> list[VMNeed]:
        """Per-VM need as a fraction of host capacity over the interval
        since the previous solve.

        Signals: the ``cpu_consumed_ns`` ledger (satisfied demand) plus
        :data:`WAIT_FACTOR` times spin and run-queue-wait time (unmet
        demand).  All three are cumulative counters, read as deltas.
        """
        interval = max(1, now - self._last_solve_ns)
        needs: list[VMNeed] = []
        for vm in self.world.vms:
            kernel = vm.kernel
            spin = kernel.total_spin_ns if kernel else 0
            sig = (vm.cpu_consumed_ns, spin, vm.total_queue_wait_ns)
            last = self._last_sig.get(vm.vmid, (0, 0, 0))
            d_cpu, d_spin, d_wait = (cur - prev for cur, prev in zip(sig, last))
            self._last_sig[vm.vmid] = sig
            n_pcpus = len(vm.node.pcpus)
            ceil = min(len(vm.vcpus), n_pcpus) / n_pcpus
            demand_ns = d_cpu + WAIT_FACTOR * (d_spin + d_wait)
            need = demand_ns / (interval * n_pcpus)
            need = max(MIN_NEED, min(ceil, need))
            needs.append(
                VMNeed(name=vm.name, vmid=vm.vmid, node=vm.node.index,
                       need=need, ceil=ceil)
            )
        return needs

    # ------------------------------------------------------------------
    # Control round
    # ------------------------------------------------------------------
    def _control(self, now: int) -> None:
        self._check_applied(now)
        needs = self._estimate_needs(now)
        self._last_solve_ns = now
        solves = solve_cluster(needs, self.world.config.n_nodes, self.cfg.headroom)
        self.solves += 1
        occupied = [s for s in solves.values() if s.allocations]
        self.last_min_yield = min((s.min_yield for s in occupied), default=1.0)
        self.last_mean_yield = (
            sum(s.min_yield for s in occupied) / len(occupied) if occupied else 1.0
        )
        record = self.sim.record
        if record is not None:
            record(
                "dfrs.solve",
                now,
                n_vms=len(needs),
                min_yield=self.last_min_yield,
                mean_yield=self.last_mean_yield,
                yields={s.node: s.min_yield for s in occupied},
            )
        self._publish(now, solves)

    def _publish(self, now: int, solves) -> None:
        self._published.clear()
        record = self.sim.record
        vms_by_id = {vm.vmid: vm for vm in self.world.vms}
        for node in sorted(solves):
            host = solves[node]
            # SAN009 host-capacity leg: the solved *allocations* must fit
            # in the host (caps may legally sum above 1.0 — they are
            # per-VM limits with headroom, not a partition).
            total_alloc = sum(a.alloc for a in host.allocations)
            if total_alloc > 1.0 + _EPS:
                self._violate(
                    f"solved allocations on node {node} sum to "
                    f"{total_alloc:.6f} > host capacity at t={now}"
                )
            # Caps enforce the solved shares *under contention*.  When the
            # water-fill is feasible at yield 1.0 the host is
            # under-committed and every VM already fits; a non-work-
            # conserving cap there would only throttle bursts, so the
            # controller publishes "uncapped" (and clears stale caps left
            # from a contended earlier solve).
            contended = host.min_yield < 1.0 - _EPS
            for a in host.allocations:
                vm = vms_by_id.get(a.vmid)
                if vm is None:  # torn down between estimate and publish
                    continue
                sched = vm.node.vmm.scheduler
                cap = a.cap if contended else None
                sched.set_vm_cap(vm, cap)
                if cap is not None:
                    self.caps_applied += 1
                sched.set_vm_weight(vm, a.weight)
                self.weights_applied += 1
                self._published[vm.vmid] = (cap, a.weight)
                if record is not None:
                    record(
                        "dfrs.apply",
                        now,
                        vm=vm.name,
                        node=node,
                        need=a.need,
                        cap=cap,
                        weight=a.weight,
                        vm_yield=a.vm_yield,
                    )

    # ------------------------------------------------------------------
    # SAN009: published allocations are the applied ones
    # ------------------------------------------------------------------
    def _check_applied(self, now: int) -> None:
        """The caps/weights on the VMs must match the previous publish.

        Runs at the top of each control round: period hooks fire *after*
        the scheduler's accounting pass, so by the next round every
        staged update from the previous publish has been applied.  A VM
        that disappeared (teardown) is skipped; one whose cap or weight
        was changed behind the controller's back — or a scheduler that
        dropped the staged update — is a SAN009 violation.
        """
        if not self._published:
            return
        vms_by_id = {vm.vmid: vm for vm in self.world.vms}
        for vmid, (cap, weight) in self._published.items():
            vm = vms_by_id.get(vmid)
            if vm is None:
                continue
            if not _close(vm.cap, cap):
                self._violate(
                    f"{vm.name}: applied cap {vm.cap!r} != published {cap!r} "
                    f"at t={now}"
                )
            if abs(vm.weight - weight) > _EPS:
                self._violate(
                    f"{vm.name}: applied weight {vm.weight!r} != published "
                    f"{weight!r} at t={now}"
                )

    def _violate(self, message: str) -> None:
        sanitizer = getattr(self.world, "sanitizer", None)
        if sanitizer is not None:
            sanitizer.record(sanitizer.DFRS, message)
        else:
            self.violations.append(message)


def _close(a: Optional[float], b: Optional[float]) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= _EPS
