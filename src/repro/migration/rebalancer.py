"""Periodic cluster-level rebalancing controller.

The rebalancer runs on the world's leader-elected control tick
(:meth:`~repro.experiments.harness.CloudWorld.every_period`) instead of
scheduling its own events, so an idle control plane adds **zero**
simulator events and zero RNG draws — a world with a rebalancer that
never migrates is bit-identical (including the event count) to a world
without the subsystem.

Every ``control_every``-th period the leader asks
:func:`~repro.migration.policies.demix` for moves and starts them through
the :class:`~repro.migration.engine.MigrationEngine` under the
concurrency budget and per-VM cooldown.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.migration.policies import demix

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.harness import CloudWorld
    from repro.hypervisor.vm import VM
    from repro.migration.engine import MigrationConfig, MigrationEngine

__all__ = ["Rebalancer"]


class Rebalancer:
    """Drives the demix policy off the world's control tick."""

    def __init__(
        self, world: "CloudWorld", engine: "MigrationEngine", config: "MigrationConfig"
    ) -> None:
        self.world = world
        self.sim = world.sim
        self.engine = engine
        self.cfg = config
        self.control_rounds = 0
        self.migrations_requested = 0
        self.kicks = 0
        world.every_period(self._control, config.control_every)

    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        """Deterministic rollup for scenario results."""
        return {
            "policy": self.cfg.policy,
            "control_rounds": self.control_rounds,
            "migrations_requested": self.migrations_requested,
            "kicks": self.kicks,
        }

    # ------------------------------------------------------------------
    def kick(self, now: int) -> None:
        """Run an off-cycle control round immediately.

        The service layer's migration-aware admission calls this under
        admission pressure (no foreign-cluster-free placement exists for
        a new tenant), so a demix round can make room before the next
        scheduled ``control_every`` tick.  Draws no RNG and schedules no
        events beyond any migrations it starts.
        """
        self.kicks += 1
        self._control(now)

    def _control(self, now: int) -> None:
        self.control_rounds += 1
        budget = self.cfg.max_concurrent - len(self.engine.active)
        if budget <= 0:
            return
        for vm, dst in demix(self.world):
            if budget <= 0:
                break
            if not self._eligible(vm) or vm.node.index == dst:
                continue
            if self.engine.start(vm, dst):
                self.migrations_requested += 1
                budget -= 1

    def _eligible(self, vm: "VM") -> bool:
        if vm.paused or vm.vmid in self.engine.active:
            return False
        last = self.engine.last_migrated_ns.get(vm.name)
        return last is None or self.sim.now - last >= self.cfg.cooldown_ns
    # A policy may propose a move computed from stale loads (another move
    # this round changed them); engine.start re-validates capacity and
    # returns False, and the controller simply tries the next candidate.
