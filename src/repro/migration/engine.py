"""Deterministic pre-copy live migration of guest VMs.

The model follows the classic Xen/KVM pre-copy scheme:

1. *Pre-copy rounds*: the VM keeps running while its memory image is
   streamed to the destination as real :meth:`Fabric.transmit
   <repro.cluster.network.Fabric.transmit>` traffic (chunked, so
   migration competes with — and is slowed by — application packets on
   the same NIC).  While a round is in flight the guest keeps dirtying
   pages at ``dirty_bytes_per_s``; whatever got dirtied must be re-sent
   in the next round.
2. *Stop-and-copy*: once the dirty residue falls below
   ``stop_copy_threshold_bytes`` (or the round budget is exhausted), the
   VM is paused — the PR-4 latch-and-replay freeze, so in-flight wakes
   and packets are latched, not lost — and the residue is copied in one
   final transfer.
3. *Handoff*: the VM is deregistered from the source VMM, re-homed on
   the destination node (VCPU run-queue homes recomputed), registered
   with the destination VMM, and resumed there.  The ATC / vSlicer
   per-host controls are re-triggered on *both* hosts so the Algorithm 2
   minimum adapts to the new census immediately instead of waiting for
   the next period.

Downtime is exactly the stop-and-copy pause window; the engine records
both the per-VM total and every ``(pause_ns, resume_ns)`` interval so
conservation can be asserted (see ``tests/test_migration.py``).

Determinism: the engine draws no RNG anywhere.  All durations derive
from the fabric's bandwidth model and integer arithmetic on the
simulation clock.  An idle engine schedules no events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Optional

from repro.hypervisor.vm import BLOCKED, VM
from repro.sim.units import MSEC, SEC, USEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.harness import CloudWorld

__all__ = [
    "MigrationParams",
    "MigrationConfig",
    "Migration",
    "MigrationEngine",
]

MIB = 1 << 20


@dataclass(frozen=True)
class MigrationParams:
    """Cost model of one live migration."""

    #: Guest memory image base size to transfer in round 1.
    mem_bytes: int = 64 * MIB
    #: Rate at which the running guest dirties pages during pre-copy.
    dirty_bytes_per_s: int = 8 * MIB
    #: Stop-and-copy when the dirty residue falls below this.
    stop_copy_threshold_bytes: int = 1 * MIB
    #: Hard cap on pre-copy rounds (then stop-and-copy regardless).
    max_precopy_rounds: int = 8
    #: Transfer granularity; each chunk is a separate fabric message, so
    #: application packets interleave with the migration stream.
    chunk_bytes: int = 1 * MIB
    #: Destination-side activation cost after the final copy arrives
    #: (device re-attach, ARP announce, ...); part of downtime.
    activation_ns: int = 50 * USEC
    #: Abort the migration if it has not completed by then (covers
    #: streams stalled by crashed destinations or dead links).
    abort_timeout_ns: int = 30 * SEC


@dataclass(frozen=True)
class MigrationConfig:
    """Control-plane configuration (WorldConfig.migration)."""

    #: ``"demix"`` (:func:`repro.migration.policies.demix` every
    #: ``control_every`` periods) or ``"none"`` for an engine with no
    #: controller (manual ``engine.start`` only).
    policy: str = "none"
    #: Run the control loop every N VMM periods.
    control_every: int = 2
    #: Maximum simultaneously in-flight migrations.
    max_concurrent: int = 1
    #: Minimum time between two migrations of the same VM.
    cooldown_ns: int = 500 * MSEC
    params: MigrationParams = field(default_factory=MigrationParams)

    def __post_init__(self) -> None:
        if self.policy not in ("none", "demix"):
            raise ValueError(
                f"unknown migration policy {self.policy!r}; known: demix (or 'none')"
            )
        if self.control_every < 1:
            raise ValueError(f"control_every must be >= 1, got {self.control_every}")


class Migration:
    """State of one in-flight migration."""

    __slots__ = (
        "vm",
        "src",
        "dst",
        "start_ns",
        "round_no",
        "mem_bytes",
        "remaining",
        "bytes_sent",
        "round_started_ns",
        "pause_start_ns",
        "abort_ev",
        "done",
        "aborted",
    )

    def __init__(self, vm: VM, src: int, dst: int, start_ns: int) -> None:
        self.vm = vm
        self.src = src
        self.dst = dst
        self.start_ns = start_ns
        self.round_no = 1
        self.mem_bytes = 0
        self.remaining = 0
        self.bytes_sent = 0
        self.round_started_ns = start_ns
        self.pause_start_ns: Optional[int] = None
        self.abort_ev = None
        self.done = False
        self.aborted = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Migration {self.vm.name} {self.src}->{self.dst} round={self.round_no}>"


class MigrationEngine:
    """Executes live migrations on a wired :class:`CloudWorld`."""

    def __init__(self, world: "CloudWorld", params: MigrationParams | None = None) -> None:
        self.world = world
        self.sim = world.sim
        self.params = params or MigrationParams()
        #: In-flight migrations by vmid (insertion-ordered).
        self.active: dict[int, Migration] = {}
        self.started = 0
        self.completed = 0
        self.aborted = 0
        self.precopy_rounds = 0
        self.bytes_copied = 0
        #: Accumulated stop-and-copy downtime per VM name.
        self.downtime_by_vm: dict[str, int] = {}
        #: Every (pause_ns, resume_ns) stop-and-copy interval per VM name
        #: — conservation: sum of interval lengths == downtime_by_vm.
        self.pause_intervals: dict[str, list[tuple[int, int]]] = {}
        #: Completion (or abort) time per VM name, for cooldown checks.
        self.last_migrated_ns: dict[str, int] = {}
        #: SAN007-style window violations found by the engine itself when
        #: no sanitizer is attached (strings; any one fails the cell).
        self.violations: list[str] = []

    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        """Deterministic rollup for scenario results."""
        return {
            "started": self.started,
            "completed": self.completed,
            "aborted": self.aborted,
            "precopy_rounds": self.precopy_rounds,
            "bytes_copied": self.bytes_copied,
            "downtime_total_ns": sum(self.downtime_by_vm.values()),
            "downtime_ns": {k: self.downtime_by_vm[k] for k in sorted(self.downtime_by_vm)},
        }

    # ------------------------------------------------------------------
    def start(self, vm: VM, dst_idx: int) -> bool:
        """Begin migrating ``vm`` to node ``dst_idx``.

        Structural misuse (dom0, unknown node, src == dst) raises;
        transient ineligibility (already migrating, VM paused, a node
        crashed, destination full) returns ``False`` so policies can
        simply try their next candidate.
        """
        nodes = self.world.cluster.nodes
        if vm.is_dom0:
            raise ValueError(f"{vm.name}: dom0 cannot be migrated")
        if not 0 <= dst_idx < len(nodes):
            raise ValueError(f"no node {dst_idx} (cluster has {len(nodes)})")
        src_idx = vm.node.index
        if dst_idx == src_idx:
            raise ValueError(f"{vm.name}: already on node {dst_idx}")
        if vm.vmid in self.active or vm.paused:
            return False
        if nodes[src_idx].crashed or nodes[dst_idx].crashed:
            return False
        if self.world._node_vm_load[dst_idx] >= self.world.config.vms_per_node:
            return False
        self.world._node_vm_load[dst_idx] += 1  # reserve the slot now
        m = Migration(vm, src_idx, dst_idx, self.sim.now)
        m.mem_bytes = self.params.mem_bytes
        m.remaining = m.mem_bytes
        self.active[vm.vmid] = m
        self.started += 1
        # Keyed by vmid, not closed over ``m``: a cancelled handle stays
        # queued until due, and must not keep the VM alive that long.
        m.abort_ev = self.sim.after(
            self.params.abort_timeout_ns, partial(self._timeout, vm.vmid), cat="migration"
        )
        if self.sim.record is not None:
            self.sim.record(
                "migrate.start",
                self.sim.now,
                vm=vm.name,
                src=src_idx,
                dst=dst_idx,
                mem_bytes=m.mem_bytes,
            )
        self._send_chunk(m, m.remaining)
        return True

    # -- pre-copy --------------------------------------------------------
    def _send_chunk(self, m: Migration, left: int) -> None:
        if m.done:
            return
        chunk = min(left, self.params.chunk_bytes)
        self.world.cluster.fabric.transmit(
            m.src, m.dst, chunk, lambda: self._chunk_arrived(m, chunk, left - chunk)
        )

    def _chunk_arrived(self, m: Migration, chunk: int, left: int) -> None:
        if m.done:
            return
        m.bytes_sent += chunk
        self.bytes_copied += chunk
        if left > 0:
            self._send_chunk(m, left)
        else:
            self._round_done(m)

    def _round_done(self, m: Migration) -> None:
        now = self.sim.now
        elapsed = now - m.round_started_ns
        dirtied = min(
            m.mem_bytes, self.params.dirty_bytes_per_s * elapsed // SEC
        )
        self.precopy_rounds += 1
        if self.sim.record is not None:
            self.sim.record(
                "migrate.round",
                now,
                vm=m.vm.name,
                round=m.round_no,
                sent_bytes=m.remaining,
                dirtied_bytes=dirtied,
                elapsed_ns=elapsed,
            )
        m.remaining = dirtied
        if dirtied <= self.params.stop_copy_threshold_bytes or m.round_no >= self.params.max_precopy_rounds:
            self._stop_copy(m)
        else:
            m.round_no += 1
            m.round_started_ns = now
            self._send_chunk(m, m.remaining)

    # -- stop-and-copy ---------------------------------------------------
    def _stop_copy(self, m: Migration) -> None:
        vm = m.vm
        vm.node.vmm.pause_vm(vm)
        m.pause_start_ns = self.sim.now
        final = max(1, m.remaining)
        self.world.cluster.fabric.transmit(
            m.src, m.dst, final, lambda: self._final_arrived(m, final)
        )

    def _final_arrived(self, m: Migration, final: int) -> None:
        if m.done:
            return
        m.bytes_sent += final
        self.bytes_copied += final
        self.sim.after(self.params.activation_ns, lambda: self._finish(m), cat="migration")

    def _finish(self, m: Migration) -> None:
        if m.done:
            return
        vm = m.vm
        now = self.sim.now
        world = self.world
        dst_node = world.cluster.nodes[m.dst]
        if dst_node.crashed:
            self._abort(m, "dst_crashed")
            return
        # SAN007 window integrity: the VM must have stayed frozen for the
        # whole stop-and-copy phase (a node restart force-clearing the
        # pause depth would break this).
        if not vm.paused or any(v.state is not BLOCKED for v in vm.vcpus):
            self._violate(
                f"{vm.name}: stop-and-copy window broken at t={now} "
                f"(paused={vm.paused})"
            )
        if m.abort_ev is not None:
            m.abort_ev.cancel()
            m.abort_ev = None
        src_vmm = world.vmms[m.src]
        dst_vmm = world.vmms[m.dst]
        world._unhost_vm(vm)
        # Re-home: node pointer and VCPU run-queue homes.
        vm.node = dst_node
        for i, vcpu in enumerate(vm.vcpus):
            vcpu.pcpu = None
            vcpu.rq = i % len(dst_node.pcpus)
        dst_vmm.add_vm(vm)
        # Downtime accounting (conserved: total == sum of intervals).
        downtime = now - m.pause_start_ns
        self.downtime_by_vm[vm.name] = self.downtime_by_vm.get(vm.name, 0) + downtime
        self.pause_intervals.setdefault(vm.name, []).append((m.pause_start_ns, now))
        if self.sim.record is not None:
            self.sim.record(
                "migrate.downtime",
                now,
                vm=vm.name,
                src=m.src,
                dst=m.dst,
                downtime_ns=downtime,
            )
        dst_vmm.resume_vm(vm)
        # The host census changed on both sides: re-run the per-host slice
        # minimum (Algorithm 2) instead of waiting for the next period.
        self._retrigger(src_vmm)
        self._retrigger(dst_vmm)
        m.done = True
        self.active.pop(vm.vmid, None)
        self.completed += 1
        self.last_migrated_ns[vm.name] = now
        if self.sim.record is not None:
            self.sim.record(
                "migrate.done",
                now,
                vm=vm.name,
                src=m.src,
                dst=m.dst,
                status="completed",
                rounds=m.round_no,
                bytes=m.bytes_sent,
                total_ns=now - m.start_ns,
            )

    def _retrigger(self, vmm) -> None:
        """Re-run the scheduler's slice controller off-cycle, if it has
        one (ATC).  The ATC controller's on_period is a pure slice pass —
        no credit accounting — so this is safe between periods."""
        controller = getattr(vmm.scheduler, "controller", None)
        if controller is not None and not vmm.node.crashed:
            controller.on_period(self.sim.now)

    # -- abort -----------------------------------------------------------
    def cancel(self, vm: VM, reason: str = "cancelled") -> bool:
        """Abort the in-flight migration of ``vm``, if any.

        Used by ``CloudWorld.teardown_vm`` when a tenant departs while
        one of its VMs is mid-migration: the destination reservation is
        released and a stop-and-copy pause (if open) is resumed before
        the caller re-freezes the VM for good.  Returns ``True`` when a
        migration was actually aborted.
        """
        m = self.active.get(vm.vmid)
        if m is None:
            return False
        self._abort(m, reason)
        return True

    def _timeout(self, vmid: int) -> None:
        self._abort(self.active[vmid], "timeout")

    def _abort(self, m: Migration, reason: str) -> None:
        if m.done:
            return
        m.done = True
        m.aborted = True
        now = self.sim.now
        if m.abort_ev is not None:
            m.abort_ev.cancel()
            m.abort_ev = None
        self.world._node_vm_load[m.dst] -= 1  # release the reservation
        vm = m.vm
        if m.pause_start_ns is not None:
            downtime = now - m.pause_start_ns
            self.downtime_by_vm[vm.name] = self.downtime_by_vm.get(vm.name, 0) + downtime
            self.pause_intervals.setdefault(vm.name, []).append((m.pause_start_ns, now))
            vm.node.vmm.resume_vm(vm)
        self.active.pop(vm.vmid, None)
        self.aborted += 1
        self.last_migrated_ns[vm.name] = now
        if self.sim.record is not None:
            self.sim.record(
                "migrate.done",
                now,
                vm=vm.name,
                src=m.src,
                dst=m.dst,
                status=f"aborted:{reason}",
                rounds=m.round_no,
                bytes=m.bytes_sent,
                total_ns=now - m.start_ns,
            )

    # ------------------------------------------------------------------
    def _violate(self, message: str) -> None:
        sanitizer = getattr(self.world, "sanitizer", None)
        if sanitizer is not None:
            sanitizer.record(sanitizer.MIGRATION, message)
        else:
            self.violations.append(message)
