"""Workload foundations: BSP rank programs and multi-VM parallel jobs.

The paper's parallel applications follow the Bulk Synchronous Parallel
model (Section II-B): compute phases alternating with synchronization
phases, where synchronization happens through shared-memory spinlocks
inside a VM and through network messages across the VMs of a virtual
cluster.  :class:`ParallelApp` coordinates one such job:

* one process per VCPU on every member VM (the paper's NPB deployment),
* one spin barrier per VM for the intra-VM synchronization phase,
* rank 0 of each VM exchanging messages with peer VMs per the
  application's communication pattern for the cross-VM phase,
* batch-mode repetition: like the paper's evaluation, applications run
  repeatedly and per-round execution times are recorded (with warm-up
  rounds excluded so adaptive schedulers are measured at steady state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from repro.guest.process import Segment, barrier, recv, send
from repro.guest.spinlock import SpinBarrier
from repro.sim.rng import SimRNG

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.process import GuestProcess
    from repro.hypervisor.vm import VM
    from repro.sim.engine import Simulator

__all__ = ["CommPattern", "BSPSpec", "bsp_rank_program", "ParallelApp"]


CommPattern = str  # "none" | "ring" | "alltoall"


@dataclass(frozen=True)
class BSPSpec:
    """Shape of a BSP application (one NPB kernel, parameterised)."""

    name: str
    #: Mean compute per rank per superstep (ns).
    grain_ns: int
    #: Coefficient of variation of the compute grain (stragglers!).
    grain_cv: float
    #: Supersteps per round (one "execution" of the application).
    supersteps: int
    #: Cross-VM communication pattern of rank 0.
    pattern: CommPattern
    #: Message payload (bytes) for the cross-VM exchange.
    msg_bytes: int
    #: Messages per peer per superstep.
    msgs_per_peer: int = 1
    #: Cross-VM exchange every k-th superstep (1 = every superstep).
    comm_every: int = 1
    #: Whether siblings barrier *behind* the exchange (hard global sync,
    #: e.g. an all-to-all transpose) or keep computing while rank 0
    #: completes it (pipelined nearest-neighbour kernels like lu's
    #: wavefront, where communication overlaps computation).
    hard_comm_sync: bool = False
    #: LLC-footprint multiplier (see repro.cluster.cache).
    cache_sensitivity: float = 1.0

    def scaled(self, grain_mult: float = 1.0, steps_mult: float = 1.0) -> "BSPSpec":
        """Derive a problem-class variant (NPB classes A/B/C)."""
        return BSPSpec(
            name=self.name,
            grain_ns=max(1, int(self.grain_ns * grain_mult)),
            grain_cv=self.grain_cv,
            supersteps=max(1, int(self.supersteps * steps_mult)),
            pattern=self.pattern,
            msg_bytes=self.msg_bytes,
            msgs_per_peer=self.msgs_per_peer,
            comm_every=self.comm_every,
            hard_comm_sync=self.hard_comm_sync,
            cache_sensitivity=self.cache_sensitivity,
        )


def _peer_indices(pattern: CommPattern, vm_idx: int, n_vms: int) -> list[int]:
    """Peer VM indices rank 0 of ``vm_idx`` exchanges with."""
    if n_vms <= 1 or pattern == "none":
        return []
    if pattern == "ring":
        left = (vm_idx - 1) % n_vms
        right = (vm_idx + 1) % n_vms
        return [left] if left == right else [left, right]
    if pattern == "alltoall":
        return [i for i in range(n_vms) if i != vm_idx]
    raise ValueError(f"unknown communication pattern {pattern!r}")


def bsp_rank_program(
    spec: BSPSpec,
    vms: Sequence["VM"],
    vm_idx: int,
    local_idx: int,
    bar: SpinBarrier,
    rng: SimRNG,
) -> Iterator[Segment]:
    """Program of one rank of a BSP job.

    Every rank computes then enters the VM-local spin barrier; rank 0 of
    each VM additionally performs the cross-VM message exchange, with a
    second barrier so siblings wait for the exchange (the communication
    step of the superstep), exactly the structure whose overheads
    Sections II-B1/II-B2 dissect.

    ``rng`` is the rank-round's own substream and feeds nothing but the
    compute-grain jitter, so the whole round's grains are one vectorised
    lognormal draw at the first segment: bit-identical to one scalar
    ``rng.jittered_ns`` per superstep, since numpy fills an array with the
    same per-sample draws.  The stream is dropped once drawn.
    """
    peers = _peer_indices(spec.pattern, vm_idx, len(vms))
    do_comm = local_idx == 0 and peers
    steps = max(0, spec.supersteps)
    params = SimRNG.lognormal_params(spec.grain_ns, spec.grain_cv)
    if params is None:  # deterministic grain (>= 0): no draw, no floor
        floor, grains = 0, [rng.jittered_ns(spec.grain_ns, spec.grain_cv)] * steps
    else:
        floor, grains = 1, rng.generator.lognormal(*params, size=steps)
    del rng
    sync = barrier(bar)
    comm_every = spec.comm_every
    for step, g in enumerate(grains):
        yield ("compute", max(floor, int(g)))
        yield sync
        if comm_every <= 1 or (step % comm_every) == 0:
            if do_comm:
                nmsg = 0
                for p in peers:
                    for _ in range(spec.msgs_per_peer):
                        yield send(vms[p], 0, spec.msg_bytes, tag=step)
                        nmsg += 1
                yield recv(nmsg)
            if peers and spec.hard_comm_sync:
                # Hard global sync (all-to-all transposes): every rank
                # waits for the exchange.  Pipelined kernels skip this —
                # rank 0 rejoins at the next superstep's barrier.
                yield sync


class ParallelApp:
    """A parallel job across the VMs of one virtual cluster, run in
    batch mode (repeated rounds) with per-round timing."""

    def __init__(
        self,
        sim: "Simulator",
        spec: BSPSpec,
        vms: Sequence["VM"],
        rng: SimRNG,
        procs_per_vm: Optional[int] = None,
        rounds: Optional[int] = None,
        warmup_rounds: int = 0,
        name: Optional[str] = None,
    ) -> None:
        """``rounds=None`` repeats forever (background load); otherwise the
        app stops after ``rounds`` *measured* rounds (warm-up excluded)."""
        self.sim = sim
        self.spec = spec
        self.vms = list(vms)
        self.name = name or f"{spec.name}@" + "+".join(v.name for v in self.vms[:2])
        self.rng = rng
        self.rounds = rounds
        self.warmup_rounds = warmup_rounds
        self.round_times: list[int] = []
        self.rounds_completed = 0
        self.finished = False
        self.on_complete: Optional[Callable[["ParallelApp"], None]] = None
        self._round_start = 0
        self._pending_ranks = 0
        self._procs: list["GuestProcess"] = []
        self._bars: list[SpinBarrier] = []
        self._locations: list[tuple[int, int]] = []  # (vm_idx, local_idx)

        for vm_idx, vm in enumerate(self.vms):
            if vm.kernel is None:
                raise ValueError(f"{vm.name} has no guest kernel")
            n = procs_per_vm if procs_per_vm is not None else len(vm.vcpus)
            bar = SpinBarrier(n, name=f"{self.name}.bar{vm_idx}")
            self._bars.append(bar)
            for local in range(n):
                proc = vm.kernel.add_process(cache_sensitivity=spec.cache_sensitivity)
                proc.on_done = self._rank_done
                self._procs.append(proc)
                self._locations.append((vm_idx, local))

    # ------------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        return len(self._procs)

    def start(self) -> None:
        self._load_round()
        for p in self._procs:
            p.start()

    def _load_round(self) -> None:
        self._round_start = self.sim.now
        self._pending_ranks = len(self._procs)
        for proc, (vm_idx, local) in zip(self._procs, self._locations):
            rng = self.rng.substream(vm_idx, local, self.rounds_completed)
            proc.load_program(
                bsp_rank_program(self.spec, self.vms, vm_idx, local, self._bars[vm_idx], rng)
            )

    def _rank_done(self, proc: "GuestProcess") -> None:
        self._pending_ranks -= 1
        if self._pending_ranks > 0:
            return
        took = self.sim.now - self._round_start
        self.rounds_completed += 1
        if self.rounds_completed > self.warmup_rounds:
            self.round_times.append(took)
        if self.rounds is not None and len(self.round_times) >= self.rounds:
            self.finished = True
            if self.on_complete is not None:
                self.on_complete(self)
            return
        # Batch mode: restart in a fresh event to decouple from the last
        # rank's completion path.
        self.sim.after(0, self._restart, cat="app")

    def _restart(self) -> None:
        if self.finished:  # pragma: no cover - defensive
            return
        self._load_round()
        for p in self._procs:
            p.start()

    # ------------------------------------------------------------------
    @property
    def mean_round_ns(self) -> float:
        """Mean measured round time (the paper's 'execution time')."""
        if not self.round_times:
            return float("nan")
        return sum(self.round_times) / len(self.round_times)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ParallelApp {self.name} ranks={self.n_ranks} rounds={self.rounds_completed}>"
