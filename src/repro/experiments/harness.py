"""CloudWorld: the one-stop experiment facade.

Wires a whole virtualized cloud — simulator, physical cluster, one VMM +
dom0 per node with the chosen scheduler, guest VMs with kernels — and
provides the builders the paper's scenarios need: virtual clusters spread
across nodes, NPB jobs in batch mode, and the non-parallel applications.

Typical use (see ``examples/quickstart.py``)::

    world = CloudWorld(WorldConfig(n_nodes=2, scheduler="ATC"))
    vc = world.virtual_cluster(n_vms=2, name="vc0")
    app = world.add_npb("lu", vc.vms, rounds=3, warmup_rounds=1)
    world.run(horizon_ns=ns_from_s(20))
    print(app.mean_round_ns)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.analysis.sanitizer import SimSanitizer
from repro.cluster.network import NetworkParams
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.profiler import SimProfiler
from repro.obs.trace import TraceLog
from repro.cluster.node import NodeParams
from repro.cluster.topology import Cluster, build_cluster
from repro.dfrs.controller import DFRSConfig, DFRSController
from repro.guest.kernel import GuestKernel
from repro.hypervisor.dom0 import Dom0, Dom0Params
from repro.hypervisor.vm import VM
from repro.hypervisor.vmm import VMM
from repro.migration.engine import MigrationConfig, MigrationEngine, per_vcpu_params
from repro.migration.rebalancer import Rebalancer
from repro.schedulers.base import SchedulerParams
from repro.schedulers.registry import make_scheduler_factory
from repro.service.service import CloudService, ServiceConfig
from repro.sim.engine import Simulator
from repro.sim.rng import SimRNG
from repro.sim.units import MSEC, SEC
from repro.virtcluster.cluster import VirtualCluster
from repro.virtcluster.placement import place
from repro.workloads.attacks import ATTACK_RNG_KEY, TickleAbuseApp, YieldTheftApp
from repro.workloads.base import BSPSpec, ParallelApp
from repro.workloads.nonparallel import (
    CPU_APP_SPECS,
    BonnieApp,
    CpuApp,
    PingApp,
    StreamApp,
    WebServerApp,
)
from repro.workloads.npb import npb_spec

__all__ = ["WorldConfig", "CloudWorld"]


@dataclass(frozen=True)
class WorldConfig:
    """Shape of the simulated cloud platform."""

    #: Physical nodes (paper: up to 32, each 8 cores).
    n_nodes: int = 2
    #: VMs hosted per node (paper: 4).
    vms_per_node: int = 4
    #: VCPUs per guest VM (paper: 8; 16 in the Section II-B experiments).
    vcpus_per_vm: int = 8
    #: Scheduler approach name: CR / CS / BS / DSS / VS / ATC.
    scheduler: str = "CR"
    #: Optional scheduler parameter override.
    sched_params: Optional[SchedulerParams] = None
    #: Force a fixed time slice on every *guest* VM (the Fig. 5/8/9 static
    #: sweeps).  Only meaningful with CR — adaptive schedulers overwrite it.
    uniform_slice_ns: Optional[int] = None
    #: VMM scheduling period (credit accounting + ATC control period).
    period_ns: int = 30 * MSEC
    #: Deterministic seed for all workload randomness.
    seed: int = 0
    #: Tie-order mode among same-timestamp events: "fifo" or "reversed".
    #: "reversed" is the race-detector differential mode (see
    #: :mod:`repro.analysis.races`): any metric difference between a fifo
    #: and a reversed run of the same world is a confirmed order-dependence.
    tie_order: str = "fifo"
    #: PV-spinlock grace budget: CPU time a guest waiter spins before
    #: blocking on its event channel (None = spin forever; see
    #: repro.guest.kernel.GuestKernel).
    spin_block_ns: Optional[int] = 20 * MSEC
    #: Install the runtime invariant sanitizer (repro.analysis.sanitizer).
    #: Read-only hooks: a sanitized run is bit-identical to a plain one.
    sanitize: bool = False
    #: Collect a structured trace (repro.obs.trace) of every run.  Like the
    #: sanitizer, tracing is read-only: a traced run is bit-identical to an
    #: untraced one.
    trace: bool = False
    #: Ring-buffer capacity of the trace log (records; oldest evicted).
    trace_capacity: int = 65536
    #: Attach the wall-clock self-profiler (repro.obs.profiler) to the
    #: simulator.  Also read-only with respect to simulation state.
    profile: bool = False
    #: Deterministic fault plan (repro.faults); ``None`` = no faults and
    #: no fault hooks armed, so the run is bit-identical to a world built
    #: before the fault subsystem existed.
    faults: Optional[FaultPlan] = None
    #: Default VM placement policy for ``new_vm`` / ``virtual_cluster``
    #: (see repro.virtcluster.placement: spread / pack / striped /
    #: "random:SEED").
    placement: str = "spread"
    #: Live migration & rebalancing control plane (repro.migration);
    #: ``None`` = subsystem not constructed.  An enabled-but-idle control
    #: plane draws no RNG and adds no events, so such a run stays
    #: bit-identical to one without the subsystem.
    migration: Optional[MigrationConfig] = None
    #: Always-on service layer (repro.service): streaming tenant arrivals
    #: under online admission control; ``None`` = batch mode (fixed
    #: population).  A service layer configured for zero arrivals adds no
    #: events and draws no RNG, so such a run is bit-identical — event
    #: count included — to one without the layer.
    service: Optional[ServiceConfig] = None
    #: Cluster-scope fractional resource scheduling (repro.dfrs): a
    #: leader-elected controller that periodically re-solves per-VM
    #: (cap, weight) allocations and pushes them into the per-host
    #: schedulers; ``None`` = subsystem not constructed.  A configured
    #: controller with ``solve_every=0`` never solves, draws no RNG and
    #: adds no events, so such a run is bit-identical — event count
    #: included — to one without the layer.
    dfrs: Optional[DFRSConfig] = None
    node_params: NodeParams = field(default_factory=NodeParams)
    net_params: NetworkParams = field(default_factory=NetworkParams)
    dom0_params: Dom0Params = field(default_factory=Dom0Params)


class CloudWorld:
    """A fully wired simulated cloud platform."""

    def __init__(self, config: WorldConfig | None = None) -> None:
        self.config = config or WorldConfig()
        cfg = self.config
        self.sim = Simulator(tie_order=cfg.tie_order)
        self.rng = SimRNG(cfg.seed)
        self.cluster: Cluster = build_cluster(
            self.sim, cfg.n_nodes, cfg.node_params, cfg.net_params
        )
        factory = make_scheduler_factory(cfg.scheduler, cfg.sched_params)
        self.vmms: list[VMM] = []
        for node in self.cluster.nodes:
            vmm = VMM(self.sim, node, factory, period_ns=cfg.period_ns)
            Dom0(self.sim, vmm, self.cluster.fabric, cfg.dom0_params)
            self.vmms.append(vmm)
        self.sanitizer: Optional[SimSanitizer] = (
            SimSanitizer(self.sim, self.vmms) if cfg.sanitize else None
        )
        self.tracelog: Optional[TraceLog] = (
            TraceLog(capacity=cfg.trace_capacity) if cfg.trace else None
        )
        self.profiler: Optional[SimProfiler] = (
            SimProfiler(self.sim) if cfg.profile else None
        )
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(self, cfg.faults) if cfg.faults else None
        )
        self._node_vm_load = [0] * cfg.n_nodes
        self._rng_key = 0
        self.vms: list[VM] = []
        self.virtual_clusters: list[VirtualCluster] = []
        #: Cluster controllers on the control tick (:meth:`every_period`),
        #: as ``(fn, every)`` in registration order.
        self._period_fns: list[tuple[Callable[[int], None], int]] = []
        self._led_tick_ns = -1
        #: Period timestamps the control tick has led so far.
        self.leader_ticks = 0
        self.migration_engine: Optional[MigrationEngine] = None
        self.rebalancer: Optional[Rebalancer] = None
        if cfg.migration is not None:
            self.migration_engine = MigrationEngine(self, cfg.migration.params)
            if cfg.migration.policy != "none":
                self.rebalancer = Rebalancer(self, self.migration_engine, cfg.migration)
        self.dfrs: Optional[DFRSController] = None
        if cfg.dfrs is not None:
            if cfg.dfrs.allow_moves and self.migration_engine is None:
                # DFRS relocations go through the standard engine; attach
                # one (no rebalancer) when the config demands moves but no
                # migration control plane was requested.  DFRS moves VMs
                # of very different shapes, so the footprint scales with
                # VCPU count.
                self.migration_engine = MigrationEngine(self, per_vcpu_params())
            self.dfrs = DFRSController(self, cfg.dfrs)
        self.service: Optional[CloudService] = (
            CloudService(self, cfg.service) if cfg.service is not None else None
        )
        self.apps: list[ParallelApp] = []  # tracked (finite-round) jobs
        self.background: list = []  # infinite jobs and non-parallel apps
        self._started = False
        self._pending_apps = 0

    # ------------------------------------------------------------------
    # Topology builders
    # ------------------------------------------------------------------
    def _next_rng(self) -> SimRNG:
        self._rng_key += 1
        return self.rng.substream(self._rng_key)

    def _create_vm(
        self,
        node_idx: int,
        n_vcpus: Optional[int],
        is_parallel: bool,
        name: Optional[str],
        weight: float = 1.0,
    ) -> VM:
        """Construct a VM on an already-reserved node slot."""
        cfg = self.config
        vm = VM(
            self.cluster.nodes[node_idx],
            n_vcpus if n_vcpus is not None else cfg.vcpus_per_vm,
            name=name,
            is_parallel=is_parallel,
            weight=weight,
        )
        if cfg.uniform_slice_ns is not None:
            vm.slice_ns = cfg.uniform_slice_ns
        self.vmms[node_idx].add_vm(vm)
        GuestKernel(self.sim, vm, spin_block_ns=cfg.spin_block_ns)
        self.vms.append(vm)
        return vm

    def new_vm(
        self,
        node_idx: Optional[int] = None,
        n_vcpus: Optional[int] = None,
        is_parallel: bool = False,
        name: Optional[str] = None,
        weight: float = 1.0,
    ) -> VM:
        """Create a guest VM (with a guest kernel) on a node.

        ``node_idx=None`` picks the least-loaded node.
        """
        cfg = self.config
        if node_idx is None:
            assignment, new_loads = place(
                cfg.placement, 1, self._node_vm_load, cfg.vms_per_node, cluster=name or "vm"
            )
            self._node_vm_load[:] = new_loads
            node_idx = assignment[0]
        else:
            if self._node_vm_load[node_idx] >= cfg.vms_per_node:
                raise RuntimeError(f"node {node_idx} is at VM capacity")
            self._node_vm_load[node_idx] += 1
        return self._create_vm(node_idx, n_vcpus, is_parallel, name, weight)

    def virtual_cluster(
        self,
        n_vms: int,
        name: Optional[str] = None,
        node_indices: Optional[Sequence[int]] = None,
        n_vcpus: Optional[int] = None,
        placement: Optional[str] = None,
    ) -> VirtualCluster:
        """Create a virtual cluster of parallel VMs.

        ``placement`` names a policy from
        :data:`repro.virtcluster.placement.PLACEMENTS` (or
        ``"random:SEED"``); ``None`` uses ``WorldConfig.placement``.
        ``"spread"`` (the paper's setup) puts each VM on a different node
        where possible; ``"pack"`` fills nodes in order (for ablations
        isolating the cross-VM network overhead).
        """
        name = name or f"vc{len(self.virtual_clusters)}"
        if node_indices is None:
            assignment, new_loads = place(
                placement or self.config.placement,
                n_vms,
                self._node_vm_load,
                self.config.vms_per_node,
                cluster=name,
            )
            self._node_vm_load[:] = new_loads
            node_indices = assignment
        else:
            for ni in node_indices:
                if self._node_vm_load[ni] >= self.config.vms_per_node:
                    raise RuntimeError(f"node {ni} is at VM capacity")
                self._node_vm_load[ni] += 1
        vms = [
            self._create_vm(ni, n_vcpus, True, f"{name}.vm{i}")
            for i, ni in enumerate(node_indices)
        ]
        vc = VirtualCluster(name, vms)
        self.virtual_clusters.append(vc)
        return vc

    # ------------------------------------------------------------------
    # Teardown (tenant departures — repro.service)
    # ------------------------------------------------------------------
    def teardown_vm(self, vm: VM) -> None:
        """Remove a guest VM from the platform, reclaiming its node slot.

        The inverse of :meth:`_create_vm`.  The VM is frozen first (the
        PR-4 latch-and-replay pause), so stale guest timers and in-flight
        packets addressed to it latch harmlessly instead of corrupting
        scheduler state; it is then dropped from every roster: the VMM's
        VM list, the per-node load, vmid-keyed scheduler state (vSlicer's
        LS set) and the world VM list.  An in-flight migration of the VM
        is aborted.  The host census changed, so the per-host slice
        minimum (Algorithm 2) is re-run immediately, exactly as after a
        migration handoff.
        """
        if vm.is_dom0:
            raise ValueError(f"{vm.name}: dom0 cannot be torn down")
        if self.migration_engine is not None:
            self.migration_engine.cancel(vm, reason="teardown")
        vmm = vm.node.vmm
        vmm.pause_vm(vm)  # never resumed: late wakes stay latched forever
        vmm.vms.remove(vm)
        self._node_vm_load[vm.node.index] -= 1
        ls = getattr(vmm.scheduler, "ls_vms", None)
        if ls is not None:
            ls.pop(vm.vmid, None)
        self.vms.remove(vm)
        controller = getattr(vmm.scheduler, "controller", None)
        if controller is not None and not vmm.node.crashed:
            controller.on_period(self.sim.now)

    def teardown_cluster(self, vc: VirtualCluster) -> None:
        """Tear down every VM of a virtual cluster and deregister it."""
        for vm in vc.vms:
            self.teardown_vm(vm)
        self.virtual_clusters.remove(vc)

    # ------------------------------------------------------------------
    # Control tick (cluster controllers)
    # ------------------------------------------------------------------
    def every_period(self, fn: Callable[[int], None], every: int = 1) -> None:
        """Call ``fn(now)`` on every ``every``-th cluster period tick.

        Every VMM's period tick fires at the same timestamps.  The first
        registration appends one shared hook to each node's
        ``period_hooks`` (a world without controllers carries none); the
        first live node to tick at a timestamp leads it, counts one leader
        tick and runs the registered functions in registration order, and
        the other nodes see the timestamp claimed and return.  Crashed
        nodes skip their hooks, so leadership fails over to the next live
        node with no election traffic.  The tick schedules no events of
        its own: an idle controller leaves a run bit-identical, event
        count included, to one without it.
        """
        if not self._period_fns:
            for vmm in self.vmms:
                vmm.period_hooks.append(self._control_tick)
        self._period_fns.append((fn, every))

    def _control_tick(self, now: int) -> None:
        if now == self._led_tick_ns:
            return  # a lower-indexed live node already led this tick
        self._led_tick_ns = now
        self.leader_ticks += 1
        for fn, every in self._period_fns:
            if self.leader_ticks % every == 0:
                fn(now)

    # ------------------------------------------------------------------
    # Workload builders
    # ------------------------------------------------------------------
    def add_npb(
        self,
        kernel: str | BSPSpec,
        vms: Sequence[VM],
        rounds: Optional[int] = 3,
        warmup_rounds: int = 1,
        npb_class: str = "B",
        procs_per_vm: Optional[int] = None,
    ) -> ParallelApp:
        """Run an NPB kernel on a set of VMs, batch mode.

        ``rounds=None`` makes it untracked background load (repeats until
        the horizon); otherwise the world's :meth:`run` can stop when all
        tracked apps complete their measured rounds.
        """
        spec = kernel if isinstance(kernel, BSPSpec) else npb_spec(kernel, npb_class)
        app = ParallelApp(
            self.sim,
            spec,
            vms,
            self._next_rng(),
            procs_per_vm=procs_per_vm,
            rounds=rounds,
            warmup_rounds=warmup_rounds,
        )
        if rounds is None:
            self._register_background(app)
        else:
            app.on_complete = self._app_complete
            self.apps.append(app)
            if self._started:
                # Late-registered tracked app: the world is live, so it must
                # start now and join the completion countdown, otherwise it
                # would silently never run (and a stale countdown could stop
                # the simulation before it finishes).
                self._pending_apps += 1
                app.start()
        return app

    def _app_complete(self, app: ParallelApp) -> None:
        self._pending_apps -= 1
        if self._pending_apps <= 0:
            self.sim.stop()

    def _register_background(self, app):
        """Track a background workload; start it at once if the world runs."""
        self.background.append(app)
        if self._started:
            app.start()
        return app

    def add_cpu_app(self, name: str, vm: VM) -> CpuApp:
        return self._register_background(
            CpuApp(self.sim, vm, CPU_APP_SPECS[name], self._next_rng())
        )

    def add_stream(self, vm: VM) -> StreamApp:
        return self._register_background(StreamApp(self.sim, vm, self._next_rng()))

    def add_bonnie(self, vm: VM) -> BonnieApp:
        return self._register_background(BonnieApp(self.sim, vm, self._next_rng()))

    def add_ping(self, vm: VM, peer_vm: VM, interval_ns: int = 10 * MSEC) -> PingApp:
        return self._register_background(
            PingApp(self.sim, vm, peer_vm, self._next_rng(), interval_ns=interval_ns)
        )

    def add_webserver(self, server_vm: VM, client_vm: VM, **kw) -> WebServerApp:
        return self._register_background(
            WebServerApp(self.sim, server_vm, client_vm, self._next_rng(), **kw)
        )

    # -- adversarial tenants (repro.workloads.attacks) ------------------
    # Attackers draw *only* from the dedicated ATTACK_RNG_KEY substream
    # (sub-keyed by ``stream``), never from ``_next_rng()``: worlds that
    # build no attackers consume zero attack entropy and the honest apps'
    # draw sequences are unperturbed by attackers being added or removed.
    def add_yield_theft(self, vm: VM, stream: int = 0, **kw) -> YieldTheftApp:
        rng = self.rng.substream(ATTACK_RNG_KEY, stream)
        return self._register_background(YieldTheftApp(self.sim, vm, rng, **kw))

    def add_tickle_abuse(self, vm: VM, stream: int = 0, **kw) -> TickleAbuseApp:
        rng = self.rng.substream(ATTACK_RNG_KEY, stream)
        return self._register_background(TickleAbuseApp(self.sim, vm, rng, **kw))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start VMM period ticks and all registered workloads.

        Idempotent.  Workloads registered *after* the world has started
        are started immediately by their ``add_*`` builder (and tracked
        apps join the completion countdown), so staged scenarios — run,
        add more load, run again — behave as expected.
        """
        if self._started:
            return
        self._started = True
        for vmm in self.vmms:
            vmm.start()
        self._pending_apps = len(self.apps)
        for app in self.apps:
            app.start()
        for app in self.background:
            app.start()
        if self.service is not None:
            self.service.start()

    def run(self, horizon_ns: int = 60 * SEC) -> None:
        """Run until every tracked app finished its rounds, or the horizon.

        Call repeatedly to extend the horizon.

        With ``WorldConfig.sanitize`` set, raises
        :class:`~repro.analysis.sanitizer.SanitizerViolationError` if any
        simulation invariant was violated during the run.
        """
        self.start()
        if self.tracelog is not None:
            with self.tracelog.activate():
                self.sim.run(until=self.sim.now + horizon_ns)
        else:
            self.sim.run(until=self.sim.now + horizon_ns)
        if self.sanitizer is not None:
            self.sanitizer.check()

    @property
    def metrics(self):
        """Live :class:`~repro.obs.registry.MetricsRegistry` for the whole
        world (cluster / per-node / per-VM, callback gauges)."""
        from repro.metrics.collectors import world_registry

        return world_registry(self)

    @property
    def all_apps_done(self) -> bool:
        return all(a.finished for a in self.apps)
