"""Scenario builders: one function per paper experiment setup.

Each builder constructs the paper's platform shape, runs it, and returns a
plain dict of measurements.  The grids of :mod:`repro.experiments.grids`
call these with scaled-down defaults (fewer nodes / rounds, same
over-commit ratio) — see DESIGN.md §4; normalized execution time is a
ratio, so the paper's *shapes* survive the scaling.

Setups reproduced:

* ``run_type_a`` — Section IV-B1 (Figs. 1, 10): N nodes, four identical
  virtual clusters of one VM per node, all running the same NPB kernel.
  Under CR with ``uniform_slice_ms`` it is also one point of Section
  II-B / III-B's static time-slice sweep (Figs. 5, 8): the cell's
  ``cluster`` rollup carries its LLC misses and context switches.
* ``run_small_mix`` — Section II-A2 (Figs. 2, 9): two nodes, three
  2-VM virtual clusters plus two non-parallel VMs running bonnie++,
  sphinx3, stream and ping.
* ``run_type_b`` — Section IV-B2 (Fig. 11): the LLNL-trace virtual
  cluster mix, every cluster running a random NPB kernel, batch mode.
* ``run_type_b_mixed`` — Section IV-C (Figs. 12-14): type B placement
  where independent VMs run a mix of NPB and non-parallel applications
  (web server driven from a dedicated client node).
* ``run_table1_cell`` — Table I: the paper's exact 32-node type-B
  platform and virtual-cluster mix, one cell.
* ``run_packet_path_probe`` — Fig. 4: per-hop timestamps of cross-VM
  messages under load, splitting the four scheduling-wait overheads.
* ``run_migration_rebalance`` — mixed-tenancy world (Fig. 12/13-style)
  under a live-migration rebalancing policy (:mod:`repro.migration`):
  compares static placements against dynamically demixed/consolidated/
  evacuated ones.
* ``run_dfrs_compare`` — design-space comparator (:mod:`repro.dfrs`):
  the same mixed-tenancy cell run under plain CR, the paper's ATC
  (per-VCPU slice control), cluster-level DFRS fractional allocation
  (per-VM caps/weights solved periodically), and the ATC+DFRS hybrid.
* ``run_service`` — always-on cloud service (:mod:`repro.service`):
  tenants arrive as a stream (Poisson or trace replay), an admission
  policy admits/queues/rejects them, and completed tenants are torn
  down with their resources reclaimed.  Compares admission policies at
  equal offered load.

Run-wide options are declared once, as :class:`WorldConfig` fields
(``sched_params``, ``sanitize``, ``trace``, ``profile``, ``faults``,
``tie_order``...).  Every builder takes them as ``**world_opts`` and
hands them to :func:`_world` unchanged, so a misspelled option raises
``TypeError`` when the config is built, before any simulation.
``sched_params`` travels as a JSON dict of the scheduler's parameter
fields (``{"boost": false}``, ``{"atc": {"trend_policy": "prose"}}``),
which :func:`_world` turns into the scheduler's
:class:`~repro.schedulers.base.SchedulerParams` subclass.  A
builder spells out only the parameters it inspects itself.
"""

from __future__ import annotations

import os
import time
from typing import Optional, Sequence

from repro.analysis.sanitizer import SanitizerViolationError, SimSanitizer, Violation
from repro.dfrs.controller import DFRSConfig
from repro.experiments.harness import CloudWorld, WorldConfig
from repro.faults.plan import FaultPlan
from repro.migration.engine import MigrationConfig
from repro.service.service import ServiceConfig
from repro.guest.process import recv_block, send
from repro.metrics.collectors import cluster_stats
from repro.metrics.summary import mean
from repro.schedulers.registry import DEFAULT_PARAMS
from repro.sim.rng import SimRNG
from repro.sim.units import MSEC, SEC, ns_from_ms
from repro.workloads.npb import NPB_NAMES, npb_spec
from repro.workloads.traces import paper_vc_mix, synthesize_vc_mix

__all__ = [
    "run_type_a",
    "run_table1_cell",
    "run_small_mix",
    "run_type_b",
    "run_type_b_mixed",
    "run_packet_path_probe",
    "run_fault_probe",
    "run_migration_rebalance",
    "run_service",
    "run_dfrs_compare",
    "run_attack",
]


# ----------------------------------------------------------------------
def _world(
    n_nodes: int,
    scheduler: str,
    seed: int,
    sched_params: Optional[dict] = None,
    faults: Optional[Sequence[dict]] = None,
    migration: Optional[dict] = None,
    service: Optional[dict] = None,
    dfrs: Optional[dict] = None,
    **config,
) -> CloudWorld:
    # Scheduler overrides, fault plans and migration/service/DFRS configs
    # travel through scenario params as JSON dicts so they are picklable
    # and fold into the sweep cache key automatically; every other option
    # is a WorldConfig field.
    return CloudWorld(
        WorldConfig(
            n_nodes=n_nodes,
            scheduler=scheduler,
            seed=seed,
            sched_params=(DEFAULT_PARAMS[scheduler].from_dict(sched_params)
                          if sched_params is not None else None),
            faults=FaultPlan.from_dicts(faults) if faults else None,
            migration=MigrationConfig.from_dict(migration) if migration else None,
            service=ServiceConfig.from_dict(service) if service else None,
            dfrs=DFRSConfig.from_dict(dfrs) if dfrs is not None else None,
            **config,
        )
    )


def _attach_obs(result: dict, world: CloudWorld) -> dict:
    """Fold observability outputs into a scenario result.

    Only adds keys when the corresponding layer was enabled, so results of
    plain runs are byte-identical with and without this call (the traced-run
    bit-identity regression tests compare everything *except* these keys).

    A violation the migration engine (SAN007) or the DFRS controller
    (SAN009) found with no sanitizer attached fails the cell as in a
    sanitized run (:class:`~repro.analysis.sanitizer.SanitizerViolationError`).
    """
    found = [Violation(code, world.sim.now, message)
             for code, layer in ((SimSanitizer.MIGRATION, world.migration_engine),
                                 (SimSanitizer.DFRS, world.dfrs))
             if layer is not None for message in layer.violations]
    if found:
        raise SanitizerViolationError(found)
    if world.tracelog is not None:
        result["trace"] = world.tracelog.summary(include_records=True)
    if world.profiler is not None:
        result["profile"] = world.profiler.report()
    if world.fault_injector is not None:
        result["faults"] = world.fault_injector.stats
    if world.migration_engine is not None:
        result["migration"] = world.migration_engine.stats
    if world.rebalancer is not None:
        result["rebalancer"] = world.rebalancer.stats
    if world.service is not None:
        result["service"] = world.service.stats
    if world.dfrs is not None:
        result["dfrs"] = world.dfrs.stats
    return result


def run_type_a(
    app_name: str,
    scheduler: str,
    n_nodes: int,
    rounds: int = 2,
    warmup_rounds: int = 1,
    n_vclusters: int = 4,
    npb_class: str = "B",
    seed: int = 0,
    vcpus_per_vm: int = 8,
    horizon_s: float = 300.0,
    uniform_slice_ms: Optional[float] = None,
    **world_opts,
) -> dict:
    """Evaluation type A (Figs. 1, 10): four identical virtual clusters,
    one VM per node each, all running ``app_name``.

    ``uniform_slice_ms`` forces a static guest slice: under CR, one point
    of the slice sweeps (Figs. 5, 8, Eq. 1), and the ``repro trace`` CLI.
    """
    world = _world(
        n_nodes, scheduler, seed, vcpus_per_vm=vcpus_per_vm,
        uniform_slice_ns=None if uniform_slice_ms is None else ns_from_ms(uniform_slice_ms),
        **world_opts,
    )
    apps = []
    for k in range(n_vclusters):
        vc = world.virtual_cluster(n_vms=n_nodes, name=f"vc{k}")
        apps.append(
            world.add_npb(app_name, vc.vms, rounds=rounds, warmup_rounds=warmup_rounds, npb_class=npb_class)
        )
    world.run(horizon_ns=round(horizon_s * SEC))
    times = [t for a in apps for t in a.round_times]
    spin = [vm.kernel.avg_spin_ns for vm in world.vms]
    return _attach_obs(
        {
            "scheduler": scheduler,
            "app": app_name,
            "n_nodes": n_nodes,
            "mean_round_ns": mean(times),
            "rounds_measured": len(times),
            "all_done": world.all_apps_done,
            "avg_spin_ns": mean(spin),
            "cluster": cluster_stats(world.cluster),
            "sim_time_ns": world.sim.now,
            "events": world.sim.events_processed,
        },
        world,
    )


def run_table1_cell(
    scheduler: str = "ATC",
    seed: int = 0,
    horizon_s: float = 2.0,
    n_nodes: int = 32,
    **world_opts,
) -> dict:
    """One full-scale Table-I trace cell: the paper's exact 32-node /
    256-core evaluation-type-B platform (Section IV-B2).

    Uses :func:`repro.workloads.traces.paper_vc_mix` — one 256-VCPU
    virtual cluster, two 128s, three 64s, one 32 and three 16s (90 VMs)
    plus 30 independent 8-VCPU VMs: 128 VMs on 32 nodes, 4 VMs/node.
    This is the cell the perf work targets: it only fits a CI job
    because the engine overhead per event is low enough.  ``horizon_s``
    bounds the simulated time; the default 2 s is long enough for the
    virtual clusters to finish rounds (the ``table1`` grid).
    """
    mix = paper_vc_mix()
    world = _world(
        n_nodes, scheduler, seed, vcpus_per_vm=mix.vcpus_per_vm, vms_per_node=4,
        **world_opts,
    )
    rng = world.rng.substream(999)
    vc_apps = []
    for i, size in enumerate(mix.cluster_sizes_vms):
        vc = world.virtual_cluster(n_vms=size, name=f"VC{i + 1}")
        app_name = rng.choice(NPB_NAMES)
        vc_apps.append((vc, world.add_npb(app_name, vc.vms, rounds=None, warmup_rounds=1)))
    indep_apps = []
    for j in range(mix.independent_vms):
        vm = world.new_vm(name=f"ind{j}")
        indep_apps.append(world.add_npb(rng.choice(["lu", "is"]), [vm], rounds=None, warmup_rounds=1))
    world.run(horizon_ns=round(horizon_s * SEC))
    return _attach_obs({
        "scheduler": scheduler,
        "n_nodes": n_nodes,
        "n_vms": len(world.vms),
        "total_vcpus": sum(len(vm.vcpus) for vm in world.vms),
        "vcs": [
            {
                "vc": vc.name,
                "n_vms": vc.n_vms,
                "app": app.spec.name,
                "mean_round_ns": app.mean_round_ns,
                "rounds": len(app.round_times),
            }
            for vc, app in vc_apps
        ],
        "independent_rounds": sum(len(a.round_times) for a in indep_apps),
        "sim_time_ns": world.sim.now,
        "events": world.sim.events_processed,
    }, world)


def run_small_mix(
    scheduler: str,
    seed: int = 0,
    horizon_s: float = 8.0,
    uniform_slice_ms: Optional[float] = None,
    parallel_app: str = "lu",
    atc_np_slice_ms: Optional[float] = None,
    **world_opts,
) -> dict:
    """Section II-A2 platform (Figs. 2 and 9): two nodes, four VMs each;
    three two-VM virtual clusters run ``parallel_app`` in the background,
    the remaining two VMs host bonnie++, sphinx3, stream and ping.

    ``uniform_slice_ms`` reproduces Fig. 9's static sweep (CR only);
    ``atc_np_slice_ms`` sets the administrator slice for non-parallel VMs
    under ATC (the ATC(6ms) variant of Section IV-C).
    """
    world = _world(
        2, scheduler, seed,
        uniform_slice_ns=None if uniform_slice_ms is None else ns_from_ms(uniform_slice_ms),
        **world_opts,
    )
    bg_apps = []
    for k in range(3):
        vc = world.virtual_cluster(n_vms=2, name=f"vc{k}")
        bg_apps.append(world.add_npb(parallel_app, vc.vms, rounds=None, warmup_rounds=1))
    np1 = world.new_vm(node_idx=0, name="np0")
    np2 = world.new_vm(node_idx=1, name="np1")
    if atc_np_slice_ms is not None:
        np1.admin_slice_ns = ns_from_ms(atc_np_slice_ms)
        np2.admin_slice_ns = ns_from_ms(atc_np_slice_ms)
    if uniform_slice_ms is not None:
        np1.slice_ns = ns_from_ms(uniform_slice_ms)
        np2.slice_ns = ns_from_ms(uniform_slice_ms)
    sphinx = world.add_cpu_app("sphinx3", np1)
    stream = world.add_stream(np1)
    bonnie = world.add_bonnie(np2)
    ping = world.add_ping(np1, np2)
    world.run(horizon_ns=round(horizon_s * SEC))
    return _attach_obs(
        {
            "scheduler": scheduler,
            "uniform_slice_ms": uniform_slice_ms,
            "sphinx3_mean_run_ns": sphinx.mean_run_ns,
            "stream_bandwidth_Bps": stream.bandwidth_Bps,
            "bonnie_throughput_Bps": bonnie.throughput_Bps,
            "ping_mean_rtt_ns": ping.mean_rtt_ns,
            "ping_samples": len(ping.rtts),
            "parallel_mean_round_ns": mean([t for a in bg_apps for t in a.round_times]),
            "sim_time_ns": world.sim.now,
            "events": world.sim.events_processed,
        },
        world,
    )


def _scaled_vc_mix(world: CloudWorld, rng: SimRNG, reserve_vms: int = 0):
    """Build a Table-I-distributed VC mix filling the world's capacity."""
    total = world.config.n_nodes * world.config.vms_per_node - reserve_vms
    return synthesize_vc_mix(
        total, world.config.vcpus_per_vm, rng,
        min_vcpus=2 * world.config.vcpus_per_vm,
        max_vcpus=world.config.n_nodes * world.config.vcpus_per_vm,
    )


def run_type_b(
    scheduler: str,
    n_nodes: int = 8,
    seed: int = 0,
    horizon_s: float = 6.0,
    **world_opts,
) -> dict:
    """Evaluation type B (Fig. 11): LLNL-trace virtual-cluster mix, every
    cluster running a random NPB kernel repeatedly;
    independent VMs run lu.B or is.B.  Per-VC mean round times returned."""
    world = _world(n_nodes, scheduler, seed, **world_opts)
    rng = world.rng.substream(999)
    mix = _scaled_vc_mix(world, rng)
    vc_apps = []
    for i, size in enumerate(mix.cluster_sizes_vms):
        vc = world.virtual_cluster(n_vms=size, name=f"VC{i + 1}")
        app_name = rng.choice(NPB_NAMES)
        vc_apps.append((vc, world.add_npb(app_name, vc.vms, rounds=None, warmup_rounds=1)))
    indep_apps = []
    for j in range(mix.independent_vms):
        vm = world.new_vm(name=f"ind{j}")
        app_name = rng.choice(["lu", "is"])
        indep_apps.append(world.add_npb(app_name, [vm], rounds=None, warmup_rounds=1))
    world.run(horizon_ns=round(horizon_s * SEC))
    return _attach_obs({
        "scheduler": scheduler,
        "n_nodes": n_nodes,
        "vcs": [
            {
                "vc": vc.name,
                "n_vms": vc.n_vms,
                "app": app.spec.name,
                "mean_round_ns": app.mean_round_ns,
                "rounds": len(app.round_times),
            }
            for vc, app in vc_apps
        ],
        "independents": [
            {"app": a.spec.name, "mean_round_ns": a.mean_round_ns, "rounds": len(a.round_times)}
            for a in indep_apps
        ],
        "sim_time_ns": world.sim.now,
        "events": world.sim.events_processed,
    }, world)


def run_type_b_mixed(
    scheduler: str,
    n_nodes: int = 8,
    seed: int = 0,
    horizon_s: float = 6.0,
    atc_np_slice_ms: Optional[float] = None,
    **world_opts,
) -> dict:
    """Section IV-C (Figs. 12-14): type B clusters plus independent VMs
    running lu/is and the non-parallel suite.  One extra node hosts the
    httperf client (the paper drives web load from separate machines)."""
    world = _world(n_nodes + 1, scheduler, seed, **world_opts)
    # keep the client node (last index) out of general placement
    world._node_vm_load[n_nodes] = world.config.vms_per_node - 1
    rng = world.rng.substream(999)

    # Reserve independent slots for the non-parallel apps (5 VMs).
    mix = _scaled_vc_mix(world, rng, reserve_vms=world.config.vms_per_node + 5)
    vc_apps = []
    for i, size in enumerate(mix.cluster_sizes_vms):
        vc = world.virtual_cluster(n_vms=size, name=f"VC{i + 1}")
        app_name = rng.choice(NPB_NAMES)
        vc_apps.append((vc, world.add_npb(app_name, vc.vms, rounds=None, warmup_rounds=1)))

    def np_vm(name):
        vm = world.new_vm(name=name)
        if atc_np_slice_ms is not None:
            vm.admin_slice_ns = ns_from_ms(atc_np_slice_ms)
        return vm

    web_vm = np_vm("web")
    cpu_vm = np_vm("speccpu")
    stream_vm = np_vm("streamvm")
    bonnie_vm = np_vm("bonnievm")
    ping_vm = np_vm("pingvm")
    client_vm = world.new_vm(node_idx=n_nodes, name="httperf-client")

    webserver = world.add_webserver(web_vm, client_vm)
    gcc = world.add_cpu_app("gcc", cpu_vm)
    bzip2 = world.add_cpu_app("bzip2", cpu_vm)
    sphinx = world.add_cpu_app("sphinx3", cpu_vm)
    stream = world.add_stream(stream_vm)
    bonnie = world.add_bonnie(bonnie_vm)
    ping = world.add_ping(ping_vm, bonnie_vm)

    # Remaining independent capacity runs lu/is, as in the paper.
    indep_apps = []
    j = 0
    while sum(world._node_vm_load[:n_nodes]) < n_nodes * world.config.vms_per_node:
        vm = world.new_vm(name=f"ind{j}")
        indep_apps.append(world.add_npb(rng.choice(["lu", "is"]), [vm], rounds=None, warmup_rounds=1))
        j += 1

    world.run(horizon_ns=round(horizon_s * SEC))
    return _attach_obs({
        "scheduler": scheduler,
        "atc_np_slice_ms": atc_np_slice_ms,
        "vcs": [
            {
                "vc": vc.name,
                "n_vms": vc.n_vms,
                "app": app.spec.name,
                "mean_round_ns": app.mean_round_ns,
                "rounds": len(app.round_times),
            }
            for vc, app in vc_apps
        ],
        "webserver_mean_response_ns": webserver.mean_response_ns,
        "gcc_mean_run_ns": gcc.mean_run_ns,
        "bzip2_mean_run_ns": bzip2.mean_run_ns,
        "sphinx3_mean_run_ns": sphinx.mean_run_ns,
        "stream_bandwidth_Bps": stream.bandwidth_Bps,
        "bonnie_throughput_Bps": bonnie.throughput_Bps,
        "ping_mean_rtt_ns": ping.mean_rtt_ns,
        "independent_mean_round_ns": mean(
            [t for a in indep_apps for t in a.round_times]
        ),
        "sim_time_ns": world.sim.now,
        "events": world.sim.events_processed,
    }, world)


def run_packet_path_probe(
    scheduler: str = "CR",
    uniform_slice_ms: Optional[float] = None,
    n_probes: int = 50,
    seed: int = 0,
    horizon_s: float = 30.0,
    background_app: str = "lu",
    **world_opts,
) -> dict:
    """Fig. 4: measure the four scheduling-wait overhead sources on the
    cross-VM packet path while parallel load keeps the hosts busy.

    Returns mean nanoseconds of: netback-tx wait (source 2), wire time,
    netback-rx wait (source 3) and guest-consume wait (source 4).
    (Source 1 — the sender's own wait to be scheduled — is folded into
    inter-send gaps and reported as send interval jitter.)
    """
    world = _world(
        2, scheduler, seed,
        uniform_slice_ns=None if uniform_slice_ms is None else ns_from_ms(uniform_slice_ms),
        **world_opts,
    )
    for k in range(3):
        vc = world.virtual_cluster(n_vms=2, name=f"vc{k}")
        world.add_npb(background_app, vc.vms, rounds=None, warmup_rounds=1)
    src = world.new_vm(node_idx=0, name="probe-src")
    dst = world.new_vm(node_idx=1, name="probe-dst")
    log: list = []
    dst.kernel.packet_log = log

    sender = src.kernel.add_process(cache_sensitivity=0.2)
    receiver = dst.kernel.add_process(cache_sensitivity=0.2)

    def send_prog():
        from repro.guest.process import sleep as sleep_seg

        for i in range(n_probes):
            yield send(dst, receiver.index, 1024, tag=i)
            yield sleep_seg(20 * MSEC)

    def recv_prog():
        while True:
            yield recv_block(1)

    sender.load_program(send_prog())
    receiver.load_program(recv_prog())
    world.background.append(_ProcPair(sender, receiver))
    world.run(horizon_ns=round(horizon_s * SEC))

    stamped = [p for p in log if p.t_consumed >= 0]
    return _attach_obs({
        "scheduler": scheduler,
        "probes": len(stamped),
        "mean_netback_tx_wait_ns": mean([p.t_netback_tx - p.t_send for p in stamped]),
        "mean_wire_ns": mean([p.t_arrive - p.t_netback_tx for p in stamped]),
        "mean_netback_rx_wait_ns": mean([p.t_delivered - p.t_arrive for p in stamped]),
        "mean_consume_wait_ns": mean([p.t_consumed - p.t_delivered for p in stamped]),
        "mean_end_to_end_ns": mean([p.t_consumed - p.t_send for p in stamped]),
        "sim_time_ns": world.sim.now,
        "events": world.sim.events_processed,
    }, world)


def run_migration_rebalance(
    policy: str = "demix",
    placement: str = "pack",
    scheduler: str = "ATC",
    n_nodes: int = 3,
    n_clusters: int = 2,
    vms_per_cluster: int = 2,
    vms_per_node: int = 4,
    vcpus_per_vm: int = 4,
    app_name: str = "lu",
    n_nonparallel: int = 1,
    seed: int = 0,
    horizon_s: float = 10.0,
    migration: Optional[dict] = None,
    **world_opts,
) -> dict:
    """Mixed-tenancy world under a live-migration rebalancing policy.

    ``n_clusters`` virtual clusters of ``vms_per_cluster`` VMs each run
    ``app_name`` in the background; ``n_nonparallel`` independent VMs run
    sphinx3.  The initial ``placement`` (typically ``"pack"``, which mixes
    clusters on shared hosts) is then revisited by the ``policy``:

    * ``"static"`` — no migration subsystem at all (baseline);
    * ``"none"``   — engine constructed but no rebalancer (bit-identity
      control: must match ``"static"`` exactly);
    * ``"demix"`` / ``"consolidate"`` / ``"evacuate"`` — live policies
      (:mod:`repro.migration.policies`).

    ``migration`` holds :class:`~repro.migration.engine.MigrationConfig`
    overrides as a JSON-friendly dict (``control_every``, ``params``...).
    """
    world = _world(
        n_nodes, scheduler, seed, vcpus_per_vm=vcpus_per_vm,
        vms_per_node=vms_per_node, placement=placement,
        migration=None if policy == "static" else {"policy": policy, **(migration or {})},
        **world_opts,
    )
    apps = []
    for k in range(n_clusters):
        vc = world.virtual_cluster(n_vms=vms_per_cluster, name=f"vc{k}")
        apps.append(world.add_npb(app_name, vc.vms, rounds=None, warmup_rounds=1))
    for j in range(n_nonparallel):
        world.add_cpu_app("sphinx3", world.new_vm(name=f"np{j}"))
    world.run(horizon_ns=round(horizon_s * SEC))
    return _attach_obs({
        "scheduler": scheduler,
        "policy": policy,
        "placement": placement,
        "app": app_name,
        "parallel_mean_round_ns": mean([t for a in apps for t in a.round_times]),
        "per_cluster_mean_round_ns": {
            f"vc{k}": apps[k].mean_round_ns for k in range(n_clusters)
        },
        "final_nodes": {vm.name: vm.node.index for vm in world.vms},
        "sim_time_ns": world.sim.now,
        "events": world.sim.events_processed,
    }, world)


def run_dfrs_compare(
    mode: str = "hybrid",
    placement: str = "pack",
    n_nodes: int = 3,
    n_clusters: int = 2,
    vms_per_cluster: int = 2,
    vms_per_node: int = 4,
    vcpus_per_vm: int = 4,
    app_name: str = "lu",
    n_nonparallel: int = 1,
    seed: int = 0,
    horizon_s: float = 10.0,
    dfrs: Optional[dict] = None,
    **world_opts,
) -> dict:
    """DFRS comparator cell: one mixed-tenancy packed world (the
    ``run_migration_rebalance`` shape) run under one point of the
    {scheduler} × {cluster allocator} design space:

    * ``"baseline"`` — plain CR, no cluster layer (the paper's default);
    * ``"atc"``      — the paper's ATC: per-VCPU adaptive time slices,
      no cluster layer;
    * ``"dfrs"``     — CR plus the DFRS controller: per-VM fractional
      caps and weights re-solved every ``solve_every`` periods from
      monitor signals (:mod:`repro.dfrs`);
    * ``"hybrid"``   — ATC *and* DFRS: intra-host slice adaptation under
      cluster-level fractional allocation;
    * ``"idle"``     — CR plus a constructed-but-disabled controller
      (``solve_every=0``): the bit-identity control, which must match
      ``"baseline"`` exactly, event count included.

    ``dfrs`` holds :class:`~repro.dfrs.controller.DFRSConfig` overrides
    as a JSON-friendly dict (``solve_every``, ``headroom``,
    ``allow_moves``...).  Results carry the same round-time keys as the
    migration scenario so benches can put all modes on one normalized
    axis.
    """
    modes = {
        "baseline": ("CR", None),
        "atc": ("ATC", None),
        "dfrs": ("CR", dict(dfrs or {})),
        "hybrid": ("ATC", dict(dfrs or {})),
        "idle": ("CR", {**(dfrs or {}), "solve_every": 0}),
    }
    try:
        scheduler, dfrs_cfg = modes[mode]
    except KeyError:
        raise ValueError(
            f"unknown dfrs_compare mode {mode!r}; choose from {sorted(modes)}"
        ) from None
    world = _world(
        n_nodes, scheduler, seed, vcpus_per_vm=vcpus_per_vm,
        vms_per_node=vms_per_node, placement=placement, dfrs=dfrs_cfg,
        **world_opts,
    )
    apps = []
    for k in range(n_clusters):
        vc = world.virtual_cluster(n_vms=vms_per_cluster, name=f"vc{k}")
        apps.append(world.add_npb(app_name, vc.vms, rounds=None, warmup_rounds=1))
    np_apps = []
    for j in range(n_nonparallel):
        np_apps.append(world.add_cpu_app("sphinx3", world.new_vm(name=f"np{j}")))
    world.run(horizon_ns=round(horizon_s * SEC))
    return _attach_obs({
        "mode": mode,
        "scheduler": scheduler,
        "placement": placement,
        "app": app_name,
        "parallel_mean_round_ns": mean([t for a in apps for t in a.round_times]),
        "per_cluster_mean_round_ns": {
            f"vc{k}": apps[k].mean_round_ns for k in range(n_clusters)
        },
        "np_mean_run_ns": mean([a.mean_run_ns for a in np_apps]),
        "final_nodes": {vm.name: vm.node.index for vm in world.vms},
        "sim_time_ns": world.sim.now,
        "events": world.sim.events_processed,
    }, world)


def run_service(
    admission: str = "fcfs-queue",
    arrival: str = "poisson",
    scheduler: str = "ATC",
    n_nodes: int = 3,
    vms_per_node: int = 4,
    vcpus_per_vm: int = 4,
    placement: str = "pack",
    rate_per_s: float = 2.0,
    max_tenants: int = 6,
    service_trace: Optional[Sequence[dict]] = None,
    min_vcpus: int = 8,
    max_vcpus: int = 16,
    rounds: int = 1,
    apps: Sequence[str] = ("lu", "is"),
    npb_class: str = "A",
    seed: int = 0,
    horizon_s: float = 30.0,
    migration: Optional[dict] = None,
    **world_opts,
) -> dict:
    """Always-on cloud service: streaming tenant arrivals under an
    online admission policy (:mod:`repro.service`).

    Tenants arrive as a Poisson process at ``rate_per_s`` (or replay
    ``service_trace``, a list of ``{"at_ms", "n_vms", "app", "rounds"}``
    dicts), draw their VM-count shape from the Table-I size distribution
    restricted to ``[min_vcpus, max_vcpus]``, and submit to ``admission``
    (one of :func:`repro.service.admission.admission_names`).  Completed
    tenants are torn down and their capacity reclaimed, so later arrivals
    reuse it.  ``admission="migration-aware"`` auto-attaches a demix
    rebalancer unless ``migration`` overrides it; the policy queues and
    kicks the rebalancer when no foreign-cluster-free placement exists.
    """
    if admission == "migration-aware" and migration is None:
        migration = {"policy": "demix"}
    service = {
        "arrival": arrival,
        "admission": admission,
        "rate_per_s": rate_per_s,
        "max_tenants": max_tenants,
        "trace": list(service_trace or ()),
        "min_vcpus": min_vcpus,
        "max_vcpus": max_vcpus,
        "rounds": rounds,
        "apps": list(apps),
        "npb_class": npb_class,
    }
    world = _world(
        n_nodes, scheduler, seed, vcpus_per_vm=vcpus_per_vm,
        vms_per_node=vms_per_node, placement=placement,
        migration=migration, service=service, **world_opts,
    )
    world.run(horizon_ns=round(horizon_s * SEC))
    return _attach_obs({
        "scheduler": scheduler,
        "admission": admission,
        "arrival": arrival,
        "n_nodes": n_nodes,
        "offered_load_per_s": rate_per_s,
        "sim_time_ns": world.sim.now,
        "events": world.sim.events_processed,
    }, world)


def run_attack(
    scheduler: str = "CR",
    hardened: bool = False,
    attack: bool = True,
    seed: int = 0,
    horizon_s: float = 6.0,
    n_nodes: int = 1,
    vcpus_per_vm: int = 4,
    victim_app: str = "lu",
    npb_class: str = "A",
    n_attack_procs: int = 4,
    boost_rate_limit: int = 2,
    slice_floor_ms: float = 6.0,
    sched_params: Optional[dict] = None,
    **world_opts,
) -> dict:
    """Adversarial-tenancy cell (DESIGN.md §15): one over-committed node
    hosting a parallel victim cluster, a non-parallel victim, and two
    attacker VMs — a yield-before-tick thief and a BOOST/tickle stormer
    (:mod:`repro.workloads.attacks`).

    Every cell — clean or attacked, hardened or not — runs the scheduler
    with Xen-faithful tick-*sampled* debiting
    (``CreditParams.tick_accounting``), the substrate the classic Zhou
    et al. attacks game, so clean/attack pairs isolate the attacker's
    effect.  ``hardened`` switches on the full mitigation set:
    ``deboost_on_yield``, a per-VM BOOST rate limit, a randomized tick
    phase (drawn off the dedicated attack substream), and — under ATC —
    the ``slice_floor_ns`` clamp on Algorithm 2.

    ``attack=False`` keeps the identical tenancy shape (the attacker VMs
    exist but stay idle, their VCPUs never wake) and constructs no
    attacker apps, so clean cells draw zero attack entropy.  The CLI /
    bench derive *victim slowdown* (attacked / clean mean round) and
    *attacker gain* (``cpu_consumed_ns / cpu_debited_ns``) from the
    {clean, attack} × {hardened, unhardened} grid per scheduler.
    """
    from repro.schedulers.credit import CreditParams
    from repro.workloads.attacks import ATTACK_RNG_KEY, theft_gain

    if scheduler not in ("CR", "ATC"):
        raise ValueError(f"run_attack supports CR/ATC, got {scheduler!r}")
    if sched_params is None:
        # The randomized tick phase is adversarial-layer entropy: draw it
        # off the dedicated attack substream (distinct stream key 0xF0 so
        # attacker apps and the phase never share draws), only when the
        # hardened configuration actually uses it.
        phase = 0
        if hardened:
            tick = CreditParams.tick_ns
            phase = SimRNG(seed).substream(ATTACK_RNG_KEY, 0xF0).uniform_ns(0, tick - 1)
        sched_params = dict(
            tick_accounting=True,
            deboost_on_yield=hardened,
            boost_rate_limit=boost_rate_limit if hardened else 0,
            tick_phase_ns=phase,
        )
        if scheduler == "ATC":
            sched_params["atc"] = {
                "slice_floor_ns": ns_from_ms(slice_floor_ms) if hardened else 0}
    world = _world(
        n_nodes, scheduler, seed, sched_params=sched_params,
        vcpus_per_vm=vcpus_per_vm, vms_per_node=4, **world_opts,
    )
    vc = world.virtual_cluster(n_vms=n_nodes, name="victim")
    victim = world.add_npb(victim_app, vc.vms, rounds=None, warmup_rounds=1,
                           npb_class=npb_class)
    np_vm = world.new_vm(name="np-victim")
    np_app = world.add_cpu_app("sphinx3", np_vm)
    world.add_cpu_app("gcc", np_vm)
    thief_vm = world.new_vm(name="thief")
    tickler_vm = world.new_vm(name="tickler")
    thieves = []
    ticklers = []
    if attack:
        thieves = [world.add_yield_theft(thief_vm, stream=i)
                   for i in range(n_attack_procs)]
        ticklers = [world.add_tickle_abuse(tickler_vm, stream=0x10 + i)
                    for i in range(n_attack_procs)]
    world.run(horizon_ns=round(horizon_s * SEC))
    victim_vms = list(vc.vms) + [np_vm]
    return _attach_obs({
        "scheduler": scheduler,
        "hardened": hardened,
        "attack": attack,
        "victim_app": victim_app,
        "victim_mean_round_ns": victim.mean_round_ns,
        "victim_rounds": len(victim.round_times),
        "np_mean_run_ns": np_app.mean_run_ns,
        "victim_boost_preempts_suffered": sum(
            vm.boost_preempts_suffered for vm in victim_vms
        ),
        "thief": {
            "cycles": sum(a.cycles for a in thieves),
            "cpu_consumed_ns": thief_vm.cpu_consumed_ns,
            "cpu_debited_ns": thief_vm.cpu_debited_ns,
            **theft_gain(thief_vm.cpu_consumed_ns, thief_vm.cpu_debited_ns),
        },
        "tickler": {
            "wakes": sum(a.wakes for a in ticklers),
            "boost_preempts_inflicted": tickler_vm.boost_preempts_inflicted,
            "cpu_consumed_ns": tickler_vm.cpu_consumed_ns,
            "cpu_debited_ns": tickler_vm.cpu_debited_ns,
        },
        "sim_time_ns": world.sim.now,
        "events": world.sim.events_processed,
    }, world)


class _ProcPair:
    """Adapter so raw processes can sit in ``world.background``."""

    def __init__(self, *procs) -> None:
        self.procs = procs

    def start(self) -> None:
        for p in self.procs:
            p.start()


def run_fault_probe(
    mode: str = "ok",
    seed: int = 0,
    hang_s: float = 30.0,
    horizon_ms: float = 50.0,
) -> dict:
    """Degradation-test scenario: a tiny world that can misbehave on cue.

    Modes: ``ok`` runs cleanly; ``raise`` throws (retryable failure path);
    ``exit`` kills the worker process outright (``os._exit``, so no
    exception propagates — exercises BrokenProcessPool recovery);
    ``hang`` sleeps ``hang_s`` host seconds (cell-timeout path);
    ``runaway`` floods the simulator with 1 µs self-rescheduling ticks so
    only a watchdog or the horizon stops it.
    """
    from repro.sim.engine import Simulator
    from repro.sim.units import USEC, ns_from_ms

    if mode == "raise":
        raise RuntimeError(f"fault_probe: injected failure (seed={seed})")
    if mode == "exit":
        os._exit(17)  # simulated worker crash: bypasses all exception handling
    if mode == "hang":
        time.sleep(hang_s)
    sim = Simulator()
    ticks = 0

    def tick() -> None:
        nonlocal ticks
        ticks += 1
        sim.after(1 * USEC, tick, cat="probe")

    sim.after(0, tick, cat="probe")
    sim.run(until=ns_from_ms(horizon_ms) if mode == "runaway" else ns_from_ms(1.0))
    return {
        "mode": mode,
        "seed": seed,
        "ticks": ticks,
        "sim_time_ns": sim.now,
        "events": sim.events_processed,
    }
