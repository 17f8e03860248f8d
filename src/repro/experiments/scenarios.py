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
  under live-migration rebalancing (:mod:`repro.migration`): compares
  static placements against dynamically demixed ones.
* ``run_dfrs_compare`` — design-space comparator (:mod:`repro.dfrs`):
  the same mixed-tenancy cell run under plain CR, the paper's ATC
  (per-VCPU slice control), cluster-level DFRS fractional allocation
  (per-VM caps/weights solved periodically), and the ATC+DFRS hybrid.
* ``run_service`` — always-on cloud service (:mod:`repro.service`):
  tenants arrive as a stream (Poisson or trace replay), an admission
  policy admits/queues/rejects them, and completed tenants are torn
  down with their resources reclaimed.  Compares admission policies at
  equal offered load.

Each builder's keys are declared once, in a frozen params dataclass
beside it (:class:`ScenarioParams`), and the builder is called like it,
positional or by name.  Its other keyword arguments are run-wide world
options (``sched_params``, ``sanitize``, ``trace``, ``faults``,
``tie_order``...), :class:`WorldConfig` fields it hands to :func:`_world`
unchanged, so a misspelled one raises ``TypeError`` before any
simulation.  ``sched_params`` travels as a JSON dict of the scheduler's
parameter fields (``{"boost": false}``, ``{"atc": {"trend_policy":
"prose"}}``), which :func:`_world` turns into the scheduler's
:class:`~repro.schedulers.base.SchedulerParams` subclass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Optional, Sequence, get_args, get_type_hints

from repro.experiments.harness import CloudWorld, WorldConfig
from repro.guest.process import recv_block, send
from repro.metrics.collectors import cluster_stats
from repro.metrics.summary import mean
from repro.schedulers.registry import params_class
from repro.sim.rng import SimRNG
from repro.sim.units import MSEC, SEC, ns_from_ms
from repro.workloads.npb import CLASS_SCALES, NPB_NAMES

__all__ = [
    "ScenarioParams",
    "scenario_keys",
    "normalize",
    "run_type_a",
    "run_table1_cell",
    "run_small_mix",
    "run_type_b",
    "run_type_b_mixed",
    "run_packet_path_probe",
    "run_migration_rebalance",
    "run_service",
    "run_dfrs_compare",
    "run_attack",
]


# ----------------------------------------------------------------------
# Declared keys
# ----------------------------------------------------------------------
#: Range checks of the scenario keys, by name: one per key, whichever
#: scenario declares it.  World options are checked by WorldConfig.
CHECKS: dict[str, tuple[Callable[[object], bool], str]] = {
    # a zero horizon builds the world and runs no event
    "horizon_s": (lambda s: s >= 0, ">= 0"),
    # npb_spec accepts either case
    "npb_class": (lambda c: c.upper() in CLASS_SCALES, f"one of {'/'.join(CLASS_SCALES)}"),
}

#: The config classes :func:`_world` builds from JSON, as a scenario's
#: params carry them: a dict of fields, or a fault plan's list of dicts.
_JSON_FORMS = {"SchedulerParams": dict, "FaultPlan": Sequence[dict], "MigrationConfig": dict,
               "ServiceConfig": dict, "DFRSConfig": dict}
#: WorldConfig fields no builder forwards: :func:`_world` takes the first
#: three positionally, and the hardware parameter classes have no JSON form.
_NOT_FORWARDED = ("n_nodes", "scheduler", "seed", "node_params", "net_params", "dom0_params")


class ScenarioParams:
    """One scenario's keys: a subclass's fields, with their types and
    defaults, are the keys its builder reads, range-checked by
    :data:`CHECKS`.  The builder also forwards every world option but
    those ``_world`` takes positionally and those in ``world_set``.

    A subclass becomes a frozen dataclass on first use (:func:`_declared`):
    decorating all ten at import would add ~15 ms, a fifth of a cell's
    setup.
    """

    #: WorldConfig fields the builder sets itself: not keys of the scenario.
    world_set: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for f in fields(self):
            _check(f.name, getattr(self, f.name))


def _declared(cls: type[ScenarioParams]) -> type[ScenarioParams]:
    if "__dataclass_fields__" not in cls.__dict__:
        dataclass(frozen=True)(cls)
    return cls


def _check(key: str, value) -> None:
    check, expect = CHECKS.get(key, (None, ""))
    if check is not None and not check(value):
        raise ValueError(f"{key} must be {expect}, got {value!r}")


def _builder(params: type[ScenarioParams]) -> Callable[[Callable], Callable[..., dict]]:
    """Make ``body(p, **world_opts)`` a builder called like ``params``, its
    other keywords world options; the builder's ``params`` is the class."""

    def wrap(body: Callable[..., dict]) -> Callable[..., dict]:
        @functools.wraps(body)
        def build(*args, **kwargs) -> dict:
            keys = _declared(params).__dataclass_fields__
            own = {k: kwargs.pop(k) for k in [*kwargs] if k in keys}
            return body(params(*args, **own), **kwargs)

        build.params = params
        return build

    return wrap


@functools.cache
def scenario_keys(params: type[ScenarioParams]) -> dict[str, object]:
    """Every key of a scenario and its type: its params fields, then the
    world options its builder forwards, typed as its params carry them."""
    hints = get_type_hints(_declared(params))
    keys = {f.name: hints[f.name] for f in fields(params)}
    hints = get_type_hints(WorldConfig, localns=_JSON_FORMS)
    keys.update((f.name, hints[f.name]) for f in fields(WorldConfig)
                if f.name not in (*keys, *_NOT_FORWARDED, *params.world_set))
    return keys


def normalize(params: type[ScenarioParams], values: Mapping) -> dict:
    """``values`` as a cell of the scenario keeps them: the same keys, an
    int where a float is declared made that float.  :class:`ValueError`
    for an unknown key or an out-of-range value, by :data:`CHECKS` or by
    :class:`WorldConfig`'s checks of the world keys."""
    keys = scenario_keys(params)
    out = {}
    for key, value in values.items():
        if key not in keys:
            raise ValueError(f"unknown key {key!r}")
        floats = type(value) is int and float in (keys[key], *get_args(keys[key]))
        out[key] = float(value) if floats else value
        _check(key, out[key])
    WorldConfig(**{k: v for k, v in out.items() if k in WorldConfig.__dataclass_fields__})
    return out


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
    # is a WorldConfig field.  A subsystem's config class is imported only
    # when its dict is given.
    if sched_params is not None:
        config["sched_params"] = params_class(scheduler).from_dict(sched_params)
    if faults:
        from repro.faults.plan import FaultPlan

        config["faults"] = FaultPlan.from_dicts(faults)
    if migration:
        from repro.migration.engine import MigrationConfig

        config["migration"] = MigrationConfig.from_dict(migration)
    if service:
        from repro.service.service import ServiceConfig

        config["service"] = ServiceConfig.from_dict(service)
    if dfrs is not None:
        from repro.dfrs.controller import DFRSConfig

        config["dfrs"] = DFRSConfig.from_dict(dfrs)
    return CloudWorld(WorldConfig(n_nodes=n_nodes, scheduler=scheduler, seed=seed, **config))


def _attach_obs(result: dict, world: CloudWorld) -> dict:
    """End a scenario result with the world's simulated time and event
    count, then fold in its observability outputs.

    Only adds keys when the corresponding layer was enabled, so results of
    plain runs are byte-identical with and without this call (the traced-run
    bit-identity regression tests compare everything *except* these keys).

    A violation the migration engine (SAN007) or the DFRS controller
    (SAN009) found with no sanitizer attached fails the cell as in a
    sanitized run (:class:`~repro.analysis.sanitizer.SanitizerViolationError`).
    """
    if any(layer is not None and layer.violations
           for layer in (world.migration_engine, world.dfrs)):
        from repro.analysis.sanitizer import SanitizerViolationError, SimSanitizer, Violation

        raise SanitizerViolationError([
            Violation(code, world.sim.now, message)
            for code, layer in ((SimSanitizer.MIGRATION, world.migration_engine),
                                (SimSanitizer.DFRS, world.dfrs))
            if layer is not None for message in layer.violations])
    result["sim_time_ns"] = world.sim.now
    result["events"] = world.sim.events_processed
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


class TypeAParams(ScenarioParams):
    app_name: str
    scheduler: str
    n_nodes: int
    rounds: int = 2
    warmup_rounds: int = 1
    n_vclusters: int = 4
    npb_class: str = "B"
    seed: int = 0
    vcpus_per_vm: int = 8
    horizon_s: float = 300.0
    uniform_slice_ms: Optional[float] = None
    world_set = ("uniform_slice_ns",)


@_builder(TypeAParams)
def run_type_a(p: TypeAParams, **world_opts) -> dict:
    """Evaluation type A (Figs. 1, 10): four identical virtual clusters,
    one VM per node each, all running ``app_name``.

    ``uniform_slice_ms`` forces a static guest slice: under CR, one point
    of the slice sweeps (Figs. 5, 8, Eq. 1), and the ``repro trace`` CLI.
    """
    world = _world(
        p.n_nodes, p.scheduler, p.seed, vcpus_per_vm=p.vcpus_per_vm,
        uniform_slice_ns=None if p.uniform_slice_ms is None else ns_from_ms(p.uniform_slice_ms),
        **world_opts,
    )
    apps = []
    for k in range(p.n_vclusters):
        vc = world.virtual_cluster(n_vms=p.n_nodes, name=f"vc{k}")
        apps.append(
            world.add_npb(p.app_name, vc.vms, rounds=p.rounds, warmup_rounds=p.warmup_rounds, npb_class=p.npb_class)
        )
    world.run(horizon_ns=round(p.horizon_s * SEC))
    times = [t for a in apps for t in a.round_times]
    spin = [vm.kernel.avg_spin_ns for vm in world.vms]
    return _attach_obs({
        "scheduler": p.scheduler,
        "app": p.app_name,
        "n_nodes": p.n_nodes,
        "mean_round_ns": mean(times),
        "rounds_measured": len(times),
        "all_done": world.all_apps_done,
        "avg_spin_ns": mean(spin),
        "cluster": cluster_stats(world.cluster),
    }, world)


class Table1CellParams(ScenarioParams):
    scheduler: str = "ATC"
    seed: int = 0
    horizon_s: float = 2.0
    n_nodes: int = 32
    world_set = ("vcpus_per_vm", "vms_per_node")


@_builder(Table1CellParams)
def run_table1_cell(p: Table1CellParams, **world_opts) -> dict:
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
    from repro.workloads.traces import paper_vc_mix

    mix = paper_vc_mix()
    world = _world(
        p.n_nodes, p.scheduler, p.seed, vcpus_per_vm=mix.vcpus_per_vm, vms_per_node=4,
        **world_opts,
    )
    rng = world.rng.substream(999)
    vc_apps = _vc_apps(world, rng, mix.cluster_sizes_vms)
    indep_apps = [_independent(world, rng, j) for j in range(mix.independent_vms)]
    world.run(horizon_ns=round(p.horizon_s * SEC))
    return _attach_obs({
        "scheduler": p.scheduler,
        "n_nodes": p.n_nodes,
        "n_vms": len(world.vms),
        "total_vcpus": sum(len(vm.vcpus) for vm in world.vms),
        "vcs": _vc_rows(vc_apps),
        "independent_rounds": sum(len(a.round_times) for a in indep_apps),
    }, world)


class SmallMixParams(ScenarioParams):
    scheduler: str
    seed: int = 0
    horizon_s: float = 8.0
    uniform_slice_ms: Optional[float] = None
    parallel_app: str = "lu"
    atc_np_slice_ms: Optional[float] = None
    world_set = ("uniform_slice_ns",)


@_builder(SmallMixParams)
def run_small_mix(p: SmallMixParams, **world_opts) -> dict:
    """Section II-A2 platform (Figs. 2 and 9): two nodes, four VMs each;
    three two-VM virtual clusters run ``parallel_app`` in the background,
    the remaining two VMs host bonnie++, sphinx3, stream and ping.

    ``uniform_slice_ms`` reproduces Fig. 9's static sweep (CR only);
    ``atc_np_slice_ms`` sets the administrator slice for non-parallel VMs
    under ATC (the ATC(6ms) variant of Section IV-C).
    """
    world = _world(
        2, p.scheduler, p.seed,
        uniform_slice_ns=None if p.uniform_slice_ms is None else ns_from_ms(p.uniform_slice_ms),
        **world_opts,
    )
    bg_apps = []
    for k in range(3):
        vc = world.virtual_cluster(n_vms=2, name=f"vc{k}")
        bg_apps.append(world.add_npb(p.parallel_app, vc.vms, rounds=None, warmup_rounds=1))
    np1 = world.new_vm(node_idx=0, name="np0")
    np2 = world.new_vm(node_idx=1, name="np1")
    for vm in (np1, np2):
        if p.atc_np_slice_ms is not None:
            vm.admin_slice_ns = ns_from_ms(p.atc_np_slice_ms)
        if p.uniform_slice_ms is not None:
            vm.slice_ns = ns_from_ms(p.uniform_slice_ms)
    sphinx = world.add_cpu_app("sphinx3", np1)
    stream = world.add_stream(np1)
    bonnie = world.add_bonnie(np2)
    ping = world.add_ping(np1, np2)
    world.run(horizon_ns=round(p.horizon_s * SEC))
    return _attach_obs({
        "scheduler": p.scheduler,
        "uniform_slice_ms": p.uniform_slice_ms,
        "sphinx3_mean_run_ns": sphinx.mean_run_ns,
        "stream_bandwidth_Bps": stream.bandwidth_Bps,
        "bonnie_throughput_Bps": bonnie.throughput_Bps,
        "ping_mean_rtt_ns": ping.mean_rtt_ns,
        "ping_samples": len(ping.rtts),
        "parallel_mean_round_ns": mean([t for a in bg_apps for t in a.round_times]),
    }, world)


def _vc_apps(world: CloudWorld, rng: SimRNG, sizes: Sequence[int]) -> list[tuple]:
    """One virtual cluster per size, each repeating an NPB kernel drawn
    from ``rng``: ``(cluster, app)`` pairs."""
    vc_apps = []
    for i, size in enumerate(sizes):
        vc = world.virtual_cluster(n_vms=size, name=f"VC{i + 1}")
        vc_apps.append((vc, world.add_npb(rng.choice(NPB_NAMES), vc.vms, rounds=None,
                                          warmup_rounds=1)))
    return vc_apps


def _independent(world: CloudWorld, rng: SimRNG, j: int):
    """Independent VM ``j``, repeating lu or is as drawn from ``rng``."""
    vm = world.new_vm(name=f"ind{j}")
    return world.add_npb(rng.choice(["lu", "is"]), [vm], rounds=None, warmup_rounds=1)


def _vc_rows(vc_apps: list[tuple]) -> list[dict]:
    """Each virtual cluster's size, kernel and round times."""
    return [{"vc": vc.name, "n_vms": vc.n_vms, "app": app.spec.name,
             "mean_round_ns": app.mean_round_ns, "rounds": len(app.round_times)}
            for vc, app in vc_apps]


def _scaled_vc_mix(world: CloudWorld, rng: SimRNG, reserve_vms: int = 0):
    """Build a Table-I-distributed VC mix filling the world's capacity."""
    from repro.workloads.traces import synthesize_vc_mix

    total = world.config.n_nodes * world.config.vms_per_node - reserve_vms
    return synthesize_vc_mix(
        total, world.config.vcpus_per_vm, rng,
        min_vcpus=2 * world.config.vcpus_per_vm,
        max_vcpus=world.config.n_nodes * world.config.vcpus_per_vm,
    )


class TypeBParams(ScenarioParams):
    scheduler: str
    n_nodes: int = 8
    seed: int = 0
    horizon_s: float = 6.0


@_builder(TypeBParams)
def run_type_b(p: TypeBParams, **world_opts) -> dict:
    """Evaluation type B (Fig. 11): LLNL-trace virtual-cluster mix, every
    cluster running a random NPB kernel repeatedly;
    independent VMs run lu.B or is.B.  Per-VC mean round times returned."""
    world = _world(p.n_nodes, p.scheduler, p.seed, **world_opts)
    rng = world.rng.substream(999)
    mix = _scaled_vc_mix(world, rng)
    vc_apps = _vc_apps(world, rng, mix.cluster_sizes_vms)
    indep_apps = [_independent(world, rng, j) for j in range(mix.independent_vms)]
    world.run(horizon_ns=round(p.horizon_s * SEC))
    return _attach_obs({
        "scheduler": p.scheduler,
        "n_nodes": p.n_nodes,
        "vcs": _vc_rows(vc_apps),
        "independents": [
            {"app": a.spec.name, "mean_round_ns": a.mean_round_ns, "rounds": len(a.round_times)}
            for a in indep_apps
        ],
    }, world)


class TypeBMixedParams(ScenarioParams):
    scheduler: str
    n_nodes: int = 8
    seed: int = 0
    horizon_s: float = 6.0
    atc_np_slice_ms: Optional[float] = None


@_builder(TypeBMixedParams)
def run_type_b_mixed(p: TypeBMixedParams, **world_opts) -> dict:
    """Section IV-C (Figs. 12-14): type B clusters plus independent VMs
    running lu/is and the non-parallel suite.  One extra node hosts the
    httperf client (the paper drives web load from separate machines)."""
    world = _world(p.n_nodes + 1, p.scheduler, p.seed, **world_opts)
    # keep the client node (last index) out of general placement
    world._node_vm_load[p.n_nodes] = world.config.vms_per_node - 1
    rng = world.rng.substream(999)

    # Reserve independent slots for the non-parallel apps (5 VMs).
    mix = _scaled_vc_mix(world, rng, reserve_vms=world.config.vms_per_node + 5)
    vc_apps = _vc_apps(world, rng, mix.cluster_sizes_vms)

    def np_vm(name):
        vm = world.new_vm(name=name)
        if p.atc_np_slice_ms is not None:
            vm.admin_slice_ns = ns_from_ms(p.atc_np_slice_ms)
        return vm

    web_vm = np_vm("web")
    cpu_vm = np_vm("speccpu")
    stream_vm = np_vm("streamvm")
    bonnie_vm = np_vm("bonnievm")
    ping_vm = np_vm("pingvm")
    client_vm = world.new_vm(node_idx=p.n_nodes, name="httperf-client")

    webserver = world.add_webserver(web_vm, client_vm)
    gcc = world.add_cpu_app("gcc", cpu_vm)
    bzip2 = world.add_cpu_app("bzip2", cpu_vm)
    sphinx = world.add_cpu_app("sphinx3", cpu_vm)
    stream = world.add_stream(stream_vm)
    bonnie = world.add_bonnie(bonnie_vm)
    ping = world.add_ping(ping_vm, bonnie_vm)

    # Remaining independent capacity runs lu/is, as in the paper.
    indep_apps = []
    while sum(world._node_vm_load[:p.n_nodes]) < p.n_nodes * world.config.vms_per_node:
        indep_apps.append(_independent(world, rng, len(indep_apps)))

    world.run(horizon_ns=round(p.horizon_s * SEC))
    return _attach_obs({
        "scheduler": p.scheduler,
        "atc_np_slice_ms": p.atc_np_slice_ms,
        "vcs": _vc_rows(vc_apps),
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
    }, world)


class PacketPathProbeParams(ScenarioParams):
    scheduler: str = "CR"
    uniform_slice_ms: Optional[float] = None
    n_probes: int = 50
    seed: int = 0
    horizon_s: float = 30.0
    background_app: str = "lu"
    world_set = ("uniform_slice_ns",)


@_builder(PacketPathProbeParams)
def run_packet_path_probe(p: PacketPathProbeParams, **world_opts) -> dict:
    """Fig. 4: measure the four scheduling-wait overhead sources on the
    cross-VM packet path while parallel load keeps the hosts busy.

    Returns mean nanoseconds of: netback-tx wait (source 2), wire time,
    netback-rx wait (source 3) and guest-consume wait (source 4).
    (Source 1 — the sender's own wait to be scheduled — is folded into
    inter-send gaps and reported as send interval jitter.)
    """
    world = _world(
        2, p.scheduler, p.seed,
        uniform_slice_ns=None if p.uniform_slice_ms is None else ns_from_ms(p.uniform_slice_ms),
        **world_opts,
    )
    for k in range(3):
        vc = world.virtual_cluster(n_vms=2, name=f"vc{k}")
        world.add_npb(p.background_app, vc.vms, rounds=None, warmup_rounds=1)
    src = world.new_vm(node_idx=0, name="probe-src")
    dst = world.new_vm(node_idx=1, name="probe-dst")
    log: list = []
    dst.kernel.packet_log = log

    sender = src.kernel.add_process(cache_sensitivity=0.2)
    receiver = dst.kernel.add_process(cache_sensitivity=0.2)

    def send_prog():
        from repro.guest.process import sleep as sleep_seg

        for i in range(p.n_probes):
            yield send(dst, receiver.index, 1024, tag=i)
            yield sleep_seg(20 * MSEC)

    def recv_prog():
        while True:
            yield recv_block(1)

    sender.load_program(send_prog())
    receiver.load_program(recv_prog())
    world.background += (sender, receiver)
    world.run(horizon_ns=round(p.horizon_s * SEC))

    stamped = [pkt for pkt in log if pkt.t_consumed >= 0]
    return _attach_obs({
        "scheduler": p.scheduler,
        "probes": len(stamped),
        "mean_netback_tx_wait_ns": mean([pkt.t_netback_tx - pkt.t_send for pkt in stamped]),
        "mean_wire_ns": mean([pkt.t_arrive - pkt.t_netback_tx for pkt in stamped]),
        "mean_netback_rx_wait_ns": mean([pkt.t_delivered - pkt.t_arrive for pkt in stamped]),
        "mean_consume_wait_ns": mean([pkt.t_consumed - pkt.t_delivered for pkt in stamped]),
        "mean_end_to_end_ns": mean([pkt.t_consumed - pkt.t_send for pkt in stamped]),
    }, world)


def _tenants(world: CloudWorld, p) -> tuple[list, list]:
    """The migration and DFRS cells' tenants: ``n_clusters`` clusters of
    ``vms_per_cluster`` VMs repeating ``app_name``, then ``n_nonparallel``
    VMs running sphinx3.  Returns both kinds' apps."""
    apps = []
    for k in range(p.n_clusters):
        vc = world.virtual_cluster(n_vms=p.vms_per_cluster, name=f"vc{k}")
        apps.append(world.add_npb(p.app_name, vc.vms, rounds=None, warmup_rounds=1))
    return apps, [world.add_cpu_app("sphinx3", world.new_vm(name=f"np{j}"))
                  for j in range(p.n_nonparallel)]


def _tenant_rounds(p, apps: list) -> dict:
    return {"placement": p.placement, "app": p.app_name,
            "parallel_mean_round_ns": mean([t for a in apps for t in a.round_times]),
            "per_cluster_mean_round_ns": {f"vc{k}": a.mean_round_ns for k, a in enumerate(apps)}}


class MigrationRebalanceParams(ScenarioParams):
    policy: str = "demix"
    placement: str = "pack"
    scheduler: str = "ATC"
    n_nodes: int = 3
    n_clusters: int = 2
    vms_per_cluster: int = 2
    vms_per_node: int = 4
    vcpus_per_vm: int = 4
    app_name: str = "lu"
    n_nonparallel: int = 1
    seed: int = 0
    horizon_s: float = 10.0
    migration: Optional[dict] = None


@_builder(MigrationRebalanceParams)
def run_migration_rebalance(p: MigrationRebalanceParams, **world_opts) -> dict:
    """Mixed-tenancy world under a live-migration rebalancing policy.

    ``n_clusters`` virtual clusters of ``vms_per_cluster`` VMs each run
    ``app_name`` in the background; ``n_nonparallel`` independent VMs run
    sphinx3.  The initial ``placement`` (typically ``"pack"``, which mixes
    clusters on shared hosts) is then revisited by the ``policy``:

    * ``"static"`` — no migration subsystem at all (baseline);
    * ``"none"``   — engine constructed but no rebalancer (bit-identity
      control: must match ``"static"`` exactly);
    * ``"demix"``  — the live rebalancer
      (:func:`repro.migration.policies.demix`).

    ``migration`` holds :class:`~repro.migration.engine.MigrationConfig`
    overrides as a JSON-friendly dict (``control_every``, ``params``...).
    """
    world = _world(
        p.n_nodes, p.scheduler, p.seed, vcpus_per_vm=p.vcpus_per_vm,
        vms_per_node=p.vms_per_node, placement=p.placement,
        migration=None if p.policy == "static" else {"policy": p.policy, **(p.migration or {})},
        **world_opts,
    )
    apps, _ = _tenants(world, p)
    world.run(horizon_ns=round(p.horizon_s * SEC))
    return _attach_obs({
        "scheduler": p.scheduler,
        "policy": p.policy,
        **_tenant_rounds(p, apps),
        "final_nodes": {vm.name: vm.node.index for vm in world.vms},
    }, world)


class DFRSCompareParams(ScenarioParams):
    mode: str = "hybrid"
    placement: str = "pack"
    n_nodes: int = 3
    n_clusters: int = 2
    vms_per_cluster: int = 2
    vms_per_node: int = 4
    vcpus_per_vm: int = 4
    app_name: str = "lu"
    n_nonparallel: int = 1
    seed: int = 0
    horizon_s: float = 10.0
    dfrs: Optional[dict] = None


@_builder(DFRSCompareParams)
def run_dfrs_compare(p: DFRSCompareParams, **world_opts) -> dict:
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
    as a JSON-friendly dict (``solve_every``, ``headroom``).  Results
    carry the same round-time keys as the migration scenario so benches
    can put all modes on one normalized axis.
    """
    modes = {
        "baseline": ("CR", None),
        "atc": ("ATC", None),
        "dfrs": ("CR", dict(p.dfrs or {})),
        "hybrid": ("ATC", dict(p.dfrs or {})),
        "idle": ("CR", {**(p.dfrs or {}), "solve_every": 0}),
    }
    try:
        scheduler, dfrs_cfg = modes[p.mode]
    except KeyError:
        raise ValueError(
            f"unknown dfrs_compare mode {p.mode!r}; choose from {sorted(modes)}"
        ) from None
    world = _world(
        p.n_nodes, scheduler, p.seed, vcpus_per_vm=p.vcpus_per_vm,
        vms_per_node=p.vms_per_node, placement=p.placement, dfrs=dfrs_cfg,
        **world_opts,
    )
    apps, np_apps = _tenants(world, p)
    world.run(horizon_ns=round(p.horizon_s * SEC))
    return _attach_obs({
        "mode": p.mode,
        "scheduler": scheduler,
        **_tenant_rounds(p, apps),
        "np_mean_run_ns": mean([a.mean_run_ns for a in np_apps]),
        "final_nodes": {vm.name: vm.node.index for vm in world.vms},
    }, world)


class ServiceParams(ScenarioParams):
    admission: str = "fcfs-queue"
    arrival: str = "poisson"
    scheduler: str = "ATC"
    n_nodes: int = 3
    vms_per_node: int = 4
    vcpus_per_vm: int = 4
    placement: str = "pack"
    rate_per_s: float = 2.0
    max_tenants: int = 6
    service_trace: Optional[Sequence[dict]] = None
    min_vcpus: int = 8
    max_vcpus: int = 16
    rounds: int = 1
    apps: Sequence[str] = ("lu", "is")
    npb_class: str = "A"
    seed: int = 0
    horizon_s: float = 30.0
    migration: Optional[dict] = None
    world_set = ("service",)


@_builder(ServiceParams)
def run_service(p: ServiceParams, **world_opts) -> dict:
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
    migration = p.migration
    if p.admission == "migration-aware" and migration is None:
        migration = {"policy": "demix"}
    service = {
        "arrival": p.arrival,
        "admission": p.admission,
        "rate_per_s": p.rate_per_s,
        "max_tenants": p.max_tenants,
        "trace": list(p.service_trace or ()),
        "min_vcpus": p.min_vcpus,
        "max_vcpus": p.max_vcpus,
        "rounds": p.rounds,
        "apps": list(p.apps),
        "npb_class": p.npb_class,
    }
    world = _world(
        p.n_nodes, p.scheduler, p.seed, vcpus_per_vm=p.vcpus_per_vm,
        vms_per_node=p.vms_per_node, placement=p.placement,
        migration=migration, service=service, **world_opts,
    )
    world.run(horizon_ns=round(p.horizon_s * SEC))
    return _attach_obs({
        "scheduler": p.scheduler,
        "admission": p.admission,
        "arrival": p.arrival,
        "n_nodes": p.n_nodes,
        "offered_load_per_s": p.rate_per_s,
    }, world)


class AttackParams(ScenarioParams):
    scheduler: str = "CR"
    hardened: bool = False
    attack: bool = True
    seed: int = 0
    horizon_s: float = 6.0
    n_nodes: int = 1
    vcpus_per_vm: int = 4
    victim_app: str = "lu"
    npb_class: str = "A"
    n_attack_procs: int = 4
    boost_rate_limit: int = 2
    slice_floor_ms: float = 6.0
    sched_params: Optional[dict] = None
    world_set = ("vms_per_node",)


@_builder(AttackParams)
def run_attack(p: AttackParams, **world_opts) -> dict:
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

    if p.scheduler not in ("CR", "ATC"):
        raise ValueError(f"run_attack supports CR/ATC, got {p.scheduler!r}")
    sched_params = p.sched_params
    if sched_params is None:
        # The randomized tick phase is adversarial-layer entropy: draw it
        # off the dedicated attack substream (distinct stream key 0xF0 so
        # attacker apps and the phase never share draws), only when the
        # hardened configuration actually uses it.
        phase = 0
        if p.hardened:
            tick = CreditParams.tick_ns
            phase = SimRNG(p.seed).substream(ATTACK_RNG_KEY, 0xF0).uniform_ns(0, tick - 1)
        sched_params = dict(
            tick_accounting=True,
            deboost_on_yield=p.hardened,
            boost_rate_limit=p.boost_rate_limit if p.hardened else 0,
            tick_phase_ns=phase,
        )
        if p.scheduler == "ATC":
            sched_params["atc"] = {
                "slice_floor_ns": ns_from_ms(p.slice_floor_ms) if p.hardened else 0}
    world = _world(
        p.n_nodes, p.scheduler, p.seed, sched_params=sched_params,
        vcpus_per_vm=p.vcpus_per_vm, vms_per_node=4, **world_opts,
    )
    vc = world.virtual_cluster(n_vms=p.n_nodes, name="victim")
    victim = world.add_npb(p.victim_app, vc.vms, rounds=None, warmup_rounds=1,
                           npb_class=p.npb_class)
    np_vm = world.new_vm(name="np-victim")
    np_app = world.add_cpu_app("sphinx3", np_vm)
    world.add_cpu_app("gcc", np_vm)
    thief_vm = world.new_vm(name="thief")
    tickler_vm = world.new_vm(name="tickler")
    thieves = []
    ticklers = []
    if p.attack:
        thieves = [world.add_yield_theft(thief_vm, stream=i)
                   for i in range(p.n_attack_procs)]
        ticklers = [world.add_tickle_abuse(tickler_vm, stream=0x10 + i)
                    for i in range(p.n_attack_procs)]
    world.run(horizon_ns=round(p.horizon_s * SEC))
    victim_vms = list(vc.vms) + [np_vm]
    return _attach_obs({
        "scheduler": p.scheduler,
        "hardened": p.hardened,
        "attack": p.attack,
        "victim_app": p.victim_app,
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
    }, world)
