"""Always-on service layer (repro.service): arrivals, admission, teardown."""

from __future__ import annotations

import gc
import json
from dataclasses import asdict

import pytest

from repro.experiments.harness import CloudWorld, WorldConfig
from repro.experiments.runner import RunSpec, run_sweep
from repro.experiments.scenarios import from_json, run_service
from repro.faults.plan import FaultEvent, FaultPlan
from repro.service.admission import admission_names
from repro.service.arrivals import (
    SERVICE_RNG_KEY,
    PoissonArrivals,
    TraceArrivals,
    draw_tenant_shape,
)
from repro.service.service import CloudService, ServiceConfig
from repro.sim.rng import SimRNG
from repro.sim.units import MSEC, SEC


def _service_world(n_nodes=1, vms_per_node=2, seed=0, service=None, scheduler="ATC", **kw):
    return CloudWorld(
        WorldConfig(
            n_nodes=n_nodes, vms_per_node=vms_per_node, vcpus_per_vm=4,
            scheduler=scheduler, seed=seed, placement="pack", service=service, **kw,
        )
    )


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
def test_config_dict_round_trip():
    cfg = ServiceConfig(
        arrival="trace", admission="migration-aware", rate_per_s=3.5,
        max_tenants=7, trace=({"at_ms": 5.0, "app": "is"},),
        min_vcpus=8, max_vcpus=32, rounds=2, apps=("lu", "cg"),
    )
    form = json.loads(json.dumps(asdict(cfg)))
    assert from_json(ServiceConfig, form, "service") == cfg
    assert form["trace"] == [{"at_ms": 5.0, "app": "is"}]


def test_unknown_admission_and_arrival_rejected():
    with pytest.raises(ValueError, match="unknown admission policy"):
        _service_world(service=ServiceConfig(admission="bogus"))
    with pytest.raises(ValueError, match="unknown arrival process"):
        _service_world(service=ServiceConfig(arrival="bogus"))
    assert admission_names() == ["fcfs-queue", "migration-aware", "reject-on-full"]


# ----------------------------------------------------------------------
# Arrival generators: determinism and substream isolation
# ----------------------------------------------------------------------
def test_poisson_arrivals_deterministic_per_seed():
    cfg = ServiceConfig(rate_per_s=4.0, max_tenants=10)

    def timeline():
        rng = SimRNG(42).substream(SERVICE_RNG_KEY)
        arr = PoissonArrivals(cfg, rng)
        out, now = [], 0
        while (nxt := arr.next_arrival(now)) is not None:
            now = nxt[0]
            out.append(now)
        return out

    a, b = timeline(), timeline()
    assert a == b
    assert len(a) == 10
    assert all(t2 > t1 for t1, t2 in zip(a, a[1:]))


def test_idle_poisson_draws_no_rng():
    rng = SimRNG(7).substream(SERVICE_RNG_KEY)
    arr = PoissonArrivals(ServiceConfig(max_tenants=0), rng)
    assert arr.next_arrival(0) is None
    # The generator returned before touching the stream: a fresh copy of
    # the same substream produces the same next value.
    assert rng.exponential_ns(SEC) == SimRNG(7).substream(SERVICE_RNG_KEY).exponential_ns(SEC)


def test_service_substream_isolated_from_workload_streams():
    # Deriving (and draining) the service substream must not perturb the
    # sequential workload substreams of the same parent.
    a = SimRNG(3).substream(1).exponential_ns(SEC)
    parent = SimRNG(3)
    svc = parent.substream(SERVICE_RNG_KEY)
    for _ in range(100):
        svc.exponential_ns(SEC)
    assert parent.substream(1).exponential_ns(SEC) == a


def test_trace_arrivals_replay_in_time_order():
    cfg = ServiceConfig(
        arrival="trace",
        trace=(
            {"at_ms": 20.0, "app": "is", "n_vms": 1},
            {"at_ms": 5.0, "app": "lu", "n_vms": 2},
            {"at_ms": 5.0, "app": "cg", "n_vms": 1},
        ),
    )
    arr = TraceArrivals(cfg)
    seq = []
    now = 0
    while (nxt := arr.next_arrival(now)) is not None:
        now = nxt[0]
        seq.append((now, nxt[1]["app"]))
    # Sorted by at_ms, original order breaking the tie.
    assert seq == [(5 * MSEC, "lu"), (5 * MSEC, "cg"), (20 * MSEC, "is")]


def test_draw_tenant_shape_respects_window_and_pins():
    cfg = ServiceConfig(min_vcpus=8, max_vcpus=16, apps=("lu", "is"), rounds=3)
    rng = SimRNG(0).substream(SERVICE_RNG_KEY)
    for _ in range(50):
        n_vms, app, rounds = draw_tenant_shape(cfg, 4, rng)
        assert n_vms in (2, 4)  # 8 or 16 VCPUs at 4 VCPUs/VM
        assert app in ("lu", "is")
        assert rounds == 3
    # A trace entry pins every field: no draws needed at all.
    pinned = draw_tenant_shape(cfg, 4, rng, {"n_vms": 3, "app": "cg", "rounds": 1})
    assert pinned == (3, "cg", 1)
    with pytest.raises(ValueError, match="no Table I sizes"):
        draw_tenant_shape(ServiceConfig(min_vcpus=9, max_vcpus=10), 4, rng)


# ----------------------------------------------------------------------
# Bit-identity: idle layer and seeded repeats
# ----------------------------------------------------------------------
def test_idle_service_layer_is_event_identical():
    def run(service):
        w = CloudWorld(WorldConfig(n_nodes=2, scheduler="ATC", seed=3, service=service))
        vc = w.virtual_cluster(n_vms=2, name="vc0")
        app = w.add_npb("lu", vc.vms, rounds=2, warmup_rounds=1)
        w.run(horizon_ns=5 * SEC)
        return (w.sim.events_processed, w.sim.now, app.round_times)

    assert run(None) == run(ServiceConfig(max_tenants=0))


def test_seeded_service_run_is_bit_identical():
    kw = dict(admission="fcfs-queue", seed=11, rate_per_s=4.0, max_tenants=4,
              horizon_s=15.0)
    a, b = run_service(**kw), run_service(**kw)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["service"]["submitted"] == 4


def test_service_sweep_parallel_matches_serial():
    spec = RunSpec(
        "service",
        dict(admission="migration-aware", seed=5, rate_per_s=6.0, max_tenants=4,
             horizon_s=12.0),
        label="svc",
    )
    serial = run_sweep([spec], jobs=1, use_cache=False)
    parallel = run_sweep([spec], jobs=2, use_cache=False)
    assert serial[0].ok and parallel[0].ok
    assert json.dumps(serial[0].value, sort_keys=True) == json.dumps(
        parallel[0].value, sort_keys=True
    )


# ----------------------------------------------------------------------
# Admission policies
# ----------------------------------------------------------------------
def _tight_world(admission, trace):
    """1 node x 2 slots: the second 2-VM tenant can never co-run."""
    svc = ServiceConfig(arrival="trace", admission=admission, trace=tuple(trace))
    return _service_world(n_nodes=1, vms_per_node=2, service=svc)


TWO_VM = {"n_vms": 2, "app": "is", "rounds": 1}


def test_reject_on_full_rejects_and_never_queues():
    w = _tight_world(
        "reject-on-full",
        [dict(TWO_VM, at_ms=0.0), dict(TWO_VM, at_ms=1.0), dict(TWO_VM, at_ms=2.0)],
    )
    w.run(horizon_ns=10 * SEC)
    s = w.service.stats
    assert s["admitted"] == 1  # t1/t2 arrive while t0 still holds both slots
    assert s["rejected"] == 2
    assert s["queue_peak"] == 0 and s["queued_now"] == 0
    assert s["departed"] == 1


def test_fcfs_queue_drains_after_departures():
    w = _tight_world(
        "fcfs-queue",
        [dict(TWO_VM, at_ms=0.0), dict(TWO_VM, at_ms=1.0), dict(TWO_VM, at_ms=2.0)],
    )
    w.run(horizon_ns=60 * SEC)
    s = w.service.stats
    assert s["admitted"] == 3 and s["rejected"] == 0
    assert s["queue_peak"] == 2  # t1 and t2 both waited
    assert s["departed"] == 3 and s["queued_now"] == 0
    t1, t2 = s["tenants"][1], s["tenants"][2]
    assert t1["wait_ns"] > 0 and t2["wait_ns"] > 0
    assert t1["admit_ns"] <= t2["admit_ns"]  # FIFO order preserved


def test_slowdown_counts_censored_tenants():
    """Regression: the slowdown mean/max only cover *departed* tenants —
    the stats must say how many admitted tenants were still in flight
    (censored) at snapshot time, not silently fold them in as zeros."""
    w = _tight_world("fcfs-queue", [dict(TWO_VM, at_ms=0.0, rounds=10)])
    w.run(horizon_ns=100 * MSEC)  # admitted, nowhere near done
    s = w.service.stats
    assert s["admitted"] == 1 and s["departed"] == 0
    assert s["slowdown_censored"] == 1
    assert s["slowdown_mean"] == 0.0  # no completed observation yet
    w.run(horizon_ns=60 * SEC)  # let the tenant finish
    s = w.service.stats
    assert s["departed"] == 1
    assert s["slowdown_censored"] == 0
    assert s["slowdown_mean"] > 0.0


def test_migration_aware_never_mixes_and_kicks_under_pressure():
    # 2 nodes x 2 slots; three 2-VM tenants arrive back to back.  The
    # anti-mix placement spreads t0 one-VM-per-node (the paper-preferred
    # layout for a parallel cluster), so t1 finds no foreign-cluster-free
    # node: it queues, kicks the rebalancer, and only admits after t0
    # departs — tenants never share a host.
    svc = ServiceConfig(
        arrival="trace", admission="migration-aware",
        trace=(dict(TWO_VM, at_ms=0.0), dict(TWO_VM, at_ms=1.0), dict(TWO_VM, at_ms=2.0)),
    )
    from repro.migration.engine import MigrationConfig

    w = _service_world(n_nodes=2, vms_per_node=2, service=svc,
                       migration=MigrationConfig(policy="demix"))
    w.run(horizon_ns=60 * SEC)
    s = w.service.stats
    t0, t1, t2 = s["tenants"]
    assert t0["nodes"] == [0, 1]  # spread, one VM per node
    assert t1["admit_ns"] >= t0["depart_ns"]  # queued until t0 left
    assert t2["admit_ns"] >= t1["depart_ns"]
    assert s["queue_peak"] == 2
    assert s["rebalancer_kicks"] >= 1
    assert w.rebalancer.kicks == s["rebalancer_kicks"]
    assert s["departed"] == 3 and s["rejected"] == 0


# ----------------------------------------------------------------------
# Teardown reclaims everything
# ----------------------------------------------------------------------
def test_departed_tenants_leak_nothing():
    svc = ServiceConfig(
        arrival="trace", admission="fcfs-queue",
        trace=(dict(TWO_VM, at_ms=0.0), {"n_vms": 2, "app": "lu", "rounds": 1, "at_ms": 3.0}),
    )
    w = _service_world(n_nodes=2, vms_per_node=2, service=svc)
    w.run(horizon_ns=60 * SEC)
    assert w.service.departed == 2
    assert w.vms == [] and w.virtual_clusters == []
    assert w._node_vm_load == [0, 0]
    for vmm in w.vmms:
        assert vmm.vms == [vmm.dom0.vm]  # only dom0 remains on the roster
        ls = getattr(vmm.scheduler, "ls_vms", None)
        if ls is not None:
            assert not ls
        for q in getattr(vmm.scheduler, "runqs", []):
            assert not list(q)  # no orphaned tenant VCPUs queued anywhere


@pytest.mark.parametrize("scheduler", ["ATC", "CR"])
def test_departed_tenants_become_unreachable(scheduler):
    # t1 shares a host with t2 until the demix rebalancer moves it to the
    # free fourth node, so a departed VM has run on two hosts.  A second
    # after departing, no VM, VCPU or guest process of a tenant may still
    # be reachable: not through the cache history of a host it left, a
    # queued migration timer, the scheduler or the tenant record.
    from repro.guest.process import GuestProcess
    from repro.hypervisor.vm import VCPU, VM
    from repro.migration.engine import MigrationConfig

    trace = tuple(
        {"at_ms": at_ms, "n_vms": n_vms, "app": app, "rounds": rounds}
        for at_ms, n_vms, app, rounds in [
            (0.0, 2, "is", 8), (1.0, 1, "is", 40), (2.0, 2, "lu", 4),
            (3.0, 1, "is", 8), (1200.0, 2, "is", 2),
        ]
    )
    svc = ServiceConfig(arrival="trace", admission="fcfs-queue", trace=trace)
    w = _service_world(n_nodes=4, vms_per_node=2, service=svc, scheduler=scheduler,
                       migration=MigrationConfig(policy="demix"))
    w.run(horizon_ns=3 * SEC)
    assert w.migration_engine.completed >= 1
    gone = {t.name for t in w.service.tenants
            if t.depart_ns is not None and t.depart_ns <= w.sim.now - SEC}
    assert len(gone) == 5

    def tenant(obj):
        return (obj if isinstance(obj, VM) else obj.vm).name.split(".")[0]

    gc.collect()
    live = [repr(o) for o in gc.get_objects()
            if isinstance(o, (VM, VCPU, GuestProcess)) and tenant(o) in gone]
    assert live == []
    # Nor through the migration engine's cooldown map.
    assert set(w.migration_engine.last_migrated_ns) <= {vm.name for vm in w.vms}


def test_teardown_refuses_dom0():
    w = _service_world()
    with pytest.raises(ValueError, match="dom0"):
        w.teardown_vm(w.vmms[0].dom0.vm)


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def test_service_trace_kinds_emitted():
    r = run_service(admission="fcfs-queue", seed=2, rate_per_s=4.0, max_tenants=2,
                    horizon_s=15.0, trace=True)
    by_kind = r["trace"]["by_kind"]
    assert by_kind.get("service.admit", 0) >= 1
    assert by_kind.get("service.depart", 0) >= 1


def test_world_registry_exposes_service_metrics():
    """The service's one rollup, ``stats``, reads the live counters."""
    svc = ServiceConfig(arrival="trace", admission="fcfs-queue",
                        trace=(dict(TWO_VM, at_ms=0.0),))
    w = _service_world(n_nodes=1, vms_per_node=2, service=svc)
    w.run(horizon_ns=30 * SEC)
    s = w.service.stats
    assert s["departed"] == 1
    assert s["submitted"] == 1
    assert s["queued_now"] == 0


# ----------------------------------------------------------------------
# Fault targeting tolerates churn (satellite fix)
# ----------------------------------------------------------------------
def test_vm_pause_on_departed_vm_is_skipped_not_fatal():
    svc = ServiceConfig(arrival="trace", admission="fcfs-queue",
                        trace=(dict(TWO_VM, at_ms=0.0),))
    plan = FaultPlan((
        # Names a VM that never exists -> skip, not KeyError/ValueError.
        FaultEvent(kind="vm_pause", at_ns=1 * MSEC, node=0, vm="ghost",
                   duration_ns=5 * MSEC),
        # Fires long after the only tenant departed: no guest on the node.
        FaultEvent(kind="vm_pause", at_ns=25 * SEC, node=0,
                   duration_ns=5 * MSEC),
    ))
    w = _service_world(n_nodes=1, vms_per_node=2, service=svc, faults=plan)
    w.run(horizon_ns=30 * SEC)
    assert w.service.departed == 1
    stats = w.fault_injector.stats
    assert stats["skipped"] == {"vm_pause": 2}
    assert stats["injected"] == {"vm_pause": 2}  # still counted as fired
