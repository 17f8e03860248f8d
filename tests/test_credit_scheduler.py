"""Tests for the Credit scheduler model (CR)."""

from hypothesis import given, settings, strategies as st

from repro.guest.process import compute
from repro.hypervisor.vm import VCPUState, VM
from repro.schedulers.base import PRIO_BOOST, PRIO_OVER, PRIO_UNDER
from repro.schedulers.credit import CreditParams, CreditScheduler
from repro.sim.units import MSEC, USEC

from tests.conftest import add_guest_vm, make_node_world


def spin_forever():
    while True:
        yield compute(10 * MSEC)


def start_hog(vm, n=None):
    for i in range(n if n is not None else len(vm.vcpus)):
        p = vm.kernel.add_process()
        p.load_program(spin_forever())
        p.start()


def test_default_slice_is_30ms():
    assert CreditParams().slice_ns == 30 * MSEC


def test_slice_for_per_vm_override(single_node):
    sim, cluster, vmm = single_node
    vm = add_guest_vm(vmm, 1)
    sched = vmm.scheduler
    assert sched.slice_for(vm.vcpus[0]) == 30 * MSEC
    vm.slice_ns = 5 * MSEC
    assert sched.slice_for(vm.vcpus[0]) == 5 * MSEC


def test_pick_next_slice_is_slice_for():
    # ``CreditScheduler.pick_next`` inlines ``slice_for``: no approach may
    # override it, and an uncapped pick must hand out exactly its slice.
    from repro.schedulers.base import Scheduler
    from repro.schedulers.registry import scheduler_class, scheduler_names

    assert all(scheduler_class(n).slice_for is Scheduler.slice_for for n in scheduler_names())
    sim, cluster, vmms = make_node_world(n_pcpus=1)
    vmm = vmms[0]
    vm = add_guest_vm(vmm, 1)
    sched = vmm.scheduler
    for slice_ns in (None, 5 * MSEC):
        vm.slice_ns = slice_ns
        vcpu = vm.vcpus[0]
        vcpu.state = VCPUState.RUNNABLE
        sched.runqs[0].append(vcpu)
        vcpu.queued = True
        assert sched.pick_next(vmm.node.pcpus[0]) == (vcpu, sched.slice_for(vcpu))


def test_wake_prefers_idle_pcpu(single_node):
    sim, cluster, vmm = single_node
    a = add_guest_vm(vmm, 1, name="a")
    b = add_guest_vm(vmm, 1, name="b")
    start_hog(a)
    start_hog(b)
    # both should be running immediately on the two idle pcpus
    assert a.vcpus[0].state is VCPUState.RUNNING
    assert b.vcpus[0].state is VCPUState.RUNNING
    assert a.vcpus[0].pcpu is not b.vcpus[0].pcpu


def test_timesharing_is_fair_between_equal_vms():
    sim, cluster, vmms = make_node_world(n_pcpus=1)
    vmm = vmms[0]
    a = add_guest_vm(vmm, 1, name="a")
    b = add_guest_vm(vmm, 1, name="b")
    start_hog(a)
    start_hog(b)
    vmm.start()
    sim.run(until=2_000 * MSEC)
    ta = a.vcpus[0].total_run_ns
    tb = b.vcpus[0].total_run_ns
    assert abs(ta - tb) / max(ta, tb) < 0.15
    # and they alternated on slice boundaries
    assert cluster.nodes[0].pcpus[0].context_switches > 30


def test_weighted_share():
    # Credit enforces weights through UNDER/OVER priority, which is only
    # re-evaluated on slice boundaries — use a slice finer than the
    # accounting period (as Xen's 10 ms ticks do) to observe it.
    sim, cluster, vmms = make_node_world(
        n_pcpus=1,
        scheduler_factory=lambda vmm: CreditScheduler(
            vmm, CreditParams(slice_ns=5 * MSEC)
        ),
    )
    vmm = vmms[0]
    a = VM(vmm.node, 1, name="heavy", weight=3.0)
    vmm.add_vm(a)
    from repro.guest.kernel import GuestKernel

    GuestKernel(sim, a)
    b = add_guest_vm(vmm, 1, name="light")
    start_hog(a)
    start_hog(b)
    vmm.start()
    sim.run(until=3_000 * MSEC)
    ta = a.vcpus[0].total_run_ns
    tb = b.vcpus[0].total_run_ns
    # 3:1 weights -> clearly more CPU for the heavy VM
    assert ta > 1.5 * tb


def test_boost_wake_preempts_after_ratelimit():
    sim, cluster, vmms = make_node_world(n_pcpus=1)
    vmm = vmms[0]
    hog = add_guest_vm(vmm, 1, name="hog")
    lat = add_guest_vm(vmm, 1, name="lat")
    start_hog(hog)

    from repro.guest.process import sleep

    wake_delays = []

    def latprog():
        while True:
            yield sleep(50 * MSEC)
            t0 = sim.now

            def rec(now, t0=t0):
                wake_delays.append(now - t0)

            from repro.guest.process import call

            yield compute(100 * USEC)
            yield call(rec)

    p = lat.kernel.add_process()
    p.load_program(latprog())
    p.start()
    vmm.start()
    sim.run(until=1_000 * MSEC)
    assert wake_delays, "latency-sensitive VM never ran"
    # mostly-idle VM keeps credit -> BOOST -> preempts within the
    # ratelimit (1 ms) + its own compute (0.1 ms) + switch costs
    avg = sum(wake_delays) / len(wake_delays)
    assert avg < 2 * MSEC


def test_busy_vcpus_lose_boost():
    sim, cluster, vmms = make_node_world(n_pcpus=1)
    vmm = vmms[0]
    vm = add_guest_vm(vmm, 1)
    start_hog(vm)
    vmm.start()
    sim.run(until=200 * MSEC)
    sched = vmm.scheduler
    # a CPU-hog that consumed far more than its fair share has negative
    # effective credit
    assert sched._effective_credit(vm.vcpus[0]) <= 0


def test_work_stealing_balances_queues():
    sim, cluster, vmms = make_node_world(n_pcpus=2)
    vmm = vmms[0]
    vms = [add_guest_vm(vmm, 1, name=f"v{i}") for i in range(4)]
    for vm in vms:
        start_hog(vm)
    vmm.start()
    sim.run(until=1_000 * MSEC)
    # both pcpus should have done real work
    busies = [p.busy_ns for p in cluster.nodes[0].pcpus]
    assert min(busies) > 0.7 * max(busies)
    # and every VM made progress
    runs = [vm.vcpus[0].total_run_ns for vm in vms]
    assert min(runs) > 0.5 * max(runs)


def test_priorities_order_under_over():
    sim, cluster, vmms = make_node_world(n_pcpus=1)
    vmm = vmms[0]
    sched = vmm.scheduler
    vm = add_guest_vm(vmm, 2)
    v0, v1 = vm.vcpus
    v0.credit = 1000.0
    v1.credit = -1000.0
    assert sched._credit_prio(v0) == PRIO_UNDER
    assert sched._credit_prio(v1) == PRIO_OVER
    assert PRIO_BOOST < PRIO_UNDER < PRIO_OVER


def test_pop_best_prefers_boost():
    sim, cluster, vmms = make_node_world(n_pcpus=1)
    sched = vmms[0].scheduler
    vm = add_guest_vm(vmms[0], 3)
    a, b, c = vm.vcpus
    a.prio, b.prio, c.prio = PRIO_OVER, PRIO_BOOST, PRIO_UNDER
    q = sched.runqs[0]
    for v in (a, b, c):
        q.append(v)
        v.queued = True
    picked = sched._pop_best(q)
    assert picked is b
    assert sched._pop_best(q) is c
    assert sched._pop_best(q) is a
    assert sched._pop_best(q) is None


def _contended_pair():
    """One PCPU, a running hog, and an idle latency VM ready to wake."""
    sim, cluster, vmms = make_node_world(n_pcpus=1)
    vmm = vmms[0]
    hog = add_guest_vm(vmm, 1, name="hog")
    lat = add_guest_vm(vmm, 1, name="lat")
    start_hog(hog)
    vmm.start()
    sim.run(until=100 * USEC)  # hog is mid-slice, well inside the ratelimit
    assert hog.vcpus[0].state is VCPUState.RUNNING
    lat.vcpus[0].credit = 1000.0  # positive effective credit -> BOOST wake
    return sim, vmm, hog, lat


def test_ratelimit_deferral_counts_tickle():
    """Path 1: a higher-priority wake inside the ratelimit window defers."""
    sim, vmm, hog, lat = _contended_pair()
    sched = vmm.scheduler
    cur = hog.vcpus[0]
    cur.prio = PRIO_UNDER  # plain running priority; BOOST wake outranks it
    before_def = sched.stat_deferred_tickles
    before_pre = sched.stat_wake_preemptions
    lat.vcpus[0].wake()
    assert sched.stat_deferred_tickles == before_def + 1
    assert sched.stat_wake_preemptions == before_pre  # not an instant preempt
    assert any(
        ev.cat == "sched.tickle" for ev in sim.live_events()
    ), "deferred tickle must be scheduled"


def test_boost_protection_deferral_counts_tickle():
    """Path 2 (regression): a wake blocked only by the runner's transient
    BOOST protection is a deferred tickle too — the branch used to skip
    the ``stat_deferred_tickles`` increment."""
    sim, vmm, hog, lat = _contended_pair()
    sched = vmm.scheduler
    cur = hog.vcpus[0]
    cur.prio = PRIO_BOOST  # protected until the next tick...
    cur.credit = -1000.0  # ...but OVER on credits once deboosted
    before_def = sched.stat_deferred_tickles
    before_pre = sched.stat_wake_preemptions
    lat.vcpus[0].wake()  # BOOST wake: equal now, higher after the tick
    assert sched.stat_deferred_tickles == before_def + 1
    assert sched.stat_wake_preemptions == before_pre
    assert any(
        ev.cat == "sched.tickle" for ev in sim.live_events()
    ), "deferred tickle must be scheduled"


def test_repeated_wakes_coalesce_into_one_tickle():
    """Regression: every deferred wake against the same dispatch used to
    schedule a fresh ``_ratelimit_fire`` and bump ``stat_deferred_tickles``,
    inflating the event queue with dead tickles and double-counting the
    deferral.  Now they coalesce into the single pending tickle."""
    sim, vmm, hog, lat = _contended_pair()
    sched = vmm.scheduler
    cur = hog.vcpus[0]
    cur.prio = PRIO_UNDER
    before_def = sched.stat_deferred_tickles
    lat.vcpus[0].wake()
    extra = add_guest_vm(vmm, 2, name="extra")
    for v in extra.vcpus:
        v.credit = 1000.0
        v.wake()  # same dispatch, same (or later) re-check time
    assert sched.stat_deferred_tickles == before_def + 1
    tickles = [ev for ev in sim.live_events() if ev.cat == "sched.tickle"]
    assert len(tickles) == 1, "wakes against one dispatch share one tickle"


def test_earlier_recheck_replaces_pending_tickle():
    """A ratelimit-path wake needing an earlier fire than a pending
    tick-boundary re-check replaces (not delays) the queued tickle."""
    sim, vmm, hog, lat = _contended_pair()
    sched = vmm.scheduler
    cur = hog.vcpus[0]
    cur.prio = PRIO_BOOST  # path 2 first: re-check at the next tick
    cur.credit = -1000.0
    lat.vcpus[0].wake()
    (t1,) = [ev for ev in sim.live_events() if ev.cat == "sched.tickle"]
    cur.prio = PRIO_UNDER  # now a path-1 wake wants the ratelimit expiry
    extra = add_guest_vm(vmm, 1, name="extra")
    extra.vcpus[0].credit = 1000.0
    extra.vcpus[0].wake()
    live = [ev for ev in sim.live_events() if ev.cat == "sched.tickle"]
    assert len(live) == 1
    assert live[0].time < t1.time, "replacement must fire earlier"
    assert sched.stat_deferred_tickles >= 1


def test_deboost_boundary_on_tick_dispatch():
    """Boundary regression: a BOOST dispatch starting exactly on an
    accounting tick is protected for exactly one tick window — judged at
    its credit priority from ``run_start + tick`` on, not
    ``run_start + 2 * tick``."""
    sim, cluster, vmms = make_node_world(n_pcpus=1)
    sched = vmms[0].scheduler
    vm = add_guest_vm(vmms[0], 1)
    v = vm.vcpus[0]
    v.prio = PRIO_BOOST
    v.credit = -1000.0  # OVER once protection lapses
    pcpu = cluster.nodes[0].pcpus[0]
    pcpu.current = v
    tick = sched.params.tick_ns
    pcpu.run_start_ns = 7 * tick  # dispatched exactly on the boundary
    assert sched._next_tick_after(7 * tick) == 8 * tick
    sim.now = 7 * tick
    assert sched._running_prio(pcpu) == PRIO_BOOST
    sim.now = 8 * tick - 1  # last instant of the dispatch's tick window
    assert sched._running_prio(pcpu) == PRIO_BOOST
    sim.now = 8 * tick  # one tick after dispatch: deboosted
    assert sched._running_prio(pcpu) == PRIO_OVER


def test_deboost_boundary_mid_tick_dispatch():
    """A mid-window dispatch deboosts at the next *global* tick (Xen's
    periodic timer), i.e. after less than one full tick of protection."""
    sim, cluster, vmms = make_node_world(n_pcpus=1)
    sched = vmms[0].scheduler
    vm = add_guest_vm(vmms[0], 1)
    v = vm.vcpus[0]
    v.prio = PRIO_BOOST
    v.credit = -1000.0
    pcpu = cluster.nodes[0].pcpus[0]
    pcpu.current = v
    tick = sched.params.tick_ns
    pcpu.run_start_ns = 7 * tick + tick // 3
    sim.now = 8 * tick - 1  # same window as the dispatch
    assert sched._running_prio(pcpu) == PRIO_BOOST
    sim.now = 8 * tick  # global boundary, < one tick after dispatch
    assert sched._running_prio(pcpu) == PRIO_OVER


def test_noop_fire_does_not_recount_same_dispatch():
    """Regression: a deferred tickle whose waiter was withdrawn (VM pause,
    work stealing) fires as a no-op and clears the pending slot; a later
    wake against the *same* dispatch coalesces into a fresh tickle but
    must not bump ``stat_deferred_tickles`` a second time."""
    sim, vmm, hog, lat = _contended_pair()
    sched = vmm.scheduler
    cur = hog.vcpus[0]
    cur.prio = PRIO_UNDER
    pcpu = cur.pcpu
    before = sched.stat_deferred_tickles
    lat.vcpus[0].wake()
    assert sched.stat_deferred_tickles == before + 1
    # Withdraw the waiter (as a VM pause would), then let the pending
    # tickle fire as a no-op.
    sched.remove_queued(lat.vcpus[0])
    lat.vcpus[0].state = VCPUState.BLOCKED
    sched._ratelimit_fire(pcpu, cur, pcpu.run_start_ns)
    assert pcpu.index not in sched._pending_tickles
    assert pcpu.current is cur  # dispatch survived the no-op fire
    # A new deferred wake against the same (PCPU, dispatch): one fresh
    # pending tickle, zero additional deferral counts.
    extra = add_guest_vm(vmm, 1, name="extra2")
    extra.vcpus[0].credit = 1000.0
    extra.vcpus[0].wake()
    assert sched.stat_deferred_tickles == before + 1
    assert pcpu.index in sched._pending_tickles


def test_scheduler_statistics_counters():
    """The introspection counters move under a contended workload."""
    sim, cluster, vmms = make_node_world(n_pcpus=2)
    vmm = vmms[0]
    sched = vmm.scheduler
    hogs = [add_guest_vm(vmm, 1, name=f"h{i}") for i in range(3)]
    for vm in hogs:
        start_hog(vm)
    lat = add_guest_vm(vmm, 1, name="lat")

    from repro.guest.process import call, sleep

    def latprog():
        while True:
            yield sleep(3 * MSEC)
            yield compute(50 * USEC)

    p = lat.kernel.add_process()
    p.load_program(latprog())
    p.start()
    vmm.start()
    sim.run(until=1_000 * MSEC)
    assert sched.stat_boost_wakes > 0
    assert sched.stat_wake_preemptions + sched.stat_deferred_tickles > 0
    assert sched.stat_steals >= 0  # stealing depends on queue imbalance


# ----------------------------------------------------------------------
# credit_cap_periods clamp boundaries (driven through on_period directly)
# ----------------------------------------------------------------------
def _boundary_world(credit_cap_periods=1.0, n_pcpus=2):
    sim, cluster, vmms = make_node_world(
        n_pcpus=n_pcpus,
        scheduler_factory=lambda vmm: CreditScheduler(
            vmm, CreditParams(credit_cap_periods=credit_cap_periods)
        ),
    )
    return sim, vmms[0]


def _mark_active(vm):
    # ``on_period`` treats a VCPU as active when it is non-BLOCKED or ran
    # this period; flag the latter without running the simulator.
    for v in vm.vcpus:
        v.period_run_ns = 1


def test_credit_clamps_to_exactly_plus_cap():
    sim, vmm = _boundary_world(credit_cap_periods=1.0)
    vm = add_guest_vm(vmm, 1, name="solo")
    _mark_active(vm)
    v = vm.vcpus[0]
    cap = 1.0 * vmm.period_ns * len(vmm.node.pcpus)
    # Credit already at the clamp: a full idle-period share may not push
    # it past +cap (the whole point of the clamp — no unbounded hoarding).
    v.credit = cap
    vmm.scheduler.on_period(0)
    assert v.credit == cap


def test_credit_floors_at_exactly_minus_cap():
    sim, vmm = _boundary_world(credit_cap_periods=0.5)
    vm = add_guest_vm(vmm, 1, name="hog")
    _mark_active(vm)
    v = vm.vcpus[0]
    cap = 0.5 * vmm.period_ns * len(vmm.node.pcpus)
    # Charged far beyond anything the share can repay: debt floors at
    # -cap instead of going arbitrarily negative.
    v.credit = 0.0
    v.period_charged_ns = int(10 * cap)
    vmm.scheduler.on_period(0)
    assert v.credit == -cap


def test_credit_conserved_exactly_when_unclamped():
    sim, vmm = _boundary_world(credit_cap_periods=100.0)  # clamp out of reach
    a = add_guest_vm(vmm, 1, name="a")
    b = add_guest_vm(vmm, 1, name="b")
    for vm in (a, b):
        _mark_active(vm)
    va, vb = a.vcpus[0], b.vcpus[0]
    va.credit, vb.credit = 123.0, -456.0
    va.period_charged_ns, vb.period_charged_ns = 7 * MSEC, 11 * MSEC
    before = va.credit + vb.credit
    charged = va.period_charged_ns + vb.period_charged_ns
    capacity = vmm.period_ns * len(vmm.node.pcpus)
    vmm.scheduler.on_period(0)
    # Shares sum to exactly one period of capacity, so total credit moves
    # by capacity minus what was charged — nothing leaks.
    assert (va.credit + vb.credit) - before == capacity - charged


def test_staged_weight_change_governs_same_boundary_shares():
    # A cluster-scope weight update staged mid-period must be applied at
    # the TOP of on_period, so the very boundary that follows it already
    # splits credit by the new weights (3:1), not the old ones (1:1).
    sim, vmm = _boundary_world(credit_cap_periods=100.0)
    a = add_guest_vm(vmm, 1, name="a")
    b = add_guest_vm(vmm, 1, name="b")
    for vm in (a, b):
        _mark_active(vm)
    va, vb = a.vcpus[0], b.vcpus[0]
    vmm.scheduler.set_vm_weight(a, 3.0)
    assert a.weight == 1.0  # staged, not yet applied
    capacity = vmm.period_ns * len(vmm.node.pcpus)
    vmm.scheduler.on_period(0)
    assert a.weight == 3.0
    assert va.credit == capacity * 0.75
    assert vb.credit == capacity * 0.25


def test_clamp_boundary_tracks_mid_run_weight_change():
    # With the clamp in reach, the boundary after a weight bump clamps the
    # heavier VM at exactly +cap while the lighter one keeps its smaller
    # share — the clamp is per-VCPU, not pre-weighting.
    sim, vmm = _boundary_world(credit_cap_periods=0.25)
    a = add_guest_vm(vmm, 1, name="a")
    b = add_guest_vm(vmm, 1, name="b")
    for vm in (a, b):
        _mark_active(vm)
    va, vb = a.vcpus[0], b.vcpus[0]
    cap = 0.25 * vmm.period_ns * len(vmm.node.pcpus)
    capacity = vmm.period_ns * len(vmm.node.pcpus)
    vmm.scheduler.set_vm_weight(a, 3.0)
    vmm.scheduler.on_period(0)
    assert va.credit == cap  # 0.75 * capacity clamped down to +cap
    assert vb.credit == capacity * 0.25  # exactly at the clamp boundary
    vmm.scheduler.on_period(vmm.period_ns)
    # Second boundary: both already at/above the clamp; neither exceeds it.
    assert va.credit == cap
    assert vb.credit == cap


# ----------------------------------------------------------------------
# on_period against the plain list/zip accounting loop
# ----------------------------------------------------------------------
def _reference_on_period(sched, now):
    """``CreditScheduler.on_period`` as a list/zip loop over all VCPUs:
    the reference the one-pass accounting must match bit for bit."""
    sched.apply_pending_allocations()
    vmm = sched.vmm
    capacity = vmm.period_ns * len(vmm.node.pcpus)
    vcpus = [v for vm in vmm.vms for v in vm.vcpus]
    active = [v.state is not VCPUState.BLOCKED or v.period_run_ns > 0 for v in vcpus]
    total_w = sum(v.vm.weight for v, act in zip(vcpus, active) if act) or 1.0
    cap = sched.params.credit_cap_periods * capacity
    for v, act in zip(vcpus, active):
        share = capacity * (v.vm.weight / total_w) if act else 0.0
        v.credit = min(cap, max(-cap, v.credit + share - v.period_charged_ns))
        v.period_run_ns = 0
        v.period_charged_ns = 0
        if v.queued and v.prio != PRIO_BOOST:
            v.prio = sched._credit_prio(v)
    for vm in vmm.vms:
        vm.period_run_ns = 0
    if sched._parked:
        parked, sched._parked = sched._parked, []
        for v in parked:
            v.prio = sched._credit_prio(v)
            sched.runqs[v.rq].append(v)
            v.queued = True
        for pcpu in vmm.node.pcpus:
            if pcpu.current is None:
                vmm.kick(pcpu)


_PERIOD = 30 * MSEC
_vcpu_shapes = st.fixed_dictionaries(dict(
    state=st.sampled_from([VCPUState.BLOCKED, VCPUState.RUNNABLE, VCPUState.RUNNING]),
    run_ns=st.one_of(st.just(0), st.integers(1, 2 * _PERIOD)),
    charged_ns=st.one_of(st.just(0), st.integers(1, 4 * _PERIOD)),
    # Credit as a multiple of +-cap plus an offset: lands on, just inside
    # and just outside the clamp as well as anywhere in between.
    credit=st.tuples(
        st.sampled_from([-1.0, 1.0, 0.0, 0.5, -0.999999]),
        st.one_of(st.just(0.0), st.floats(-1e6, 1e6, allow_nan=False)),
    ),
    prio=st.sampled_from([PRIO_BOOST, PRIO_UNDER, PRIO_OVER]),
    place=st.sampled_from(["queued", "parked"]),
    rq=st.integers(0, 3),
))
_weights = st.one_of(st.floats(0.01, 100.0), st.integers(1, 512))
_caps = st.one_of(st.none(), st.floats(0.01, 1.0))
_vm_shapes = st.fixed_dictionaries(dict(
    weight=_weights,
    cap=_caps,
    staged_weight=st.one_of(st.none(), _weights),
    staged_cap=st.one_of(st.just("keep"), _caps),
    vcpus=st.lists(_vcpu_shapes, min_size=1, max_size=4),
))


def _period_world(shape):
    """A node whose VCPU bookkeeping is set straight from ``shape``."""
    sim, vmm = _boundary_world(shape["cap_periods"], shape["n_pcpus"])
    sched = vmm.scheduler
    cap = shape["cap_periods"] * vmm.period_ns * shape["n_pcpus"]
    for i, vs in enumerate(shape["vms"]):
        vm = VM(vmm.node, len(vs["vcpus"]), name=f"g{i}", weight=vs["weight"])
        vmm.add_vm(vm)
        vm.cap = vs["cap"]
        if vs["staged_weight"] is not None:
            sched.set_vm_weight(vm, vs["staged_weight"])
        if vs["staged_cap"] != "keep":
            sched.set_vm_cap(vm, vs["staged_cap"])
        for v, d in zip(vm.vcpus, vs["vcpus"]):
            v.state = d["state"]
            v.period_run_ns = d["run_ns"]
            v.period_charged_ns = d["charged_ns"]
            vm.period_run_ns += d["run_ns"]
            mult, offset = d["credit"]
            v.credit = mult * cap + offset
            v.prio = d["prio"]
            v.rq = d["rq"] % shape["n_pcpus"]
            if d["state"] is VCPUState.RUNNABLE:
                if d["place"] == "queued":
                    sched.runqs[v.rq].append(v)
                    v.queued = True
                else:
                    sched._parked.append(v)
    return vmm


def _period_state(vmm):
    sched = vmm.scheduler
    vcpus = [
        (v.name, repr(v.credit), type(v.credit), v.prio, v.queued, v.rq,
         v.period_run_ns, v.period_charged_ns)
        for vm in vmm.vms for v in vm.vcpus
    ]
    vms = [(vm.name, repr(vm.weight), repr(vm.cap), vm.period_run_ns) for vm in vmm.vms]
    queues = [[v.name for v in q] for q in sched.runqs]
    running = [p.current and p.current.name for p in vmm.node.pcpus]
    return vcpus, vms, queues, [v.name for v in sched._parked], running


@settings(max_examples=200, deadline=None)
@given(shape=st.fixed_dictionaries(dict(
    n_pcpus=st.integers(1, 4),
    cap_periods=st.sampled_from([0.25, 0.5, 1.0, 3.0]),
    vms=st.lists(_vm_shapes, min_size=1, max_size=4),
)))
def test_on_period_matches_the_list_zip_loop(shape):
    new, ref = _period_world(shape), _period_world(shape)
    # The second boundary starts from what the first one left (unparked
    # VCPUs dispatched on idle PCPUs, staged allocations applied).
    for now in (new.period_ns, 2 * new.period_ns):
        new.scheduler.on_period(now)
        _reference_on_period(ref.scheduler, now)
        assert _period_state(new) == _period_state(ref)
