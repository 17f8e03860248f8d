"""The always-on service engine: tenant lifecycles on a CloudWorld.

:class:`CloudService` attaches to a wired
:class:`~repro.experiments.harness.CloudWorld` (``WorldConfig.service``)
and drives an open stream of tenants, each through the full lifecycle::

    submit ──► admit ──► run ──► complete ──► depart (teardown)
       │         ▲
       ├──► queue┘   (FCFS wait; re-decided on departures and periods)
       └──► reject

*Submit* draws the tenant's shape (Table-I size → VMs, NPB kernel) and
asks the configured admission policy (:mod:`repro.service.admission`).
*Admit* places a fresh virtual cluster on the policy's node assignment
and starts a finite-round :class:`~repro.workloads.base.ParallelApp`.
*Depart* tears the whole cluster down through
``CloudWorld.teardown_cluster`` — node slots, VMM rosters, scheduler
state and the world's VM/cluster lists are all reclaimed — then gives
the wait queue a drain pass.  Queued tenants are also re-decided once
per scheduling period on the world's leader-elected control tick
(:meth:`~repro.experiments.harness.CloudWorld.every_period`), so the
wait queue adds **zero** events.

Determinism: the tenant timeline is a pure function of the seed.  All
service randomness comes from the dedicated :data:`~repro.service.
arrivals.SERVICE_RNG_KEY` substream; admitted tenants' workloads take
the world's ordinary sequential workload substreams in admission order.
An idle service layer (no arrivals) draws no RNG and schedules no
events, so enabling it leaves a run bit-identical — event count
included — to one without it (regression-tested in
``tests/test_service.py``).

Service-level telemetry (``CloudService.stats``, a scenario result's
``service`` dict): admit/reject/queue
counts, per-tenant wait and slowdown, a time-in-system histogram, and a
cluster-utilization timeline sampled at every admit/depart.  Slowdown is
the tenant's time in system normalized by its app's pure-compute lower
bound (rounds x supersteps x grain), so both queueing delay and
scheduling interference show up in one number.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.service.admission import ADMISSIONS, admission_names
from repro.service.arrivals import (
    SERVICE_RNG_KEY,
    PoissonArrivals,
    TraceArrivals,
    check_trace,
    draw_tenant_shape,
)
from repro.sim.units import MSEC
from repro.workloads.base import ParallelApp
from repro.workloads.npb import npb_spec

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.harness import CloudWorld

__all__ = ["ServiceConfig", "Tenant", "CloudService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Shape of the always-on service layer (``WorldConfig.service``)."""

    #: Arrival process: ``"poisson"`` (open-loop, ``rate_per_s``) or
    #: ``"trace"`` (replay the ``trace`` entries).
    arrival: str = "poisson"
    #: Admission policy name (:data:`repro.service.admission.ADMISSIONS`).
    admission: str = "fcfs-queue"
    #: Offered load: tenant submissions per virtual second (poisson).
    rate_per_s: float = 2.0
    #: Total tenants the poisson process submits; 0 = idle layer (no
    #: arrivals, no events, no RNG draws — the bit-identity baseline).
    max_tenants: int = 0
    #: Trace-replay entries: ``{"at_ms", "n_vms"?, "app"?, "rounds"?}``.
    trace: tuple[dict, ...] = ()
    #: Table-I size window for tenant shape draws (VCPUs).
    min_vcpus: int = 8
    max_vcpus: int = 16
    #: Measured rounds each tenant runs before departing.
    rounds: int = 1
    #: Warm-up rounds per tenant (excluded from round timing).
    warmup_rounds: int = 0
    #: NPB kernels tenants draw from, uniformly.
    apps: tuple[str, ...] = ("lu", "is")
    #: NPB problem class of every tenant app.
    npb_class: str = "A"

    def __post_init__(self) -> None:
        check_trace(self.trace)


class Tenant:
    """One tenant's lifecycle record."""

    __slots__ = (
        "tid",
        "name",
        "n_vms",
        "app_name",
        "rounds",
        "submit_ns",
        "admit_ns",
        "depart_ns",
        "state",
        "nodes",
        "vc",
        "app",
        "ideal_ns",
    )

    def __init__(
        self, tid: int, name: str, n_vms: int, app_name: str, rounds: int, submit_ns: int
    ) -> None:
        self.tid = tid
        self.name = name
        self.n_vms = n_vms
        self.app_name = app_name
        self.rounds = rounds
        self.submit_ns = submit_ns
        self.admit_ns: Optional[int] = None
        self.depart_ns: Optional[int] = None
        self.state = "submitted"  # -> queued | running | rejected | departed
        self.nodes: Optional[list[int]] = None
        self.vc = None
        self.app: Optional[ParallelApp] = None
        self.ideal_ns = 1

    @property
    def wait_ns(self) -> Optional[int]:
        """Submission-to-admission delay (None until admitted)."""
        if self.admit_ns is None:
            return None
        return self.admit_ns - self.submit_ns

    @property
    def slowdown(self) -> Optional[float]:
        """Time in system over the app's pure-compute lower bound —
        queueing wait *and* scheduling interference both inflate it."""
        if self.depart_ns is None:
            return None
        return (self.depart_ns - self.submit_ns) / max(1, self.ideal_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tenant {self.name} {self.app_name}x{self.n_vms} {self.state}>"


class CloudService:
    """Streams tenants through a :class:`CloudWorld` under admission control."""

    def __init__(self, world: "CloudWorld", config: ServiceConfig) -> None:
        if config.admission not in ADMISSIONS:
            raise ValueError(
                f"unknown admission policy {config.admission!r}; known: "
                f"{', '.join(admission_names())}"
            )
        if config.arrival not in ("poisson", "trace"):
            raise ValueError(
                f"unknown arrival process {config.arrival!r}; known: poisson, trace"
            )
        self.world = world
        self.sim = world.sim
        self.cfg = config
        self.policy = ADMISSIONS[config.admission]
        # Substream derivation consumes no parent draws, so building the
        # service RNG never perturbs workload streams.
        self.rng = world.rng.substream(SERVICE_RNG_KEY)
        self.arrivals = (
            TraceArrivals(config)
            if config.arrival == "trace"
            else PoissonArrivals(config, self.rng)
        )
        self.tenants: list[Tenant] = []  # every submission, in order
        self.queue: deque[Tenant] = deque()  # FCFS wait queue
        self.running: dict[int, Tenant] = {}  # tid -> tenant
        self.submitted = 0
        self.admitted = 0
        self.rejected = 0
        self.departed = 0
        self.queue_peak = 0
        self.rebalancer_kicks = 0
        #: ``[t_ns, running_vms, running_tenants]`` sampled at every
        #: admit / depart edge (lists, so cached JSON round-trips equal).
        self.util_timeline: list[list[int]] = []
        self._hist: dict[int, int] = {}  # time-in-system, pow-2 ms buckets
        self._next_entry: Optional[dict] = None
        self._started = False
        world.every_period(self._on_period)

    # ------------------------------------------------------------------
    # Arrival machinery
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first arrival (if any).  Idempotent."""
        if self._started:
            return
        self._started = True
        self._schedule_next()

    def _schedule_next(self) -> None:
        nxt = self.arrivals.next_arrival(self.sim.now)
        if nxt is None:
            return  # exhausted (or idle: zero events ever scheduled)
        at_ns, entry = nxt
        self._next_entry = entry
        self.sim.at(at_ns, self._arrive, cat="service")

    def _arrive(self) -> None:
        entry = self._next_entry
        self._next_entry = None
        n_vms, app_name, rounds = draw_tenant_shape(
            self.cfg, self.world.config.vcpus_per_vm, self.rng, entry
        )
        t = Tenant(self.submitted, f"t{self.submitted}", n_vms, app_name, rounds, self.sim.now)
        spec = npb_spec(app_name, self.cfg.npb_class)
        t.ideal_ns = max(
            1, (rounds + self.cfg.warmup_rounds) * spec.supersteps * spec.grain_ns
        )
        self.submitted += 1
        self.tenants.append(t)
        self._decide(t)
        self._schedule_next()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _decide(self, t: Tenant) -> None:
        verdict, assignment = self.policy(self, t)
        if verdict == "admit":
            self._admit(t, assignment)
        elif verdict == "queue":
            t.state = "queued"
            self.queue.append(t)
            self.queue_peak = max(self.queue_peak, len(self.queue))
        else:
            self._reject(t)

    def _admit(self, t: Tenant, assignment: list[int]) -> None:
        now = self.sim.now
        t.state = "running"
        t.admit_ns = now
        t.nodes = list(assignment)
        self.admitted += 1
        t.vc = self.world.virtual_cluster(t.n_vms, name=t.name, node_indices=assignment)
        # Built directly (NOT world.add_npb): tenant apps must not join
        # the batch completion countdown, whose last app stops the sim.
        t.app = ParallelApp(
            self.sim,
            npb_spec(t.app_name, self.cfg.npb_class),
            t.vc.vms,
            self.world._next_rng(),
            rounds=t.rounds,
            warmup_rounds=self.cfg.warmup_rounds,
            name=t.name,
        )
        t.app.on_complete = lambda _app, t=t: self._complete(t)
        self.running[t.tid] = t
        t.app.start()
        if self.sim.record is not None:
            self.sim.record(
                "service.admit",
                now,
                tenant=t.name,
                app=t.app_name,
                n_vms=t.n_vms,
                nodes=list(assignment),
                wait_ns=t.wait_ns,
            )
        self._sample_util(now)

    def _reject(self, t: Tenant) -> None:
        t.state = "rejected"
        self.rejected += 1
        if self.sim.record is not None:
            self.sim.record(
                "service.reject",
                self.sim.now,
                tenant=t.name,
                app=t.app_name,
                n_vms=t.n_vms,
                reason="capacity",
            )

    # ------------------------------------------------------------------
    # Completion / departure
    # ------------------------------------------------------------------
    def _complete(self, t: Tenant) -> None:
        # Defer teardown to a fresh event, decoupled from the last rank's
        # completion path (same pattern as ParallelApp's batch restart).
        self.sim.after(0, lambda t=t: self._depart(t), cat="service")

    def _depart(self, t: Tenant) -> None:
        now = self.sim.now
        t.state = "departed"
        t.depart_ns = now
        self.departed += 1
        self.running.pop(t.tid, None)
        self.world.teardown_cluster(t.vc)
        t.vc = t.app = None  # the record keeps only its numbers
        ms = (now - t.submit_ns) // MSEC
        bucket = 1
        while bucket <= ms:
            bucket <<= 1
        self._hist[bucket] = self._hist.get(bucket, 0) + 1
        if self.sim.record is not None:
            self.sim.record(
                "service.depart",
                now,
                tenant=t.name,
                app=t.app_name,
                n_vms=t.n_vms,
                time_in_system_ns=now - t.submit_ns,
                slowdown=t.slowdown,
            )
        self._sample_util(now)
        self._drain_queue()

    def _drain_queue(self) -> None:
        """Re-decide the wait queue strictly in FIFO order (head-of-line)."""
        while self.queue:
            head = self.queue[0]
            verdict, assignment = self.policy(self, head)
            if verdict == "admit":
                self.queue.popleft()
                self._admit(head, assignment)
            elif verdict == "reject":
                self.queue.popleft()
                self._reject(head)
            else:
                break

    def _on_period(self, now: int) -> None:
        if self.queue:
            self._drain_queue()

    # ------------------------------------------------------------------
    # Control-plane coupling
    # ------------------------------------------------------------------
    def kick_rebalancer(self) -> None:
        """Report admission pressure to the PR-5 rebalancer (if any):
        an off-cycle control round may demix hosts and make room."""
        rb = self.world.rebalancer
        if rb is not None:
            self.rebalancer_kicks += 1
            rb.kick(self.sim.now)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _sample_util(self, now: int) -> None:
        vms = sum(t.n_vms for t in self.running.values())
        self.util_timeline.append([now, vms, len(self.running)])

    @property
    def stats(self) -> dict:
        """Deterministic, JSON-stable rollup for scenario results."""
        waits = [t.wait_ns for t in self.tenants if t.wait_ns is not None]
        slowdowns = [t.slowdown for t in self.tenants if t.slowdown is not None]
        in_system = [
            t.depart_ns - t.submit_ns for t in self.tenants if t.depart_ns is not None
        ]
        return {
            "arrival": self.cfg.arrival,
            "admission": self.cfg.admission,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "departed": self.departed,
            "queued_now": len(self.queue),
            "queue_peak": self.queue_peak,
            "running_now": len(self.running),
            "rebalancer_kicks": self.rebalancer_kicks,
            "wait_mean_ns": sum(waits) // len(waits) if waits else 0,
            "wait_max_ns": max(waits) if waits else 0,
            "slowdown_mean": sum(slowdowns) / len(slowdowns) if slowdowns else 0.0,
            "slowdown_max": max(slowdowns) if slowdowns else 0.0,
            # Tenants admitted but still in flight at snapshot time are
            # censored observations — excluded from the mean/max above, so
            # those read as conditional-on-completion, not run-wide.
            "slowdown_censored": sum(
                1
                for t in self.tenants
                if t.admit_ns is not None and t.depart_ns is None
            ),
            "time_in_system_mean_ns": sum(in_system) // len(in_system) if in_system else 0,
            "time_in_system_hist_ms": {
                str(b): self._hist[b] for b in sorted(self._hist)
            },
            "util_timeline": [list(row) for row in self.util_timeline],
            "tenants": [
                {
                    "name": t.name,
                    "app": t.app_name,
                    "n_vms": t.n_vms,
                    "state": t.state,
                    "submit_ns": t.submit_ns,
                    "admit_ns": t.admit_ns,
                    "depart_ns": t.depart_ns,
                    "nodes": t.nodes,
                    "wait_ns": t.wait_ns,
                    "slowdown": t.slowdown,
                }
                for t in self.tenants
            ],
        }
