"""Open-loop tenant arrival processes for :mod:`repro.service`.

Both generators are *open loop* (Multiverse-style): arrival times do not
depend on how the platform is coping, so offered load is an experiment
input that admission policies can be compared under at equal terms.

Determinism and RNG isolation
-----------------------------
All service-layer randomness — inter-arrival gaps and tenant shape
draws — comes from one dedicated substream of the world RNG, keyed by
:data:`SERVICE_RNG_KEY`.  The key is disjoint from every other reserved
substream (workload streams use small sequential integers, faults
``0xFA``, random placement ``0x9C``, scenario mixes ``999``), and
deriving a substream consumes no draws from the parent, so:

* the same seed always produces the same tenant timeline, and
* a service layer configured for **zero** arrivals draws no RNG and
  schedules no events — a world with such a layer is bit-identical
  (event count included) to a world without one.

Draw order is fixed per arrival: the shape of tenant *k* is drawn when
its submission event fires, then the inter-arrival gap to tenant *k+1*.

Tenant shapes come from the Table-I job-size distribution
(:data:`repro.workloads.traces.ATLAS_TABLE1`) restricted to the
configured ``[min_vcpus, max_vcpus]`` window and renormalized, exactly
like the batch synthesizer — the streaming mix stays consistent with
the trace the paper models.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.units import SEC, ns_from_ms
from repro.workloads.traces import ATLAS_TABLE1

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.service import ServiceConfig
    from repro.sim.rng import SimRNG

__all__ = [
    "SERVICE_RNG_KEY",
    "TRACE_KEYS",
    "PoissonArrivals",
    "TraceArrivals",
    "check_trace",
    "draw_tenant_shape",
]

#: Dedicated SimRNG substream key for the service layer (disjoint from
#: workload keys 1..N, fault key 0xFA, placement key 0x9C, mix key 999).
SERVICE_RNG_KEY = 0x5E


class PoissonArrivals:
    """Poisson process: exponential inter-arrival gaps at ``rate_per_s``,
    stopping after ``max_tenants`` submissions.

    ``max_tenants=0`` (or a non-positive rate) is the *idle* process:
    :meth:`next_arrival` returns ``None`` before touching the RNG.
    """

    def __init__(self, cfg: "ServiceConfig", rng: "SimRNG") -> None:
        self.cfg = cfg
        self.rng = rng
        self.emitted = 0

    def next_arrival(self, now_ns: int) -> Optional[tuple[int, Optional[dict]]]:
        """``(submit_ns, entry)`` of the next tenant, or ``None`` when the
        process is exhausted.  Draws exactly one exponential per call."""
        cfg = self.cfg
        if cfg.rate_per_s <= 0 or self.emitted >= cfg.max_tenants:
            return None
        self.emitted += 1
        mean_ns = max(1, int(SEC / cfg.rate_per_s))
        return now_ns + self.rng.exponential_ns(mean_ns), None


#: The keys a trace entry may carry (:class:`TraceArrivals`).
TRACE_KEYS = ("at_ms", "n_vms", "app", "rounds")


def check_trace(trace, path: str = "trace") -> None:
    """:class:`ValueError` naming, under ``path``, the first entry key
    not in :data:`TRACE_KEYS`."""
    for i, entry in enumerate(trace):
        for key in entry:
            if key not in TRACE_KEYS:
                raise ValueError(f"unknown key {f'{path}[{i}].{key}'!r} "
                                 f"(a trace entry has {', '.join(TRACE_KEYS)})")


class TraceArrivals:
    """Replay a fixed arrival trace: ``ServiceConfig.trace`` entries of
    the form ``{"at_ms": float, "n_vms": int?, "app": str?, "rounds": int?}``.

    Entries are replayed in ``(at_ms, original index)`` order; fields a
    trace entry omits are drawn from the service RNG like a Poisson
    tenant's.  An empty trace schedules nothing and draws nothing.
    """

    def __init__(self, cfg: "ServiceConfig") -> None:
        entries = [dict(e) for e in cfg.trace]
        self._entries = sorted(
            enumerate(entries), key=lambda kv: (float(kv[1].get("at_ms", 0.0)), kv[0])
        )
        self._i = 0

    def next_arrival(self, now_ns: int) -> Optional[tuple[int, Optional[dict]]]:
        if self._i >= len(self._entries):
            return None
        _, entry = self._entries[self._i]
        self._i += 1
        at_ns = ns_from_ms(float(entry.get("at_ms", 0.0)))
        return max(now_ns, at_ns), entry


def draw_tenant_shape(
    cfg: "ServiceConfig",
    vcpus_per_vm: int,
    rng: "SimRNG",
    entry: Optional[dict] = None,
) -> tuple[int, str, int]:
    """``(n_vms, app_name, rounds)`` for one tenant.

    The VC size is drawn from Table I restricted to ``[min_vcpus,
    max_vcpus]`` (renormalized) and converted to whole VMs; the kernel is
    drawn uniformly from ``cfg.apps``.  A trace ``entry`` may pin any of
    the fields, in which case the corresponding draw is skipped — the
    draw order for what remains stays fixed (size, then app).
    """
    e = entry or {}
    n_vms = e.get("n_vms")
    if n_vms is None:
        candidates = {
            s: p for s, p in ATLAS_TABLE1.items() if cfg.min_vcpus <= s <= cfg.max_vcpus
        }
        if not candidates:
            raise ValueError(
                f"no Table I sizes within [{cfg.min_vcpus}, {cfg.max_vcpus}] VCPUs"
            )
        total_p = sum(candidates.values())
        sizes = sorted(candidates)
        probs = [candidates[s] / total_p for s in sizes]
        size_vcpus = int(rng.choice(sizes, p=probs))
        n_vms = max(1, size_vcpus // vcpus_per_vm)
    app = e.get("app")
    if app is None:
        app = str(rng.choice(list(cfg.apps)))
    rounds = int(e.get("rounds", cfg.rounds))
    return int(n_vms), app, rounds
