"""Declarative fault plans.

A :class:`FaultPlan` is an ordered tuple of typed :class:`FaultEvent`
records, each naming a fault kind, a target, an absolute injection time
and (for transient faults) a duration after which the injector heals it.
Plans are plain data: they serialize to/from JSON dict lists (so they
ride through the sweep cache key inside scenario ``params``) and can be
synthesized deterministically from a seed with
:meth:`FaultPlan.synthesize`.

Fault kinds (``KINDS``):

``node_crash``
    The whole physical node goes down: every VM (dom0 included) freezes,
    the fabric drops deliveries addressed to it, and the period tick is
    gated.  Healing restarts the node and replays latched wakes.
``dom0_stall``
    The node's driver domain is paused — the paper's "dom0 starved of
    CPU" overhead source taken to its limit: I/O backends stop serving
    while guests keep computing.
``nic_degrade``
    The node's NIC loses bandwidth (``bw_factor``) and/or drops packets
    (``drop_prob``); the guest transport retransmits with exponential
    backoff (:class:`repro.cluster.network.NetworkParams`).
``pcpu_straggler``
    External interference on one core: every ``steal_period_ns`` the
    injector forces a preemption on that PCPU, emulating a co-located
    noisy neighbour the scheduler cannot see.
``vm_pause``
    One guest VM freezes (live-migration brownout / stop-and-copy pause);
    its peers in a virtual cluster spin at barriers meanwhile.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.sim.rng import SimRNG
from repro.sim.units import MSEC

__all__ = ["KINDS", "FaultEvent", "FaultPlan", "parse_fault_spec"]

KINDS = ("node_crash", "dom0_stall", "nic_degrade", "pcpu_straggler", "vm_pause")

#: Sub-stream key reserved for fault synthesis / probabilistic drops, far
#: from the world's sequential workload keys.
RNG_KEY = 0xFA


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.  Unused fields stay at their defaults so the
    dict form only carries what the kind needs."""

    kind: str
    #: Absolute injection time (simulation ns).
    at_ns: int
    #: Target physical node index.
    node: int = 0
    #: Fault lifetime; 0 = permanent (never healed).
    duration_ns: int = 0
    #: Target VM name (``vm_pause``); "" = first guest VM on the node.
    vm: str = ""
    #: Target core index (``pcpu_straggler``).
    pcpu: int = 0
    #: Remaining egress bandwidth fraction (``nic_degrade``), in (0, 1].
    bw_factor: float = 1.0
    #: Packet-loss probability on the degraded link, in [0, 1).
    drop_prob: float = 0.0
    #: Interference period (``pcpu_straggler``): one forced preemption
    #: per period while the fault is live.
    steal_period_ns: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (have {KINDS})")
        if self.at_ns < 0:
            raise ValueError(f"{self.kind}: at_ns must be >= 0, got {self.at_ns}")
        if self.duration_ns < 0:
            raise ValueError(f"{self.kind}: negative duration {self.duration_ns}")
        if self.kind == "nic_degrade":
            if not (0.0 < self.bw_factor <= 1.0):
                raise ValueError(f"nic_degrade: bw_factor {self.bw_factor} not in (0, 1]")
            if not (0.0 <= self.drop_prob < 1.0):
                raise ValueError(f"nic_degrade: drop_prob {self.drop_prob} not in [0, 1)")

    def to_dict(self) -> dict:
        """Compact dict: kind, at_ns, plus non-default fields only."""
        d = asdict(self)
        defaults = _EVENT_DEFAULTS
        return {
            k: v for k, v in d.items() if k in ("kind", "at_ns") or v != defaults[k]
        }

    def validate(self, n_nodes: int, n_pcpus: int = 8) -> None:
        """The checks that need the world's shape; the rest run on
        construction."""
        if not (0 <= self.node < n_nodes):
            raise ValueError(
                f"{self.kind}: node {self.node} out of range [0, {n_nodes})"
            )
        if self.kind == "pcpu_straggler":
            if not (0 <= self.pcpu < n_pcpus):
                raise ValueError(
                    f"pcpu_straggler: pcpu {self.pcpu} out of range [0, {n_pcpus})"
                )
            if self.steal_period_ns <= 0:
                raise ValueError(
                    f"pcpu_straggler: steal_period_ns must be > 0, "
                    f"got {self.steal_period_ns}"
                )


_EVENT_DEFAULTS = asdict(FaultEvent(kind="node_crash", at_ns=0))


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-ordered fault schedule."""

    events: tuple[FaultEvent, ...] = field(default_factory=tuple)

    @classmethod
    def of(cls, events: Iterable[FaultEvent]) -> "FaultPlan":
        """Build a plan; events are stably sorted by injection time (ties
        keep authoring order, which fixes the injection order exactly)."""
        return cls(events=tuple(sorted(events, key=lambda e: e.at_ns)))

    def __bool__(self) -> bool:
        return bool(self.events)

    def kinds(self) -> set[str]:
        return {e.kind for e in self.events}

    def validate(self, n_nodes: int, n_pcpus: int = 8) -> "FaultPlan":
        for e in self.events:
            e.validate(n_nodes, n_pcpus)
        return self

    # -- serialization ---------------------------------------------------
    def to_dicts(self) -> list[dict]:
        return [e.to_dict() for e in self.events]

    @classmethod
    def from_dicts(cls, dicts: Iterable[dict]) -> "FaultPlan":
        return cls.of(FaultEvent(**d) for d in dicts)

    # -- synthesis -------------------------------------------------------
    @classmethod
    def synthesize(
        cls,
        seed: int,
        n_nodes: int,
        horizon_ns: int,
        n_events: int = 3,
        n_pcpus: int = 8,
        kinds: Sequence[str] = KINDS,
    ) -> "FaultPlan":
        """Draw a reproducible random plan: ``n_events`` transient faults
        injected inside the middle of ``[0, horizon_ns]``, every one with
        a bounded duration so it heals before the horizon.  The same
        ``(seed, n_nodes, horizon_ns, n_events)`` always yields the same
        plan, independent of any other RNG consumer."""
        if n_events < 0:
            raise ValueError(f"n_events must be >= 0, got {n_events}")
        if horizon_ns <= 0:
            raise ValueError(f"horizon_ns must be > 0, got {horizon_ns}")
        rng = SimRNG(seed).substream(RNG_KEY)
        events = []
        heal_by = (horizon_ns * 7) // 8
        for _ in range(n_events):
            kind = rng.choice(list(kinds))
            node = int(rng.uniform_ns(0, max(0, n_nodes - 1)))
            at = rng.uniform_ns(horizon_ns // 8, (horizon_ns * 5) // 8)
            dur = rng.uniform_ns(max(1, horizon_ns // 64), max(2, horizon_ns // 8))
            dur = max(1, min(dur, heal_by - at))
            kw: dict = {}
            if kind == "nic_degrade":
                kw["bw_factor"] = 0.25 + 0.75 * rng.random()
                kw["drop_prob"] = 0.05 * rng.random()
            elif kind == "pcpu_straggler":
                kw["pcpu"] = int(rng.uniform_ns(0, max(0, n_pcpus - 1)))
                kw["steal_period_ns"] = rng.uniform_ns(1 * MSEC, 5 * MSEC)
            events.append(
                FaultEvent(kind=kind, at_ns=at, node=node, duration_ns=dur, **kw)
            )
        return cls.of(events).validate(n_nodes, n_pcpus)


def parse_fault_spec(
    spec: Optional[str],
    n_nodes: int,
    horizon_ns: int,
    n_pcpus: int = 8,
) -> Optional[FaultPlan]:
    """Parse a CLI ``--faults`` spec into a validated plan.

    Forms accepted:

    * ``None`` / ``""`` / ``"none"`` — no faults;
    * ``"random:N"`` or ``"random:N:SEED"`` — :meth:`FaultPlan.synthesize`
      with ``N`` events (seed defaults to 0);
    * a string starting with ``[`` — inline JSON list of event dicts;
    * anything else — path to a JSON file holding that list.
    """
    if spec is None or spec == "" or spec == "none":
        return None
    if spec.startswith("random:"):
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad --faults spec {spec!r}; want random:N[:SEED]")
        n = int(parts[1])
        seed = int(parts[2]) if len(parts) == 3 else 0
        return FaultPlan.synthesize(seed, n_nodes, horizon_ns, n_events=n, n_pcpus=n_pcpus)
    if spec.lstrip().startswith("["):
        dicts = json.loads(spec)
    else:
        dicts = json.loads(Path(spec).read_text(encoding="utf-8"))
    return FaultPlan.from_dicts(dicts).validate(n_nodes, n_pcpus)
