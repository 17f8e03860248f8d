"""Structured tracing: a bounded ring buffer of typed simulation records.

The paper's methodology rests on seeing *when* things happened inside the
stack — the in-guest spinlock monitor of Fig. 3 and the 11-step
packet-path timing of Fig. 4, read through Xenoprof-style counters.  This
module is the reproduction's equivalent: the scheduling and I/O layers
emit records at their existing decision points through their world's one
record point, ``Simulator.record``.  Each site tests that slot before it
builds the record's fields, so an untraced run (slot ``None``) pays one
attribute load + branch per site.

Record kinds (``TraceLog.KINDS``):

``sched.dispatch``
    A scheduling decision: VCPU picked for a PCPU, with the granted slice
    and how long the VCPU sat runnable (Fig. 4 overhead sources 1-4 all
    manifest as this wait).
``sched.wake``
    A blocked VCPU became runnable and was placed on a run queue
    (priority after Credit's boost rules).
``sched.steal``
    Work stealing / balancing moved a VCPU between run queues.
``slice.change``
    A time-slice recomputation: ATC's Algorithm 1/2 per-period pass
    (inputs: per-VM average spin latency; outputs: candidate and applied
    host-min slices) or a vSlicer latency-sensitivity reclassification.
``vcpu.state``
    A RUNNING VCPU was descheduled (slice end, preemption, or block),
    with the time it ran.
``spin.episode``
    A completed guest spin wait (lock / barrier-generation / receive
    busy-wait) — one point of the Fig. 3 spinlock-latency signal.
``pkt.hop``
    One timestamped hop of the Fig. 4 dom0 packet path (``send``,
    ``netback_tx``, ``arrive``, ``delivered``).
``fault.inject``
    A :mod:`repro.faults` plan event fired: node crash, dom0 stall, NIC
    degradation, PCPU straggler, or VM pause (with its target and
    duration).
``fault.heal``
    The matching recovery: restart, resume, or link restoration.
``fault.skip``
    A pause fault found no target — its named VM departed (service
    teardown) or never arrived; the event was counted and dropped.
``migrate.start``
    A live migration began: VM, source/destination nodes, and the memory
    image size the pre-copy phase must move.
``migrate.round``
    One pre-copy round finished: bytes sent, bytes the running guest
    dirtied meanwhile (the residue for the next round), and elapsed time.
``migrate.downtime``
    The stop-and-copy window closed: the VM's blackout duration (the
    pause-to-resume interval, conserved against the engine's accounting).
``migrate.done``
    The migration completed (or aborted, with the reason in ``status``):
    total rounds, bytes, and end-to-end duration.
``service.admit``
    A :mod:`repro.service` tenant was admitted: its app, VM count, node
    assignment, and how long it waited in the queue since submission.
``service.reject``
    A tenant was turned away by the admission policy (no capacity).
``service.depart``
    A tenant finished its rounds and its cluster was torn down: time in
    system and slowdown (time in system over the app's compute bound).
``dfrs.solve``
    A :mod:`repro.dfrs` control round re-solved the cluster's fractional
    allocations: VM count and the per-host minimum yields.
``dfrs.apply``
    One VM's solved (cap, weight) pair was published to its host
    scheduler (applied at the host's next accounting boundary).

A log subscribes to one world: ``sim.record = log.record``.
``CloudWorld`` does so when it is built with ``WorldConfig(trace=True)``,
so the records that ``CloudWorld.start()`` emits at t=0 are kept, and two
traced worlds in one process fill two separate logs.

Exporters: :func:`write_jsonl` (one JSON object per record) and
:func:`write_chrome_trace` (Chrome ``trace_event`` JSON — open in
Perfetto or ``chrome://tracing``; one track per PCPU, plus per-VM guest
tracks and a dom0 packet track per node).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from pathlib import Path

__all__ = [
    "TraceRecord",
    "TraceLog",
    "records_from_dicts",
    "write_jsonl",
    "chrome_events",
    "write_chrome_trace",
]


class TraceRecord:
    """One typed trace record: a kind, a simulation timestamp, and fields."""

    __slots__ = ("kind", "t", "args")

    def __init__(self, kind: str, t: int, args: dict) -> None:
        self.kind = kind
        self.t = t
        self.args = args

    def to_dict(self) -> dict:
        return {"kind": self.kind, "t": self.t, **self.args}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceRecord {self.kind} t={self.t} {self.args}>"


class TraceLog:
    """Bounded ring buffer of :class:`TraceRecord`.

    When full, the *oldest* record is overwritten (the tail of a run is
    usually what matters when a ring fills).  ``total`` counts every
    emitted record and ``by_kind`` every kind, regardless of eviction, so
    summaries stay exact even after wrap-around.
    """

    KINDS = (
        "sched.dispatch",
        "sched.wake",
        "sched.steal",
        "slice.change",
        "vcpu.state",
        "spin.episode",
        "pkt.hop",
        "fault.inject",
        "fault.heal",
        "fault.skip",
        "migrate.start",
        "migrate.round",
        "migrate.downtime",
        "migrate.done",
        "service.admit",
        "service.reject",
        "service.depart",
        "sched.theft",
        "sched.boost_preempt",
        "dfrs.solve",
        "dfrs.apply",
    )

    __slots__ = ("capacity", "_buf", "_next", "total", "dropped", "by_kind")

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"trace capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buf: list[TraceRecord] = []
        self._next = 0  # overwrite cursor once the ring is full
        self.total = 0
        self.dropped = 0
        self.by_kind: dict[str, int] = {}

    # ------------------------------------------------------------------
    def record(self, kind: str, t: int, **args) -> None:
        """Append one record; the signature of ``Simulator.record``."""
        self.total += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        rec = TraceRecord(kind, t, args)
        if len(self._buf) < self.capacity:
            self._buf.append(rec)
        else:
            self._buf[self._next] = rec
            self._next = (self._next + 1) % self.capacity
            self.dropped += 1

    def __len__(self) -> int:
        return len(self._buf)

    def records(self) -> list[TraceRecord]:
        """Retained records in emission (chronological) order."""
        return self._buf[self._next:] + self._buf[: self._next]

    def summary(self, include_records: bool = False) -> dict:
        """Deterministic rollup (sorted kinds; no wall-clock anywhere)."""
        out = {
            "total": self.total,
            "retained": len(self._buf),
            "dropped": self.dropped,
            "capacity": self.capacity,
            "by_kind": {k: self.by_kind[k] for k in sorted(self.by_kind)},
        }
        if include_records:
            out["records"] = [r.to_dict() for r in self.records()]
        return out


def records_from_dicts(dicts: Iterable[dict]) -> list[TraceRecord]:
    """Rebuild :class:`TraceRecord` objects from ``to_dict()`` output
    (scenario results carry traces as plain dicts through the sweep
    cache; the exporters want records back)."""
    return [
        TraceRecord(d["kind"], d["t"], {k: v for k, v in d.items() if k not in ("kind", "t")})
        for d in dicts
    ]


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def write_jsonl(records: Iterable[TraceRecord], path) -> Path:
    """One JSON object per line: ``{"kind", "t", ...fields}``."""
    import json
    from pathlib import Path

    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True))
            fh.write("\n")
    return path


#: Synthetic Chrome thread ids for records that are not bound to a PCPU.
_TID_SCHED = 90  # wake/steal/slice decisions without a PCPU binding
_TID_DOM0 = 91  # packet-path hops
_TID_GUEST_BASE = 100  # per-VM guest tracks (spin episodes), first-seen order


def chrome_events(records: Sequence[TraceRecord]) -> list[dict]:
    """Map trace records onto Chrome ``trace_event`` dicts.

    * ``sched.dispatch`` opens a duration slice (``ph: "B"``) named after
      the VCPU on the (node, PCPU) track; the matching ``vcpu.state``
      deschedule record closes it (``ph: "E"``).  A track starts at its
      first retained dispatch: a deschedule whose dispatch the ring
      buffer evicted is left out, so no track opens with an ``"E"``.
    * Everything else becomes a thread-scoped instant (``ph: "i"``).
    * Metadata events name each process ``node<i>`` and each track.

    Timestamps are microseconds (Chrome's unit); simulation time is
    integer nanoseconds, so ``ts = t / 1000`` is exact to the ns.
    """
    events: list[dict] = []
    tracks: dict[tuple[int, int], str] = {}  # (pid, tid) -> name
    guest_tids: dict[str, int] = {}  # vm name -> synthetic tid
    dispatched: set[tuple[int, int]] = set()  # PCPU tracks with a retained "B"

    def track(pid: int, tid: int, name: str) -> None:
        tracks.setdefault((pid, tid), name)

    for rec in records:
        a = rec.args
        pid = a.get("node", 0)
        ts = rec.t / 1000
        if rec.kind == "sched.dispatch":
            tid = a["pcpu"]
            dispatched.add((pid, tid))
            track(pid, tid, f"pcpu{tid}")
            events.append(
                {
                    "name": a["vcpu"],
                    "cat": "sched",
                    "ph": "B",
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                    "args": {"slice_ns": a.get("slice_ns"), "wait_ns": a.get("wait_ns")},
                }
            )
        elif rec.kind == "vcpu.state":
            tid = a["pcpu"]
            if (pid, tid) not in dispatched:
                continue
            track(pid, tid, f"pcpu{tid}")
            events.append(
                {
                    "name": a["vcpu"],
                    "cat": "sched",
                    "ph": "E",
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                    "args": {"to": a.get("to_state"), "ran_ns": a.get("ran_ns")},
                }
            )
        elif rec.kind == "spin.episode":
            vm = a.get("vm", "?")
            tid = guest_tids.setdefault(vm, _TID_GUEST_BASE + len(guest_tids))
            track(pid, tid, f"guest {vm}")
            events.append(
                {
                    "name": f"spin.{a.get('spin_kind', '?')}",
                    "cat": "guest",
                    "ph": "i",
                    "s": "t",
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                    "args": {"wait_ns": a.get("wait_ns")},
                }
            )
        elif rec.kind == "pkt.hop":
            track(pid, _TID_DOM0, "dom0 pkt")
            events.append(
                {
                    "name": f"pkt.{a.get('hop', '?')}",
                    "cat": "net",
                    "ph": "i",
                    "s": "t",
                    "ts": ts,
                    "pid": pid,
                    "tid": _TID_DOM0,
                    "args": {k: v for k, v in a.items() if k not in ("node", "hop")},
                }
            )
        else:  # sched.wake / sched.steal / slice.change / future kinds
            tid = a.get("pcpu", _TID_SCHED)
            track(pid, tid, f"pcpu{tid}" if "pcpu" in a else "sched")
            events.append(
                {
                    "name": rec.kind,
                    "cat": "sched",
                    "ph": "i",
                    "s": "t",
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                    "args": {k: v for k, v in a.items() if k != "node"},
                }
            )

    meta: list[dict] = []
    for (pid, tid), name in sorted(tracks.items()):
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"node{pid}"},
            }
        )
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )
    return meta + events


def write_chrome_trace(records: Sequence[TraceRecord], path) -> Path:
    """Write a Chrome ``trace_event`` file (Perfetto / chrome://tracing)."""
    import json
    from pathlib import Path

    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"traceEvents": chrome_events(records), "displayTimeUnit": "ms"}
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path
