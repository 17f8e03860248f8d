"""Order-dependence race detection for same-timestamp events.

After PR 6 the engine hot path reduces to a ``(time, phase, seq)`` total
order, which makes any two callbacks at the *same* timestamp with
overlapping state effects a latent race: the outcome silently depends on
insertion order (``seq``), which nothing in the model specifies.  This
module provides the two dynamic halves of the detector (the static half
lives in :mod:`repro.analysis.effects` and
:mod:`repro.analysis.rules.hooks`):

**SAN008 — tie-group access tracking** (:class:`TieRaceTracker`).  An
opt-in sanitizer mode that groups executed events by identical timestamp
and records each event's attribute read/write sets on the core sim
objects (VM / VCPU / PCPU / spinlocks / guest processes).  Two events in
one tie group *suspect* an order dependence when their access sets do not
commute — a write–write or read–write overlap — unless the pair is
ordered anyway:

* one event (transitively) scheduled the other at the same timestamp
  (zero-delay causality: the child can only run after the parent), or
* the two events run in different engine phases
  (:data:`repro.sim.engine.ACCOUNTING_CATS` callbacks always run before
  default-phase events at the same instant — defined semantics, not a
  race).

Tracking is armed by explicitly attaching a tracker; a run without one
executes the exact unmodified code paths (zero cost), and an armed run is
bit-identical to a plain run because every hook is read-only.

**Tie-permutation differential** (:func:`run_differential`).  Suspects
are heuristic; the differential *confirms*: run the same scenario with
``tie_order="fifo"`` and ``tie_order="reversed"`` (inverted ``seq``
comparison within equal timestamps only — see
:data:`repro.sim.engine.TIE_ORDERS`) and diff the result dicts.  Any leaf
difference is a confirmed order dependence — the scenario's results hinge
on an ordering the model never specified.

Known inherent order dependences (reported, not fixable without
delta-cycle event semantics): on lock-heavy workloads sharing hosts
across VMs, a cross-VM wake can land on the same nanosecond as an
independent slice expiry or guest poll on the target PCPU; whether the
wake sees the pre- or post-dispatch state legitimately changes deferred
tickles and preemption.  The period-boundary variant of this class
(accounting tick racing same-instant dispatches) *was* fixable and is
fixed by the engine's accounting phase.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.analysis.sanitizer import SimSanitizer, Violation
from repro.cluster.node import PCPU
from repro.guest.process import GuestProcess
from repro.guest.spinlock import SpinBarrier, SpinLock
from repro.hypervisor.vm import VCPU, VM
from repro.sim.engine import ACCOUNTING_CATS, Simulator, simulator_hook

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import RunSpec

__all__ = [
    "TRACKED_CLASSES",
    "TieRaceTracker",
    "run_differential",
    "diff_values",
    "DEFAULT_CELLS",
    "races_report",
]

#: Classes whose per-event attribute reads/writes the tracker records.
#: All hold scheduler- or guest-visible state that same-timestamp events
#: may contend on.  Every class is slotted, so the trackable attribute
#: set is exactly the union of ``__slots__`` over the MRO.
TRACKED_CLASSES = (VCPU, VM, PCPU, SpinLock, SpinBarrier, GuestProcess)

#: The armed tracker (at most one at a time); module-level so the
#: class-method patches can reach it without per-instance state.
_active: Optional["TieRaceTracker"] = None
_saved_methods: list = []


def _data_attrs(cls: type) -> frozenset:
    names: set = set()
    for c in cls.__mro__:
        names.update(getattr(c, "__slots__", ()))
    return frozenset(n for n in names if not n.startswith("__"))  # repro: ignore[RPR011] -- membership-only set


def _fn_label(fn) -> str:
    """Stable human-readable label for a callback (qualname + instance).
    A ``functools.partial`` (the VMM's per-PCPU slice-expiry callbacks)
    is labelled by the callable it wraps."""
    if isinstance(fn, partial):
        fn = fn.func
    q = getattr(fn, "__qualname__", repr(fn))
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        name = getattr(owner, "name", None)
        return f"{q}[{name if isinstance(name, str) else type(owner).__name__}]"
    return q


class _EventRec:
    """Per-executed-event access record inside the current tie group."""

    __slots__ = ("fn", "label", "phase", "reads", "writes")

    def __init__(self, fn, label: str, phase: int) -> None:
        # Holding ``fn`` pins its id until the group flushes, so ancestor
        # keys (id(fn) of same-group parents) cannot be reused mid-group.
        self.fn = fn
        self.label = label
        self.phase = phase
        self.reads: set = set()
        self.writes: set = set()


class TieRaceTracker:
    """Record per-event read/write sets and flag non-commuting tie pairs.

    Usage::

        tracker = TieRaceTracker()
        tracker.attach(sim)       # arms schedule + attribute instrumentation
        try:
            ...                   # run the simulation
        finally:
            tracker.detach()      # flushes the last group, restores classes
        for v in tracker.suspects:
            print(v.format())     # SAN008 records

    Only one tracker may be armed at a time (the instrumentation is
    class-level).  All hooks are observational: an armed run pops the
    same events in the same order with the same results as a plain run.
    """

    def __init__(self, max_suspects: int = 200) -> None:
        self.sim: Optional[Simulator] = None
        self.suspects: list[Violation] = []
        self.total_suspects = 0
        self.max_suspects = max_suspects
        self.groups_checked = 0
        #: Record of the event currently executing (None between events
        #: and while unarmed) — the attribute wrappers test this.
        self.cur: Optional[_EventRec] = None
        self._group: list[_EventRec] = []
        self._group_time = -1
        #: id(fn) -> set of same-timestamp ancestor ids (zero-delay chains).
        self._ancestors: dict[int, set] = {}
        #: id(fn) -> [cat, refcount] recorded at schedule time; consumed at
        #: pop time to classify the event's phase.
        self._cats: dict[int, list] = {}
        self._obj_labels: dict[int, str] = {}
        self._obj_counter = 0
        #: Reentrancy guard: label computation may invoke ``name``
        #: properties that read other tracked attributes; those reads are
        #: tracker-internal and must be neither recorded nor re-labelled.
        self._labeling = False
        self._prev_trace: Optional[Callable] = None
        self._seen_pairs: set = set()

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def attach(self, sim: Simulator) -> None:
        """Arm on ``sim`` (flushing any previous sim's pending group)."""
        global _active
        if _active is self:
            self._flush()  # scenario built a new world: switch simulators
        elif _active is not None:
            raise RuntimeError("another TieRaceTracker is already armed")
        else:
            _active = self
            _patch_classes()
        self.sim = sim
        self._group_time = -1
        self._ancestors.clear()
        self._cats.clear()
        self._prev_trace = sim.trace

        prev = self._prev_trace

        def trace(now: int, fn) -> None:
            if prev is not None:
                prev(now, fn)
            self._on_pop(now, fn)

        sim.trace = trace

    def detach(self) -> None:
        """Flush the final tie group and restore all patched classes."""
        global _active
        if _active is not self:
            return
        self._flush()
        self.cur = None
        _active = None
        _unpatch_classes()

    # ------------------------------------------------------------------
    # Hooks (called from the patched schedule methods / trace)
    # ------------------------------------------------------------------
    def _on_schedule(self, time: int, fn, cat: Optional[str]) -> None:
        key = id(fn)  # repro: ignore[RPR010] -- identity token, never ordered or persisted
        rec = self._cats.get(key)
        if rec is not None and rec[0] == cat:
            rec[1] += 1
        else:
            self._cats[key] = [cat, 1]
        cur = self.cur
        if cur is not None and time == self.sim.now:
            # Zero-delay child: causally ordered after everything the
            # current event is ordered after, plus the current event.
            parent = id(cur.fn)  # repro: ignore[RPR010] -- identity token, pinned by the event record
            anc = self._ancestors.get(key)
            lineage = self._ancestors.get(parent)
            fresh = {parent} if lineage is None else lineage | {parent}
            self._ancestors[key] = fresh if anc is None else anc | fresh

    def _on_pop(self, now: int, fn) -> None:
        if now != self._group_time:
            self._flush()
            self._group_time = now
        key = id(fn)  # repro: ignore[RPR010] -- identity token, never ordered or persisted
        cat = None
        rec = self._cats.get(key)
        if rec is not None:
            cat = rec[0]
            rec[1] -= 1
            if rec[1] <= 0:
                del self._cats[key]
        phase = 0 if cat in ACCOUNTING_CATS else 1
        ev = _EventRec(fn, _fn_label(fn), phase)
        self._group.append(ev)
        self.cur = ev

    # ------------------------------------------------------------------
    # Tie-group analysis
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        group = self._group
        self.cur = None
        if len(group) >= 2:
            self.groups_checked += 1
            anc = self._ancestors
            n = len(group)
            for i in range(n):
                a = group[i]
                if not (a.writes or a.reads):
                    continue
                a_key = id(a.fn)  # repro: ignore[RPR010] -- identity token, group-local
                a_anc = anc.get(a_key, ())
                for j in range(i + 1, n):
                    b = group[j]
                    if a.phase != b.phase:
                        continue  # cross-phase pairs are ordered by design
                    b_key = id(b.fn)  # repro: ignore[RPR010] -- identity token, group-local
                    if a_key in anc.get(b_key, ()) or b_key in a_anc:
                        continue  # zero-delay causal chain: ordered
                    ww = a.writes & b.writes
                    rw = (a.reads & b.writes) | (b.reads & a.writes)
                    if ww or rw:
                        self._suspect(a, b, ww, rw)
        group.clear()
        # Ancestry is only meaningful within one timestamp.
        self._ancestors.clear()

    def _suspect(self, a: _EventRec, b: _EventRec, ww: set, rw: set) -> None:
        self.total_suspects += 1
        # Dedup by code pattern (callback qualnames + conflicting attribute
        # names), not by instance: one racy code path shows up once, not
        # once per process/VCPU pair per timestamp.
        pattern = (
            frozenset((a.label.partition("[")[0], b.label.partition("[")[0])),
            frozenset(attr for _obj, attr in ww),  # repro: ignore[RPR011] -- equality-only key
            frozenset(attr for _obj, attr in rw),  # repro: ignore[RPR011] -- equality-only key
        )
        if pattern in self._seen_pairs:
            return
        self._seen_pairs.add(pattern)
        if len(self.suspects) >= self.max_suspects:
            return
        conflicts = sorted(f"{obj}.{attr}" for obj, attr in (ww | rw))
        kind = "W-W" if ww else "R-W"
        self.suspects.append(
            Violation(
                code=SimSanitizer.RACE,
                time_ns=self._group_time,
                message=(
                    f"non-commuting same-timestamp pair: {a.label} vs {b.label} "
                    f"({kind} on {', '.join(conflicts)})"
                ),
                context={
                    "a": a.label,
                    "b": b.label,
                    "kind": kind,
                    "attrs": conflicts,
                },
            )
        )

    # ------------------------------------------------------------------
    # Attribute recording (called from the patched class methods)
    # ------------------------------------------------------------------
    def _label_obj(self, obj) -> str:
        key = id(obj)  # repro: ignore[RPR010] -- label cache key for live objects only
        label = self._obj_labels.get(key)
        if label is None:
            self._labeling = True
            try:
                name = getattr(obj, "name", None)
            except Exception:
                name = None
            finally:
                self._labeling = False
            if isinstance(name, str):
                label = name
            else:
                self._obj_counter += 1
                label = f"{type(obj).__name__.lower()}#{self._obj_counter}"
            self._obj_labels[key] = label
        return label


# ----------------------------------------------------------------------
# Class-level instrumentation
# ----------------------------------------------------------------------
def _patch_classes() -> None:
    """Install read/write recording on the tracked classes and the
    schedule methods.  Originals are stacked for :func:`_unpatch_classes`."""
    saved = _saved_methods

    orig_at = Simulator.at
    orig_rearm = Simulator.rearm
    orig_post_at = Simulator.post_at

    def at(self, time, fn, cat=None):
        tr = _active
        if tr is not None and self is tr.sim:
            tr._on_schedule(int(time), fn, cat)
        return orig_at(self, time, fn, cat)

    def rearm(self, ev, time):
        tr = _active
        if tr is not None and self is tr.sim:
            tr._on_schedule(int(time), ev.fn, ev.cat)
        return orig_rearm(self, ev, time)

    def post_at(self, time, fn, cat=None):
        tr = _active
        if tr is not None and self is tr.sim:
            tr._on_schedule(int(time), fn, cat)
        return orig_post_at(self, time, fn, cat)

    for name, orig, patched in (("at", orig_at, at), ("rearm", orig_rearm, rearm),
                                ("post_at", orig_post_at, post_at)):
        saved.append((Simulator, name, orig, True))
        setattr(Simulator, name, patched)

    for cls in TRACKED_CLASSES:
        attrs = _data_attrs(cls)
        had_get = "__getattribute__" in cls.__dict__
        had_set = "__setattr__" in cls.__dict__
        orig_get = cls.__getattribute__
        orig_set = cls.__setattr__

        def __getattribute__(self, name, _orig=orig_get, _attrs=attrs):
            value = _orig(self, name)
            tr = _active
            if tr is not None and name in _attrs and not tr._labeling:
                ev = tr.cur
                if ev is not None:
                    ev.reads.add((tr._label_obj(self), name))
            return value

        def __setattr__(self, name, value, _orig=orig_set, _attrs=attrs):
            tr = _active
            if tr is not None and name in _attrs and not tr._labeling:
                ev = tr.cur
                if ev is not None:
                    ev.writes.add((tr._label_obj(self), name))
            _orig(self, name, value)

        saved.append((cls, "__getattribute__", orig_get, had_get))
        saved.append((cls, "__setattr__", orig_set, had_set))
        cls.__getattribute__ = __getattribute__
        cls.__setattr__ = __setattr__


def _unpatch_classes() -> None:
    while _saved_methods:
        cls, name, orig, had_own = _saved_methods.pop()
        if had_own:
            setattr(cls, name, orig)
        else:
            delattr(cls, name)  # fall back to the inherited implementation


# ----------------------------------------------------------------------
# Tie-permutation differential
# ----------------------------------------------------------------------
def diff_values(forward, reverse, path: str = "") -> list[tuple[str, object, object]]:
    """Recursive leaf diff of two scenario result values.

    Returns ``(path, forward_value, reversed_value)`` triples; an empty
    list means the results are identical (order-independence confirmed
    for everything the scenario measures).
    """
    out: list[tuple[str, object, object]] = []
    if isinstance(forward, dict) and isinstance(reverse, dict):
        for key in sorted(set(forward) | set(reverse), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in forward:
                out.append((sub, "<missing>", reverse[key]))
            elif key not in reverse:
                out.append((sub, forward[key], "<missing>"))
            else:
                out.extend(diff_values(forward[key], reverse[key], sub))
    elif isinstance(forward, (list, tuple)) and isinstance(reverse, (list, tuple)):
        if len(forward) != len(reverse):
            out.append((f"{path}.len", len(forward), len(reverse)))
        for i, (fv, rv) in enumerate(zip(forward, reverse)):
            out.extend(diff_values(fv, rv, f"{path}[{i}]"))
    elif forward != reverse:
        out.append((path, forward, reverse))
    return out


def run_differential(
    scenario: str,
    params: dict,
    sanitize: bool = True,
    track: bool = True,
) -> dict:
    """Run one scenario forward (fifo) and reversed, diff the results.

    The forward run is sanitized and (when ``track``) executed under a
    :class:`TieRaceTracker`, so the report carries both *suspects*
    (SAN008 heuristic pairs) and *confirmed* order dependences (leaf
    diffs between the two runs).  Returns a plain dict::

        {"scenario", "params", "identical", "confirmed", "suspects",
         "suspects_total", "groups_checked"}
    """
    from repro.experiments.runner import SCENARIOS

    fn = SCENARIOS[scenario]
    tracker = TieRaceTracker() if track else None
    try:
        with simulator_hook(tracker.attach) if tracker is not None else nullcontext():
            forward = fn(**{**params, "sanitize": sanitize, "tie_order": "fifo"})
    finally:
        if tracker is not None:
            tracker.detach()

    reverse = fn(**{**params, "sanitize": sanitize, "tie_order": "reversed"})
    confirmed = diff_values(forward, reverse)
    return {
        "scenario": scenario,
        "params": dict(params),
        "identical": not confirmed,
        "confirmed": [
            {"path": p, "forward": f, "reversed": r} for p, f, r in confirmed
        ],
        "suspects": [v.to_dict() for v in tracker.suspects] if tracker else [],
        "suspects_total": tracker.total_suspects if tracker else 0,
        "groups_checked": tracker.groups_checked if tracker else 0,
    }


#: Default cells for ``repro races``, as ``(grid, --set values)`` pairs:
#: type-A cells covering both the paper's baseline (CR) and its
#: contribution (ATC).  Not all of them are tie-order invariant: ``bt``
#: ATC at 2 nodes reports 15 confirmed differences, so ``repro races``
#: exits 1.  That is the wake-vs-dispatch simultaneity documented in the
#: module docstring, known until an explicit same-instant phase order
#: lands (ROADMAP item 1); the cell stays so the defect stays visible.
#: Richer contended cells (e.g. lock-heavy ``lu`` across 2+ shared
#: nodes) report confirmed differences too when run explicitly.
DEFAULT_CELLS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("compare", ("apps=ep", "schedulers=ATC,CR", "nodes=2")),
    ("compare", ("apps=bt", "schedulers=ATC", "nodes=2")),
    ("compare", ("apps=lu", "schedulers=ATC", "nodes=1")),
)


def races_report(specs: Optional[Sequence[RunSpec]] = None, track: bool = True) -> dict:
    """Run the differential over ``specs`` (default: the cells of
    :data:`DEFAULT_CELLS`), each report labelled by its spec's label.

    Returns ``{"schema", "cells": [per-cell reports], "confirmed_total",
    "suspects_total", "clean"}`` — ``clean`` is True when no cell showed
    a confirmed order dependence (suspects alone do not fail a run; they
    are heuristic leads for inspection).
    """
    from repro.experiments.grids import GRIDS, grid_cells

    if specs is None:
        specs = [s for grid, sets in DEFAULT_CELLS for s in grid_cells(GRIDS[grid], sets)]
    reports = [{"label": s.label, **run_differential(s.scenario, s.params, track=track)}
               for s in specs]
    confirmed_total = sum(len(r["confirmed"]) for r in reports)
    return {
        "schema": "repro.races/v1",
        "cells": reports,
        "confirmed_total": confirmed_total,
        "suspects_total": sum(r["suspects_total"] for r in reports),
        "clean": confirmed_total == 0,
    }
