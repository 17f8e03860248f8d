"""Re-armable event handles (``Simulator.rearm``).

A timer owner keeps one :class:`Event` for its lifetime and re-arms it
in place.  Every firing must happen at exactly the ``(time, key)`` a
fresh ``at()`` would have given it, so the differential test below runs
random interleavings against a reference that allocates a new handle
per arming and cancels the old one.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.races import TieRaceTracker
from repro.guest.spinlock import SpinLock
from repro.sim.engine import Event, SimulationError, Simulator

N_HANDLES = 3
#: One handle runs in the accounting phase, so phase keys are exercised.
CATS = ("guest", "vmm.slice", "vmm.period")


class _Owners:
    """``N_HANDLES`` timer owners; each firing logs ``(now, name)`` and
    runs the owner's next scripted reaction (arm or cancel a handle)."""

    def __init__(self, sim: Simulator, reactions, log: list) -> None:
        self.sim = sim
        self.reactions = [list(r) for r in reactions]
        self.log = log

    def fire(self, i: int) -> None:
        self.log.append((self.sim.now, f"h{i}"))
        if self.reactions[i]:
            op, j, dt = self.reactions[i].pop(0)
            if op == "arm":
                self.arm(j, self.sim.now + dt)
            else:
                self.cancel(j)


class _Rearmed(_Owners):
    def __init__(self, sim, reactions, log) -> None:
        super().__init__(sim, reactions, log)
        self.handles = [Event(fn=partial(self.fire, i), cat=CATS[i]) for i in range(N_HANDLES)]

    def arm(self, i: int, t: int) -> None:
        self.sim.rearm(self.handles[i], t)

    def cancel(self, i: int) -> None:
        self.handles[i].cancel()


class _Fresh(_Owners):
    """Reference: a new handle per arming, the old one cancelled."""

    def __init__(self, sim, reactions, log) -> None:
        super().__init__(sim, reactions, log)
        self.handles = [None] * N_HANDLES

    def arm(self, i: int, t: int) -> None:
        self.cancel(i)
        self.handles[i] = self.sim.at(t, partial(self.fire, i), cat=CATS[i])

    def cancel(self, i: int) -> None:
        if self.handles[i] is not None:
            self.handles[i].cancel()


def _drive(owners_cls, tie_order: str, ops, reactions) -> list:
    """Apply ``ops``, then drain; return everything observable."""
    sim = Simulator(tie_order=tie_order)
    log: list = []
    owners = owners_cls(sim, reactions, log)
    seen = []
    for op in ops:
        kind = op[0]
        if kind == "arm":
            owners.arm(op[1], sim.now + op[2])
        elif kind == "cancel":
            owners.cancel(op[1])
        elif kind == "at":
            sim.at(sim.now + op[1], partial(log.append, (sim.now + op[1], "at")))
        elif kind == "run":
            sim.run(until=sim.now + op[1])
            seen.append(("run", sim.now, sim.events_processed))
        elif kind == "step":
            seen.append(("step", sim.step(), sim.now))
        else:
            seen.append(("peek", sim.peek(), sim.pending()))
    sim.run()
    seen.append(("end", sim.now, sim.events_processed, sim.pending()))
    return [log, seen]


_handle = st.integers(0, N_HANDLES - 1)
_dt = st.integers(0, 4)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("arm"), _handle, _dt),
        st.tuples(st.just("cancel"), _handle),
        st.tuples(st.just("at"), _dt),
        st.tuples(st.just("run"), _dt),
        st.tuples(st.just("step")),
        st.tuples(st.just("peek")),
    ),
    max_size=40,
)
_reactions = st.lists(
    st.lists(st.tuples(st.sampled_from(["arm", "cancel"]), _handle, st.integers(0, 3)), max_size=4),
    min_size=N_HANDLES,
    max_size=N_HANDLES,
)


@pytest.mark.parametrize("tie_order", ["fifo", "reversed"])
@settings(max_examples=300, deadline=None)
@given(ops=_ops, reactions=_reactions)
def test_rearm_fires_exactly_where_fresh_at_would(tie_order, ops, reactions):
    """Same firing sequence ``(now, callback)``, the same clock after
    every ``run``/``step``, the same ``peek``/``pending`` and the same
    ``events_processed`` as arming a fresh handle every time."""
    assert _drive(_Rearmed, tie_order, ops, reactions) == _drive(_Fresh, tie_order, ops, reactions)


# ----------------------------------------------------------------------
# Unit tests: the queue-side rules
# ----------------------------------------------------------------------
def _handle_at(sim, t, log, cat="guest"):
    ev = Event(fn=lambda: log.append(sim.now), cat=cat)
    sim.rearm(ev, t)
    return ev


def test_later_rearm_pushes_nothing_and_moves_the_entry_on_pop(sim):
    log = []
    ev = _handle_at(sim, 10, log)
    sim.rearm(ev, 20)
    assert len(sim._heap) == 1
    assert list(sim.live_events()) == [ev] and sim.pending() == 1
    assert sim.peek() == 20  # the entry popped at 10 and was re-pushed at 20
    assert sim.cancelled_popped == 1
    assert sim.step() and log == [20] and sim.now == 20
    assert not sim.step()
    assert sim.events_processed == 1


def test_earlier_rearm_supersedes_the_queued_entry(sim):
    log = []
    ev = _handle_at(sim, 20, log)
    sim.rearm(ev, 10)
    assert len(sim._heap) == 2
    assert list(sim.live_events()) == [ev] and sim.pending() == 1
    sim.run()
    assert log == [10]
    assert sim.events_processed == 1
    assert sim.cancelled_popped == 1  # the superseded entry, dropped unrun
    assert sim.now == 10


def test_cancelled_then_rearmed_handle_reuses_its_entry(sim):
    log = []
    ev = _handle_at(sim, 10, log)
    ev.cancel()
    assert sim.pending() == 0 and list(sim.live_events()) == []
    sim.rearm(ev, 15)
    assert len(sim._heap) == 1
    assert sim.pending() == 1 and list(sim.live_events()) == [ev]
    assert sim.step() and log == [15]
    assert list(sim.live_events()) == [] and sim.pending() == 0


def test_cancelled_entry_is_dropped_and_the_next_arm_pushes(sim):
    log = []
    ev = _handle_at(sim, 10, log)
    ev.cancel()
    assert sim.peek() is None
    assert ev.entry is None and sim.cancelled_popped == 1
    sim.rearm(ev, 12)
    assert len(sim._heap) == 1
    sim.run()
    assert log == [12] and sim.events_processed == 1


def test_fired_handle_rearms_from_its_own_callback(sim):
    log = []
    ev = Event(cat="guest")

    def tick():
        log.append(sim.now)
        if sim.now < 30:
            sim.rearm(ev, sim.now + 10)

    ev.fn = tick
    sim.rearm(ev, 10)
    sim.run()
    assert log == [10, 20, 30]
    assert sim.events_processed == 3 and sim.cancelled_popped == 0


def test_handle_keeps_fn_across_firing_and_cancel(sim):
    fn = lambda: None  # noqa: E731
    ev = sim.at(5, fn)
    sim.run()
    assert ev.fn is fn
    sim.rearm(ev, 7)
    ev.cancel()
    assert ev.fn is fn


def test_rearm_in_the_past_is_rejected(sim):
    sim.at(50, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.rearm(Event(fn=lambda: None), 10)


def test_same_instant_rearm_takes_a_fresh_key(sim):
    """A re-arm to the same instant consumes a sequence number: under fifo
    it fires after an event scheduled in between."""
    log = []
    ev = Event(fn=lambda: log.append("ev"))
    sim.rearm(ev, 5)
    sim.at(5, lambda: log.append("other"))
    sim.rearm(ev, 5)
    assert len(sim._heap) == 2  # no earlier key: nothing pushed
    sim.run()
    assert log == ["other", "ev"]


def test_same_instant_rearm_under_reversed_ties_pushes():
    sim = Simulator(tie_order="reversed")
    log = []
    ev = Event(fn=lambda: log.append("ev"))
    sim.rearm(ev, 5)
    sim.at(5, lambda: log.append("other"))
    sim.rearm(ev, 5)
    assert len(sim._heap) == 3  # reversed: the new key sorts earlier
    sim.run()
    assert log == ["ev", "other"]
    assert sim.cancelled_popped == 1


# ----------------------------------------------------------------------
# Race tracker
# ----------------------------------------------------------------------
def _tracked_pair(from_callback: bool) -> TieRaceTracker:
    """An event writes a tracked attribute; a re-armed poll reads it at
    the same instant.  ``from_callback`` arms the poll from inside the
    writer (a zero-delay child), else both are armed up front."""
    sim = Simulator()
    tracker = TieRaceTracker()
    tracker.attach(sim)
    lk = SpinLock("lk")
    poll = Event(fn=lambda: lk.holder, cat="guest")

    def writer():
        lk.holder = None
        if from_callback:
            sim.rearm(poll, sim.now)

    try:
        sim.at(5, writer)
        if not from_callback:
            sim.rearm(poll, 5)
        sim.run()
    finally:
        tracker.detach()
    return tracker


def test_race_tracker_records_a_rearmed_poll_as_the_armers_child():
    assert _tracked_pair(from_callback=True).total_suspects == 0
    # Control: the same pair with no causal link is a suspect.
    assert _tracked_pair(from_callback=False).total_suspects == 1


def test_race_tracker_records_one_schedule_per_arming(monkeypatch):
    """``at`` and ``after`` arm through ``rearm``: the tracker's one patch
    sees each call exactly once, with the armed time."""
    sim = Simulator()
    tracker = TieRaceTracker()
    seen = []
    monkeypatch.setattr(tracker, "_on_schedule", lambda time, fn: seen.append((time, fn)))
    fns = [lambda: None for _ in range(3)]
    tracker.attach(sim)
    try:
        sim.at(5, fns[0])
        sim.after(7, fns[1])
        sim.rearm(Event(fn=fns[2]), 9)
    finally:
        tracker.detach()
    assert seen == [(5, fns[0]), (7, fns[1]), (9, fns[2])]
    sim.at(11, fns[0])  # detached: nothing recorded
    assert len(seen) == 3
