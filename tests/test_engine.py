"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import (
    SimulationError,
    Simulator,
    WatchdogExceeded,
    install_watchdog,
)
from repro.sim.units import USEC


def test_initial_state(sim):
    assert sim.now == 0
    assert sim.events_processed == 0
    assert sim.pending() == 0
    assert sim.peek() is None


def test_events_fire_in_time_order(sim):
    order = []
    sim.at(30, lambda: order.append("c"))
    sim.at(10, lambda: order.append("a"))
    sim.at(20, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_fifo_among_simultaneous_events(sim):
    order = []
    for i in range(10):
        sim.at(5, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_after_is_relative(sim):
    sim.at(100, lambda: None)
    sim.run()
    times = []
    sim.after(7, lambda: times.append(sim.now))
    sim.run()
    assert times == [107]


def test_cannot_schedule_in_past(sim):
    sim.at(50, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(10, lambda: None)


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.after(-1, lambda: None)


def test_cancel_skips_event(sim):
    fired = []
    ev = sim.at(10, lambda: fired.append(1))
    ev.cancel()
    sim.run()
    assert fired == []
    assert sim.events_processed == 0


def test_cancel_is_idempotent(sim):
    ev = sim.at(10, lambda: None)
    ev.cancel()
    ev.cancel()
    sim.run()


def test_run_until_stops_clock_exactly(sim):
    fired = []
    sim.at(10, lambda: fired.append(10))
    sim.at(100, lambda: fired.append(100))
    sim.run(until=50)
    assert fired == [10]
    assert sim.now == 50
    sim.run()
    assert fired == [10, 100]


def test_run_until_includes_boundary_events(sim):
    fired = []
    sim.at(50, lambda: fired.append(50))
    sim.run(until=50)
    assert fired == [50]


def test_run_resumes_after_until(sim):
    sim.at(10, lambda: None)
    sim.run(until=5)
    assert sim.now == 5
    sim.run(until=20)
    assert sim.events_processed == 1


def test_stop_halts_loop(sim):
    fired = []
    sim.at(1, lambda: fired.append(1))
    sim.at(2, sim.stop)
    sim.at(3, lambda: fired.append(3))
    sim.run()
    assert fired == [1]
    sim.run()
    assert fired == [1, 3]


def test_max_events(sim):
    for i in range(10):
        sim.at(i, lambda: None)
    sim.run(max_events=4)
    assert sim.events_processed == 4


def test_max_events_zero_runs_nothing(sim):
    fired = []
    for t in (10, 20, 30):
        sim.at(t, lambda t=t: fired.append(t))
    sim.run(max_events=0)
    assert fired == [] and sim.events_processed == 0 and sim.now == 0
    sim.run(until=5, max_events=0)  # nothing due by 5: the clock still lands
    assert sim.now == 5 and sim.pending() == 3
    sim.run(max_events=1)
    assert fired == [10] and sim.events_processed == 1


def test_negative_max_events_rejected(sim):
    sim.at(10, lambda: None)
    with pytest.raises(SimulationError, match="negative event budget"):
        sim.run(max_events=-1)
    assert sim.events_processed == 0 and sim.pending() == 1


def test_step_single_event(sim):
    fired = []
    sim.at(5, lambda: fired.append(1))
    assert sim.step() is True
    assert fired == [1]
    assert sim.step() is False


def test_events_scheduled_during_run_fire(sim):
    order = []

    def first():
        order.append("first")
        sim.after(5, lambda: order.append("second"))

    sim.at(10, first)
    sim.run()
    assert order == ["first", "second"]
    assert sim.now == 15


def test_zero_delay_event_fires_at_same_time_later_seq(sim):
    order = []

    def outer():
        sim.after(0, lambda: order.append("inner"))
        order.append("outer")

    sim.at(10, outer)
    sim.run()
    assert order == ["outer", "inner"]
    assert sim.now == 10


def test_peek_skips_cancelled(sim):
    ev = sim.at(5, lambda: None)
    sim.at(9, lambda: None)
    ev.cancel()
    assert sim.peek() == 9


def test_pending_counts_only_live_events(sim):
    evs = [sim.at(i + 1, lambda: None) for i in range(5)]
    evs[0].cancel()
    evs[3].cancel()
    assert sim.pending() == 3


def test_event_ordering_operator():
    """Queue entries order by ``(time, key)`` as int tuples; the handle in
    slot 2 defines no ordering, so a heap sift never compares it."""
    sim = Simulator()
    a = sim.at(10, lambda: None)
    b = sim.at(10, lambda: None)
    c = sim.at(5, lambda: None)
    assert c.entry < a.entry < b.entry
    with pytest.raises(TypeError):
        a < b


def test_large_volume_determinism():
    """Two identical simulations process events identically."""

    def build():
        s = Simulator()
        log = []

        def rec(tag):
            log.append((s.now, tag))

        for i in range(1000):
            s.at((i * 37) % 500, lambda i=i: rec(i))
        s.run()
        return log

    assert build() == build()


def test_float_times_coerced_to_int(sim):
    sim.at(10.7, lambda: None)
    assert sim.peek() == 10


def test_max_events_with_until_advances_drained_clock(sim):
    """Regression: max_events exhaustion must still finalize the clock when
    no runnable event at or before ``until`` remains, so repeated
    ``run(until=now+horizon)`` calls compose."""
    for i in range(3):
        sim.at(i * 10, lambda: None)
    sim.run(until=50, max_events=3)
    assert sim.events_processed == 3
    assert sim.now == 50  # drained up to the deadline -> lands on it


def test_max_events_keeps_clock_when_events_remain(sim):
    fired = []
    sim.at(10, lambda: fired.append(10))
    sim.at(20, lambda: fired.append(20))
    sim.run(until=50, max_events=1)
    assert fired == [10]
    assert sim.now == 10  # event at 20 is still runnable; don't skip past it
    sim.run(until=50)
    assert fired == [10, 20]
    assert sim.now == 50


def test_max_events_with_later_events_advances_to_until(sim):
    sim.at(10, lambda: None)
    sim.at(100, lambda: None)
    sim.run(until=50, max_events=1)
    assert sim.now == 50  # only remaining event is beyond the deadline


def test_stop_leaves_clock_at_last_event(sim):
    sim.at(10, sim.stop)
    sim.at(100, lambda: None)
    sim.run(until=50)
    assert sim.now == 10


def test_stop_before_run_is_cleared_on_entry(sim):
    """run() arms a fresh loop: a stale stop() from outside the loop must
    not suppress the next run."""
    fired = []
    sim.stop()
    sim.at(5, lambda: fired.append(1))
    sim.run()
    assert fired == [1]


def test_stop_preserves_fifo_among_simultaneous_events(sim):
    """Stopping mid-timestamp must not reorder the remaining same-time
    events on resume."""
    order = []
    # deliberate same-instant appends: the test asserts the engine's FIFO
    # tie-break, so the "race" RPR040/041 flags is the property under test
    sim.at(10, lambda: order.append("a"))  # repro: ignore[RPR040,RPR041]
    sim.at(10, sim.stop)
    sim.at(10, lambda: order.append("b"))  # repro: ignore[RPR040,RPR041]
    sim.at(10, lambda: order.append("c"))  # repro: ignore[RPR040,RPR041]
    sim.run()
    assert order == ["a"]
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 10


def test_stop_then_run_until_does_not_advance_clock(sim):
    """A stopped run never rounds the clock up to ``until``; the deadline
    only applies to the run that reaches it."""
    sim.at(10, sim.stop)
    sim.run(until=500)
    assert sim.now == 10
    sim.run(until=500)  # queue empty -> drains to the deadline
    assert sim.now == 500


def test_peek_lazily_discards_cancelled_prefix(sim):
    evs = [sim.at(i + 1, lambda: None) for i in range(4)]
    evs[0].cancel()
    evs[1].cancel()
    assert sim.cancelled_popped == 0
    assert sim.peek() == 3  # pops the two cancelled heads
    assert sim.cancelled_popped == 2
    assert sim.peek() == 3  # idempotent: nothing further discarded
    assert sim.cancelled_popped == 2


def test_peek_empty_after_all_cancelled(sim):
    evs = [sim.at(i + 1, lambda: None) for i in range(3)]
    for ev in evs:
        ev.cancel()
    assert sim.peek() is None
    assert sim.cancelled_popped == 3
    assert sim.pending() == 0


def test_cancelled_popped_counts_every_lazy_discard(sim):
    """run()/step()/peek() jointly account for each cancelled event exactly
    once, and none of them executes or bumps events_processed."""
    keep = []
    live = [sim.at(10 * (i + 1), lambda i=i: keep.append(i)) for i in range(3)]
    dead = [sim.at(5 * (i + 1), lambda: keep.append("dead")) for i in range(4)]
    for ev in dead:
        ev.cancel()
    live[1].cancel()
    sim.run()
    assert keep == [0, 2]
    assert sim.events_processed == 2
    assert sim.cancelled_popped == 5


def test_cancel_after_peek_discard_is_harmless(sim):
    ev = sim.at(5, lambda: None)
    sim.at(9, lambda: None)
    ev.cancel()
    assert sim.peek() == 9  # ev discarded from the heap here
    ev.cancel()  # handle outlives the heap entry; still idempotent
    sim.run()
    assert sim.events_processed == 1


# ----------------------------------------------------------------------
# install_watchdog: budget enforcement via the event point
# ----------------------------------------------------------------------
def test_watchdog_event_budget_raises(sim):
    install_watchdog(sim, max_events=3)
    for i in range(10):
        sim.at(i, lambda: None)
    with pytest.raises(WatchdogExceeded, match="event budget"):
        sim.run()
    assert sim.events_processed == 3


def test_watchdog_sim_time_budget_raises(sim):
    install_watchdog(sim, max_now_ns=100)
    sim.at(50, lambda: None)
    sim.at(200, lambda: None)
    with pytest.raises(WatchdogExceeded, match="simulated time"):
        sim.run()
    assert sim.now == 200  # the offending event is where it fired


def test_watchdog_budget_is_relative_to_install_point(sim):
    for i in range(5):
        sim.at(i, lambda: None)
    sim.run()
    install_watchdog(sim, max_events=3)
    for i in range(5):
        sim.after(1 + i, lambda: None)
    with pytest.raises(WatchdogExceeded):
        sim.run()
    assert sim.events_processed == 8  # 5 before + 3 budgeted after


def test_watchdog_chains_existing_trace_hook(sim):
    seen = []
    sim.observe(lambda t, fn, cat, depth: seen.append(t))
    install_watchdog(sim, max_events=100)
    sim.at(7, lambda: None)
    sim.run()
    assert seen == [7]  # the earlier observer still fires
    assert len(sim.observers) == 2


def test_watchdog_without_budgets_is_a_no_op(sim):
    install_watchdog(sim)
    assert sim.observers is None


def test_watchdog_within_budget_leaves_run_untouched(sim):
    order = []
    for i in range(5):
        sim.at(i, lambda i=i: order.append(i))
    install_watchdog(sim, max_events=50, max_now_ns=1 * USEC)
    sim.run()
    assert order == list(range(5))
