"""Discrete-event simulation engine.

A minimal, fast event-queue kernel in the style of classic DES libraries:
every queue entry is a ``(time, key, Event)`` tuple kept in a binary heap
(:mod:`heapq`).  The key (phase and sequence number in one int) breaks
ties deterministically (FIFO among simultaneous events), which keeps
whole-cluster simulations bit-reproducible for a given seed.  Every sift
comparison is a C-level tuple compare of ints; the ``Event`` handle rides
in slot 2 and is never compared.

Design notes (following the repository's HPC-Python guidelines):

* :meth:`Simulator.rearm` is the one place that computes a key and pushes
  an entry; :meth:`Simulator.at` / :meth:`Simulator.after` arm a fresh
  handle through it, and a caller that never cancels drops the handle;
* cancellation is O(1): a cancelled event stays in the queue but is
  skipped when popped (lazy deletion), which is far cheaper than heap
  surgery for the preemption-heavy scheduler workloads simulated here;
* a timer owner (a PCPU's slice expiry, a guest's work/spin/poll timers,
  a dom0 worker) keeps one :class:`Event` and re-arms it in place: no
  handle per arming, and no push when the handle's queued entry sorts no
  later — it moves to the live key on pop;
* callbacks receive no arguments; closures or ``functools.partial`` bind
  whatever context they need.  This keeps the queue entries small.
"""

from __future__ import annotations

from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Callable, Iterator, Optional

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "WatchdogExceeded",
    "install_watchdog",
    "on_simulator_created",
    "simulator_hook",
    "TIE_ORDERS",
    "ACCOUNTING_CATS",
]

#: Optional callable invoked with every newly constructed :class:`Simulator`.
#: Lets the sweep runner's watchdog and the race tracker attach to
#: simulators created deep inside scenario builders without threading a
#: reference through every call site.  ``None`` disables it; install hooks
#: with :func:`simulator_hook` rather than assigning it directly.
on_simulator_created: Optional[Callable[["Simulator"], None]] = None


@contextmanager
def simulator_hook(hook: Callable[["Simulator"], None]) -> Iterator[None]:
    """Call ``hook`` on every :class:`Simulator` constructed inside the
    context, after any hook already installed by an enclosing context.
    The previous hook is restored on exit, exception or not."""
    global on_simulator_created
    outer = on_simulator_created

    def chained(sim: "Simulator") -> None:
        if outer is not None:
            outer(sim)
        hook(sim)

    on_simulator_created = chained
    try:
        yield
    finally:
        on_simulator_created = outer


#: Recognized tie-order modes for events sharing a timestamp.  ``"fifo"``
#: (default) pops simultaneous events in scheduling order; ``"reversed"``
#: inverts the sequence comparison *within* equal timestamps only (times
#: still pop in order).  Any metric difference between a "fifo" and a
#: "reversed" run of the same scenario is a confirmed order-dependence:
#: the result hinges on insertion order among simultaneous events, which
#: nothing in the model specifies (see :mod:`repro.analysis.races`).
TIE_ORDERS = ("fifo", "reversed")

#: Event categories whose callbacks run in the *accounting phase*: at any
#: given timestamp they execute before all other (default-phase) events,
#: regardless of scheduling order or tie-order mode.  This pins down the
#: one intra-timestamp ordering the model genuinely specifies: periodic
#: accounting (credit refresh, ATC slice recomputation, migration rounds
#: riding the period hooks) applies *before* same-instant dispatches and
#: guest activity consume it.  Without the phase, a slice timer expiring
#: exactly on a period boundary raced the period tick for who runs first —
#: a race the tie-order differential flagged on every ATC scenario.
#: ``tie_order="reversed"`` inverts ordering within a phase only, so the
#: accounting-before-consumers contract is part of the semantics, not an
#: accident of insertion order.
ACCOUNTING_CATS = frozenset({"vmm.period"})

#: Phase stride for queue keys: entries are keyed by
#: ``(time, phase * _PHASE_STRIDE + tie_sign * seq)``.  Sequence numbers
#: can never reach 2**53 events, so phase dominates the comparison and
#: ``seq`` breaks ties within a phase.
_PHASE_STRIDE = 1 << 53


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulator (e.g. scheduling in the past)."""


class WatchdogExceeded(SimulationError):
    """A simulation ran past its :func:`install_watchdog` budget.

    The sweep runner treats this as a non-retryable cell failure: a run
    that blew its event or simulated-time budget once will do so again
    deterministically, so retrying would only burn wall clock.
    """


def install_watchdog(
    sim: "Simulator",
    max_events: Optional[int] = None,
    max_now_ns: Optional[int] = None,
) -> None:
    """Arm a simulated-time / event-count watchdog on ``sim``.

    Observes the run's events (:meth:`Simulator.observe`) and raises
    :exc:`WatchdogExceeded` from inside the run loop once either budget is
    exceeded.  Purely observational until it fires: the check reads
    counters the loop maintains anyway, so a run that stays within budget
    is bit-identical with or without the watchdog.
    """
    if max_events is None and max_now_ns is None:
        return
    budget_events = None if max_events is None else sim.events_processed + max_events

    def _watch(now: int, fn: Callable[[], None], cat: Optional[str], depth: int) -> None:
        if budget_events is not None and sim.events_processed >= budget_events:
            raise WatchdogExceeded(
                f"watchdog: event budget {max_events} exhausted at t={now}"
            )
        if max_now_ns is not None and now > max_now_ns:
            raise WatchdogExceeded(
                f"watchdog: simulated time {now} ns past budget {max_now_ns} ns"
            )

    sim.observe(_watch)


class Event:
    """A handle to a scheduled callback.

    :meth:`Simulator.at` / :meth:`Simulator.after` return a fresh, armed
    handle.  A handle built directly (``Event(fn=..., cat=...)``) is
    unarmed until :meth:`Simulator.rearm`, which can arm it again any
    number of times: after it fired or was cancelled, or while it is
    pending (superseding the pending arming).  ``time`` and ``seq`` are
    the live arming's due time and queue key; ``fn`` is kept across
    firing and cancel.
    """

    __slots__ = ("time", "seq", "fn", "cancelled", "cat", "entry")

    def __init__(self, fn: Optional[Callable[[], None]] = None, cat: Optional[str] = None) -> None:
        self.time = 0
        self.seq = 0
        self.fn = fn
        self.cancelled = False
        #: Category tag (``"guest"``, ``"dom0"``, ``"vmm.slice"``, ...): it
        #: sets the event's phase (:data:`ACCOUNTING_CATS`) and is passed to
        #: event observers.
        self.cat = cat
        #: The queue entry standing for this handle (``None``: none is);
        #: its key may sort before the live ``(time, seq)`` (see ``_stale``).
        self.entry: Optional[tuple] = None

    def cancel(self) -> None:
        """Cancel the event; it will not fire (until re-armed).  Idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time} seq={self.seq} {state}>"


class Simulator:
    """The discrete-event simulation kernel.

    Attributes
    ----------
    now:
        Current simulation time in integer nanoseconds.
    events_processed:
        Number of callbacks executed so far (skipped/cancelled events do
        not count).
    tie_order:
        How simultaneous events are ordered: ``"fifo"`` (default) or
        ``"reversed"`` (the race-detector differential mode — see
        :data:`TIE_ORDERS`).
    """

    __slots__ = (
        "now",
        "_heap",
        "tie_order",
        "_seqsign",
        "_seq",
        "events_processed",
        "cancelled_popped",
        "_stopped",
        "observers",
        "record",
    )

    def __init__(self, tie_order: str = "fifo") -> None:
        if tie_order not in TIE_ORDERS:
            raise SimulationError(
                f"unknown tie order {tie_order!r}; expected one of {TIE_ORDERS}"
            )
        self.tie_order = tie_order
        #: Queue entries are keyed by ``(time, _seqsign * seq)``: +1 pops
        #: FIFO among ties, -1 pops LIFO (reversed) among ties.  Stored on
        #: the instance so the hot scheduling path pays one multiply and
        #: no branch, and the (time, seq) key stays a pure int tuple.
        self._seqsign = 1 if tie_order == "fifo" else -1
        self.now: int = 0
        #: The event queue of ``(time, key, Event)`` entries, where ``key``
        #: encodes phase and (sign-adjusted) sequence number in one int;
        #: heapq therefore only ever compares ints, never objects.
        self._heap: list = []
        self._seq: int = 0
        self.events_processed: int = 0
        #: Cancelled events lazily discarded when popped (waste metric).
        self.cancelled_popped: int = 0
        self._stopped = False
        #: Event observers registered by :meth:`observe`, in registration
        #: order; ``None`` (no observer) keeps the loop to one test per event.
        self.observers: Optional[list[Callable]] = None
        #: The world's trace record point: ``record(kind, now, **fields)``,
        #: or ``None`` (untraced).  Emitters test it before building the
        #: fields, so an untraced run pays one test per emit site.
        self.record: Optional[Callable[..., None]] = None
        if on_simulator_created is not None:
            on_simulator_created(self)

    def observe(self, hook: Callable) -> None:
        """Call ``hook(now, fn, cat, depth)`` before each event from now on.

        ``fn`` is the callback about to run at ``now``, ``cat`` its
        category tag and ``depth`` the queue length counting the event.
        A hook may return a callable, which runs after ``fn`` returns;
        those run in reverse registration order, so the last hook
        registered sits closest to the callback.  Hooks only observe: a
        run is bit-identical with or without them.  An exception raised by
        a hook (the watchdog's) ends the run before ``fn`` runs.
        """
        if self.observers is None:
            self.observers = [hook]
        else:
            self.observers.append(hook)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time: int, fn: Callable[[], None], cat: Optional[str] = None) -> Event:
        """Schedule ``fn`` to run at absolute time ``time`` (ns) on a fresh
        handle, returned for cancelling.

        ``cat`` is an optional profiling category tag; the self-profiler
        attributes the callback's wall-clock cost to it.  It has no effect
        on simulation behaviour beyond the phase (:data:`ACCOUNTING_CATS`).
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        return self.rearm(Event(fn=fn, cat=cat), int(time))

    def rearm(self, ev: Event, time: int) -> Event:
        """Arm ``ev`` at absolute time ``time`` (int ns), superseding any
        pending arming, and return it.  It takes one sequence number and
        fires exactly where a fresh :meth:`at` would; if the handle's
        queued entry sorts no later, nothing is pushed (see :meth:`_stale`)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        key = self._seqsign * self._seq
        if ev.cat not in ACCOUNTING_CATS:
            key += _PHASE_STRIDE
        self._seq += 1
        ev.time = time
        ev.seq = key
        ev.cancelled = False
        entry = ev.entry
        if entry is None or time < entry[0] or (time == entry[0] and key < entry[1]):
            ev.entry = entry = (time, key, ev)
            heappush(self._heap, entry)
        return ev

    def after(self, delay: int, fn: Callable[[], None], cat: Optional[str] = None) -> Event:
        """Schedule ``fn`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self.now + int(delay), fn, cat)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop the run loop after the current event returns.

        A stopped run leaves :attr:`now` at the last processed event (the
        clock is *not* advanced to a pending ``until`` deadline), so a
        subsequent :meth:`run` resumes exactly where the stop happened.
        """
        self._stopped = True

    def _stale(self, entry: tuple) -> None:
        """Retire a popped handle entry that does not fire as keyed: drop it
        if the handle was cancelled or re-armed earlier, else re-push it at
        the live ``(time, seq)``.  Counts once in :attr:`cancelled_popped`."""
        self.cancelled_popped += 1
        ev = entry[2]
        if entry is ev.entry:
            if ev.cancelled:
                ev.entry = None
            else:
                ev.entry = entry = (ev.time, ev.seq, ev)
                heappush(self._heap, entry)

    def peek(self) -> Optional[int]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        heap = self._heap
        while heap:
            entry = heap[0]
            ev = entry[2]
            if ev.cancelled or entry[1] != ev.seq:
                self._stale(heappop(heap))
                continue
            return entry[0]
        return None

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if queue empty."""
        done = self.events_processed
        self.run(max_events=1)
        return self.events_processed > done

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` (ns) is reached, or
        ``max_events`` callbacks have executed (``0`` runs none; a
        negative budget raises :exc:`SimulationError`).

        When ``until`` is given and no runnable event at or before it
        remains, the clock is advanced to exactly ``until`` so repeated
        ``run`` calls compose naturally.  This holds on every exit path,
        including ``max_events`` exhaustion: if the budget ran out but the
        queue is drained up to ``until``, the clock still lands on
        ``until``; if runnable events at or before ``until`` remain, the
        clock stays at the last processed event so the next ``run`` call
        resumes without skipping them.  A :meth:`stop` likewise leaves
        ``now`` at the last processed event.
        """
        if max_events is not None and max_events < 0:
            raise SimulationError(f"negative event budget {max_events}")
        self._stopped = False
        # The hot loop pops eagerly and pushes the one over-deadline entry
        # back — cheaper than peek-then-pop per event.  A zero budget gets
        # an empty queue to loop over, so the budget is tested only after
        # an event has run.
        heap = self._heap if max_events != 0 else []
        processed = 0
        while heap and not self._stopped:
            entry = heappop(heap)
            ev = entry[2]
            if ev.cancelled or entry[1] != ev.seq:
                self._stale(entry)
                continue
            if until is not None and entry[0] > until:
                heappush(heap, entry)
                break
            ev.entry = None
            fn = ev.fn
            self.now = entry[0]
            if self.observers is None:
                fn()
            else:
                self._observed(fn, ev.cat, len(heap) + 1)
            self.events_processed += 1
            processed += 1
            if max_events is not None and processed >= max_events:
                break
        if until is not None and self.now < until and not self._stopped:
            nxt = self.peek()
            if nxt is None or nxt > until:
                self.now = until

    def _observed(self, fn: Callable[[], None], cat: Optional[str], depth: int) -> None:
        """Run one event's callback between its observers (see :meth:`observe`)."""
        now = self.now
        afters = []
        for hook in self.observers:
            after = hook(now, fn, cat, depth)
            if after is not None:
                afters.append(after)
        fn()
        for after in reversed(afters):
            after()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def live_events(self) -> Iterator[Event]:
        """Non-cancelled :class:`Event` handles still queued, unordered.
        O(n); introspection/tests only."""
        for entry in self._heap:
            ev = entry[2]
            if entry is ev.entry and not ev.cancelled:
                yield ev

    def pending(self) -> int:
        """Number of events still due to fire (O(n); tests only)."""
        return sum(1 for _ in self.live_events())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now} pending={len(self._heap)}>"
