"""Self-profiler: wall-clock performance of the simulator *itself*.

The simulated figures in ``BENCH_*.json`` say nothing about how fast the
simulator runs on the host — CI could not tell if a PR made the event
loop 3× slower.  :class:`SimProfiler` observes the events of a
:class:`~repro.sim.engine.Simulator` (``Simulator.observe``) and measures:

* **events/sec** — callbacks executed per host wall-clock second;
* **per-category attribution** — wall time and call counts keyed by the
  ``cat`` tag passed to ``Simulator.at``/``after`` (``"guest"``,
  ``"dom0"``, ``"vmm.slice"``, ...), so a regression points at the
  subsystem that caused it;
* **max heap depth** — peak pending-event queue length;
* **cancelled-event waste** — fraction of heap pops that were lazily
  cancelled events (the cost of the O(1)-cancel design).

The profiler is host-side observation only: it never touches simulation
state, so a profiled run is bit-identical to an unprofiled one (its
wall-clock numbers are of course not deterministic — which is why the
sweep cache folds the ``profile`` flag into the key only when set).

``clock`` is injectable for deterministic tests.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

__all__ = ["SimProfiler"]

#: Category used for events scheduled without a ``cat`` tag.
UNCATEGORIZED = "uncat"


class SimProfiler:
    """Attach to a simulator and attribute callback wall time by category."""

    __slots__ = (
        "sim",
        "_clock",
        "_t0",
        "categories",
        "max_heap_depth",
        "_base_processed",
        "_base_cancelled",
        "_bucket",
        "_start",
    )

    def __init__(self, sim: "Simulator", clock: Optional[Callable[[], float]] = None) -> None:
        self.sim = sim
        # Host wall-clock; never feeds simulation state (lint-exempt).
        self._clock = clock if clock is not None else time.perf_counter  # repro: ignore[RPR001]
        self._t0 = self._clock()
        #: category -> [calls, wall seconds]
        self.categories: dict[str, list] = {}
        self.max_heap_depth = 0
        self._base_processed = sim.events_processed
        self._base_cancelled = sim.cancelled_popped
        #: The running event's bucket and its start time.
        self._bucket: list = []
        self._start = 0.0
        sim.observe(self._begin)

    # ------------------------------------------------------------------
    def _begin(self, now: int, fn: Callable[[], None], cat: Optional[str], depth: int):
        """Start timing one event (the simulator's event observer).

        ``depth`` is the queue depth *including* the event about to run,
        sampled before the callback schedules successors.  Sampling after
        the pop — as an earlier version did — systematically under-reported
        the true peak by one plus however many successors the deepest
        event scheduled.
        """
        if depth > self.max_heap_depth:
            self.max_heap_depth = depth
        key = cat or UNCATEGORIZED
        bucket = self.categories.get(key)
        if bucket is None:
            bucket = self.categories[key] = [0, 0.0]
        self._bucket = bucket
        self._start = self._clock()
        return self._end

    def _end(self) -> None:
        """Charge the event that just returned to its category."""
        dt = self._clock() - self._start
        bucket = self._bucket
        bucket[0] += 1
        bucket[1] += dt

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Rollup of everything measured since attachment."""
        wall_s = self._clock() - self._t0
        events = self.sim.events_processed - self._base_processed
        cancelled = self.sim.cancelled_popped - self._base_cancelled
        callback_s = sum(b[1] for b in self.categories.values())
        pops = events + cancelled
        return {
            "wall_s": wall_s,
            "events": events,
            "events_per_sec": (events / wall_s) if wall_s > 0 else 0.0,
            "callback_s": callback_s,
            "categories": {
                cat: {"calls": b[0], "wall_s": b[1]}
                for cat, b in sorted(self.categories.items())
            },
            "max_heap_depth": self.max_heap_depth,
            "cancelled_popped": cancelled,
            "cancel_waste_ratio": (cancelled / pops) if pops else 0.0,
        }
