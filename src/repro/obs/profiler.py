"""Self-profiler: wall-clock performance of the simulator *itself*.

The simulated figures in ``BENCH_*.json`` say nothing about how fast the
simulator runs on the host — CI could not tell if a PR made the event
loop 3× slower.  :class:`SimProfiler` attaches to a
:class:`~repro.sim.engine.Simulator` and measures:

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
        sim.profiler = self

    # ------------------------------------------------------------------
    def run_event(self, cat: Optional[str], fn: Callable[[], None], depth: int) -> None:
        """Execute one event callback under timing (called by the engine).

        ``depth`` is the queue depth *including* the event being run (the
        engine passes ``len(queue) + 1`` before the callback schedules
        successors).  Sampling after the pop — as an earlier version did —
        systematically under-reported the true peak by one plus however
        many successors the deepest event scheduled.
        """
        if depth > self.max_heap_depth:
            self.max_heap_depth = depth
        t0 = self._clock()
        fn()
        dt = self._clock() - t0
        bucket = self.categories.get(cat or UNCATEGORIZED)
        if bucket is None:
            self.categories[cat or UNCATEGORIZED] = [1, dt]
        else:
            bucket[0] += 1
            bucket[1] += dt

    def detach(self) -> None:
        """Stop profiling (the simulator reverts to the plain loop)."""
        if self.sim.profiler is self:
            self.sim.profiler = None

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
