"""Host-speed sampling for the end-to-end benchmark.

On a shared host the speed of the same Python code drifts by tens of
percent within seconds, in both directions, so raw host times of the
same rep spread by 20-40%.  While a rep runs, :class:`Sampler`
therefore interrupts it every ``PERIOD_S`` (``SIGALRM``) and times a
fixed slice of a pure-Python loop shaped like an event loop: heap pushes
and pops of ``(time, seq, callback)`` entries, a bound-method call per
event and a dict store.  :func:`nominal_s` converts each stretch of the
rep's own time to the time it would have taken on a host that runs one
slice in ``NOMINAL_S``, using the slices on either side of it.  The loop
is part of the benchmark, so no change to ``src/`` can move it, and it
touches no simulator state, so a sampled rep is bit-identical to an
unsampled one.
"""

import math
import signal
import time
from heapq import heapify, heappop, heappush

__all__ = ["NOMINAL_S", "PERIOD_S", "Sampler", "nominal_s"]

#: Close to the fastest slice seen between stretches of simulator work on
#: a shared 2-core x86-64 host (Python 3.11), so that host times there
#: come out nearly unscaled when the host is quiet.
NOMINAL_S = 0.0015
#: Host time between the end of one slice and the start of the next.
PERIOD_S = 0.02
SLICE_EVENTS = 1000
WARMUP_SLICES = 20


class _Node:
    __slots__ = ("busy", "count")

    def __init__(self) -> None:
        self.busy = 0
        self.count = 0

    def on_event(self, t: int) -> None:
        self.count += 1
        self.busy += t & 7


def _clock() -> float:
    return time.perf_counter()  # repro: ignore[RPR001]  (host wall-clock only)


class Sampler:
    """Context manager: times one loop slice on entry, on exit and every
    ``PERIOD_S`` of host time in between.  ``samples`` holds
    ``(start_s, duration_s)`` of each slice, on the
    :func:`time.perf_counter` clock."""

    def __init__(self) -> None:
        self._nodes = [_Node() for _ in range(64)]
        self._heap = [(i * 7919 % 10007, i, self._nodes[i % 64].on_event) for i in range(4096)]
        heapify(self._heap)
        self._table = {}
        self._seq = len(self._heap)
        self._saved = None
        self._active = False
        self.samples = []

    def _slice(self) -> None:
        heap, nodes, table, seq = self._heap, self._nodes, self._table, self._seq
        for _ in range(SLICE_EVENTS):
            t, _, fn = heappop(heap)
            fn(t)
            seq += 1
            table[seq & 1023] = t
            heappush(heap, (t + seq * 2654435761 % 1000, seq, nodes[seq % 64].on_event))
        self._seq = seq

    def _sample(self, *_) -> None:
        t0 = _clock()
        self._slice()
        self.samples.append((t0, _clock() - t0))
        # Re-armed after the slice, so slices never overlap; never after
        # __exit__, whose restored default handler would end the process.
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self) -> "Sampler":
        for _ in range(WARMUP_SLICES):
            self._slice()
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        self._active = True
        self._sample()  # a slice on each side of even the shortest rep
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        signal.signal(signal.SIGALRM, self._saved)


def nominal_s(samples: list, start: float, end: float) -> float:
    """Host time in ``[start, end]`` outside the slices, at nominal speed.

    Each stretch between two slices is scaled by ``NOMINAL_S`` over the
    mean duration of those two slices; the stretches before the first
    and after the last slice use that slice alone.  ``start`` and ``end``
    must not fall inside a slice.
    """
    total = 0.0
    prev_end, prev_d = -math.inf, samples[0][1]
    for t0, d in [*samples, (math.inf, samples[-1][1])]:
        lo, hi = max(prev_end, start), min(t0, end)
        if hi > lo:
            total += (hi - lo) * NOMINAL_S / ((prev_d + d) / 2)
        prev_end, prev_d = t0 + d, d
    return total
