"""Last-level-cache (LLC) warmth model.

The paper's Section III-B measures, with Xenoprof, how *shorter* time slices
increase LLC misses: every context switch between VCPUs evicts part of the
previous VCPU's working set, so the next time that VCPU runs it pays a
refill penalty.  This is the mechanism behind the performance inflection
point in Figure 8 (e.g. ~0.2 ms for ``lu.C``): below the inflection the
per-dispatch refill + context-switch cost grows faster than the spinlock
latency shrinks.

Model
-----
For each PCPU we remember, per VCPU, when it last ran there.  When a VCPU
is dispatched after being away for ``away_ns``, its cache warmth has
decayed as ``exp(-away_ns / decay_tau_ns)`` (other VCPUs have been evicting
its lines), so it pays::

    penalty_ns = refill_ns * sensitivity * (1 - exp(-away_ns / decay_tau_ns))

as extra guest-visible compute time, and ``penalty_ns / miss_cost_ns`` LLC
misses are charged to the counters.  A VCPU re-dispatched onto the same
PCPU it just left (nothing ran in between) pays nothing.  ``sensitivity``
is a per-workload multiplier (``stream`` is far more cache-sensitive than
``ping``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sim.units import MSEC, USEC

__all__ = ["CacheParams", "PCPUCache"]


@dataclass(frozen=True)
class CacheParams:
    """Tunables of the LLC warmth model.

    Defaults are calibrated so that with 4x CPU over-commitment the
    per-dispatch overhead is negligible at the 30 ms default slice, a few
    percent around the paper's 0.3 ms threshold, and dominant below
    ~0.1 ms — reproducing the Figure 8 inflection.
    """

    #: Full working-set refill penalty after a long absence (ns).
    refill_ns: int = 30 * USEC
    #: Warmth decay time constant while the VCPU is off this PCPU (ns).
    decay_tau_ns: int = 2 * MSEC
    #: Approximate cost of one LLC miss (ns); used to convert penalty time
    #: into a miss count for the Xenoprof-style counters.
    miss_cost_ns: int = 100


class PCPUCache:
    """Per-PCPU cache state: who ran last, and when each VCPU last ran here.

    Keys are opaque hashables identifying VCPUs (identity is fine).
    """

    __slots__ = ("params", "last_key", "_last_seen", "total_miss_count", "total_penalty_ns")

    def __init__(self, params: CacheParams | None = None) -> None:
        self.params = params or CacheParams()
        self.last_key: object | None = None
        self._last_seen: dict[object, int] = {}
        self.total_miss_count: int = 0
        self.total_penalty_ns: int = 0

    def on_dispatch(self, now: int, key: object, sensitivity: float = 1.0) -> tuple[int, int]:
        """Record that ``key`` starts running at ``now``.

        Returns ``(penalty_ns, miss_count)`` the dispatched VCPU must pay.
        """
        p = self.params
        if key is self.last_key:
            # Back-to-back slices of the same VCPU: the cache is still hot.
            return 0, 0
        last = self._last_seen.get(key)
        if last is None:
            warm = 0.0  # never ran here: fully cold
        else:
            away = now - last
            warm = math.exp(-away / p.decay_tau_ns) if away < 64 * p.decay_tau_ns else 0.0
        penalty = int(p.refill_ns * sensitivity * (1.0 - warm))
        misses = penalty // p.miss_cost_ns
        self.last_key = key
        self.total_penalty_ns += penalty
        self.total_miss_count += misses
        return penalty, misses

    def on_undispatch(self, now: int, key: object) -> None:
        """Record that ``key`` stops running at ``now`` (slice end/block)."""
        self._last_seen[key] = now
