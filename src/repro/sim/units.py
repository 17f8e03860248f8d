"""Time units for the discrete-event simulator.

All simulation timestamps and durations are **integer nanoseconds**.  An
integer time base avoids floating-point comparison hazards in the event
queue and makes event ordering exactly reproducible across platforms.

The paper quotes time slices in milliseconds (Xen's default credit-scheduler
slice is 30 ms; the derived minimum threshold is 0.3 ms), so the helpers
below convert the units that appear throughout the paper into nanoseconds.
"""

from __future__ import annotations

#: One microsecond in nanoseconds.
USEC = 1_000
#: One millisecond in nanoseconds.
MSEC = 1_000_000
#: One second in nanoseconds.
SEC = 1_000_000_000


def ns_from_us(us: float) -> int:
    """Convert microseconds to integer nanoseconds (rounded)."""
    return round(us * USEC)


def ns_from_ms(ms: float) -> int:
    """Convert milliseconds to integer nanoseconds (rounded)."""
    return round(ms * MSEC)


def ns_from_s(s: float) -> int:
    """Convert seconds to integer nanoseconds (rounded)."""
    return round(s * SEC)


def ms_from_ns(ns: int) -> float:
    """Convert nanoseconds to (float) milliseconds, for reporting."""
    return ns / MSEC


def s_from_ns(ns: int) -> float:
    """Convert nanoseconds to (float) seconds, for reporting."""
    return ns / SEC
