"""Event queue: how the profiler samples queue depth.

The engine-semantics suite (``test_engine.py``) covers the ``at`` /
``after`` / cancel contract.
"""

from repro.obs.profiler import SimProfiler
from repro.sim.engine import Simulator


# ----------------------------------------------------------------------
# Profiler depth accounting (regression)
# ----------------------------------------------------------------------
def test_profiler_depth_includes_running_event():
    """Regression: depth was sampled *after* the pop, so a queue that
    peaked at N events reported N-1.  The loop now passes len(queue)+1
    (pending plus the event being executed)."""
    sim = Simulator()
    prof = SimProfiler(sim)
    for i in range(5):
        sim.at(10 * (i + 1), lambda: None, cat="x")
    sim.run()
    assert prof.report()["max_heap_depth"] == 5
