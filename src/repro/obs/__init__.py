"""Observability layer (Xenoprof analog): tracing, metrics, self-profiling.

Three independent sub-layers, all read-only with respect to simulation
state (an observed run is bit-identical to an unobserved one):

* :mod:`repro.obs.trace` — a bounded ring buffer of typed trace records
  (scheduling decisions, slice recomputations, VCPU state transitions,
  spin episodes, dom0 packet-path hops, steals) emitted from lightweight
  hooks at the existing decision points, with JSON-lines and Chrome
  ``trace_event`` exporters (open a run in Perfetto / ``chrome://tracing``).
* :mod:`repro.obs.registry` — named counters / gauges / histograms that
  subsystems register into; :mod:`repro.metrics.collectors` reads its
  per-VM / per-node / cluster rollups from registry snapshots.
* :mod:`repro.obs.profiler` — a wall-clock profiler for the simulator
  itself: events/sec, per-category callback time (keyed off the ``cat``
  tag of :meth:`repro.sim.engine.Simulator.at`), heap depth, and
  cancelled-event waste.  ``profile=True`` runs and the end-to-end
  benchmark's per-category split (``benchmarks/e2e``) read it.
"""

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import TraceLog, TraceRecord
from repro.obs.profiler import SimProfiler

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceLog",
    "TraceRecord",
    "SimProfiler",
]
