"""Observability layer (Xenoprof analog): tracing and self-profiling.

Two independent sub-layers, both read-only with respect to simulation
state (an observed run is bit-identical to an unobserved one):

* :mod:`repro.obs.trace` — a bounded ring buffer of typed trace records
  (scheduling decisions, slice recomputations, VCPU state transitions,
  spin episodes, dom0 packet-path hops, steals) emitted through each
  world's record point (``Simulator.record``) at the existing decision
  points, with JSON-lines and Chrome
  ``trace_event`` exporters (open a run in Perfetto / ``chrome://tracing``).
* :mod:`repro.obs.profiler` — a wall-clock profiler for the simulator
  itself: events/sec, per-category callback time (keyed off the ``cat``
  tag of :meth:`repro.sim.engine.Simulator.at`), heap depth, and
  cancelled-event waste.  ``profile=True`` runs and the end-to-end
  benchmark's per-category split (``benchmarks/e2e``) read it.

The package imports neither module: a world imports the one it builds
(``trace=True`` or ``profile=True``) and an untraced, unprofiled run
loads neither.
"""
