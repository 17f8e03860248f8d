"""Discrete-event simulation kernel (event queue, clock, deterministic RNG).

This package is the foundation everything else builds on: the cluster,
hypervisor, guest and workload layers all advance time exclusively through
a shared :class:`~repro.sim.engine.Simulator` instance.
"""

from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.rng import SimRNG
from repro.sim.units import (
    MSEC,
    SEC,
    USEC,
    ms_from_ns,
    ns_from_ms,
    ns_from_s,
    ns_from_us,
    s_from_ns,
)

__all__ = [
    "Event",
    "SimulationError",
    "Simulator",
    "SimRNG",
    "USEC",
    "MSEC",
    "SEC",
    "ns_from_us",
    "ns_from_ms",
    "ns_from_s",
    "ms_from_ns",
    "s_from_ns",
]
