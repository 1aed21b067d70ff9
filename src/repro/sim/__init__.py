"""Discrete-event simulation substrate (engine, RNG streams, tracing)."""

from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "Event",
    "SimulationError",
    "Simulator",
    "RngRegistry",
    "derive_seed",
    "TraceRecord",
    "Tracer",
]
