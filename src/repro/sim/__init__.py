"""Discrete-event simulation core: engine, processes, resources, stats."""

from .engine import Event, Interrupted, SimProcess, SimulationError, Simulator, Timeout
from .resources import Queue, Resource, Signal
from .rng import DeterministicRandom, RngStreams, derive_seed, named_stream
from .stats import (
    BREAKDOWN_CATEGORIES,
    Accumulator,
    Counter,
    StatsRegistry,
    TimeBreakdown,
)

__all__ = [
    "Simulator",
    "SimProcess",
    "Event",
    "Timeout",
    "Interrupted",
    "SimulationError",
    "Resource",
    "Queue",
    "Signal",
    "DeterministicRandom",
    "RngStreams",
    "derive_seed",
    "named_stream",
    "StatsRegistry",
    "Counter",
    "Accumulator",
    "TimeBreakdown",
    "BREAKDOWN_CATEGORIES",
]
