"""Deterministic discrete-event simulation kernel.

This subpackage is the substrate for the cluster and distributed-training
simulators.  It provides a generator-based process model, counted resources
and reproducible named RNG streams.
"""

from repro.sim.events import Event, EventQueue
from repro.sim.kernel import (
    AllOf,
    Process,
    Signal,
    SimulationError,
    Simulator,
    Timeout,
    Waitable,
)
from repro.sim.resources import Resource
from repro.sim.rng import RngRegistry

__all__ = [
    "AllOf",
    "Event",
    "EventQueue",
    "Process",
    "Resource",
    "RngRegistry",
    "Signal",
    "SimulationError",
    "Simulator",
    "Timeout",
    "Waitable",
]
