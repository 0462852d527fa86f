"""Discrete-event simulation kernel used by the parallel database simulator."""

from repro.sim.core import (
    AllOf,
    BatchHop,
    BatchRun,
    BatchTimeout,
    BatchWalk,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    coalescing_enabled,
)
from repro.sim.monitor import TimeWeightedMonitor, ValueMonitor
from repro.sim.resources import Container, PriorityResource, Resource, Store

__all__ = [
    "AllOf",
    "BatchHop",
    "BatchRun",
    "BatchTimeout",
    "BatchWalk",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "coalescing_enabled",
    "Resource",
    "PriorityResource",
    "Container",
    "Store",
    "TimeWeightedMonitor",
    "ValueMonitor",
]
