"""Deterministic discrete-event simulation kernel.

This package is the substrate under every timed component of the PRISM
reproduction: NICs, CPUs, links, and protocol clients are all processes
scheduled by :class:`~repro.sim.kernel.Simulator`. Time is a float
measured in microseconds, matching the units the paper reports.

The kernel is intentionally small (SimPy-flavoured): processes are
generators that ``yield`` :class:`~repro.sim.events.Event` objects and
are resumed when those events trigger.
"""

from repro.sim.events import Event, Interrupt, SimulationError, TimeoutExpired
from repro.sim.kernel import Process, Simulator
from repro.sim.phase import Phase, QuorumError
from repro.sim.resources import BandwidthPipe, Resource, Store
from repro.sim.rng import SeededRng
from repro.sim.stats import LatencyRecorder, ThroughputMeter, summarize

__all__ = [
    "BandwidthPipe",
    "Event",
    "Interrupt",
    "LatencyRecorder",
    "Phase",
    "Process",
    "QuorumError",
    "Resource",
    "SeededRng",
    "SimulationError",
    "Simulator",
    "Store",
    "ThroughputMeter",
    "TimeoutExpired",
    "summarize",
]
