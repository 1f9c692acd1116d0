"""Discrete-event simulation kernel.

The :mod:`repro.sim` package provides the deterministic event-scheduling core
every other subsystem is built on:

* :class:`~repro.sim.engine.Simulator` — binary-heap event loop with a
  monotonically non-decreasing clock and stable (time, priority, insertion)
  ordering, so identical seeds replay bit-identically.
* :class:`~repro.sim.process.Timer` / :class:`~repro.sim.process.PeriodicProcess`
  — restartable one-shot and repeating activities layered on the engine.
* :class:`~repro.sim.rng.RandomStreams` — named, independently seeded
  :class:`numpy.random.Generator` substreams derived from a single root seed.
* :mod:`~repro.sim.units` — the speed of light and frame airtime.
* :class:`~repro.sim.trace.Tracer` — structured, filterable event tracing.
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.errors import SchedulingError, SimulationError
from repro.sim.process import PeriodicProcess, Timer
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "EventHandle",
    "PeriodicProcess",
    "RandomStreams",
    "SchedulingError",
    "SimulationError",
    "Simulator",
    "Timer",
    "TraceRecord",
    "Tracer",
]
