"""Exception hierarchy for the simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulator-raised errors."""


class SchedulingError(SimulationError):
    """Raised when an event is scheduled inconsistently.

    Examples: scheduling in the past, scheduling on a finished simulator,
    or cancelling an event twice.
    """

