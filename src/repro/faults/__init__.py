"""Declarative fault injection and resilience metrics.

The one fault model is a node crash and its recovery.  Expand a
:class:`FaultPlan` from a JSON-able spec via :func:`plan_from_spec`
(``poisson_crashes`` or a literal ``events`` list), bind it to a built
network with :class:`FaultInjector`, and read recovery behaviour off the
:class:`ResilienceCollector`.  The scenario layer wires all three from
``ScenarioConfig(fault_spec=...)``; see ``docs/PROTOCOLS.md``
§"Fault model".
"""

from repro.faults.events import (
    FaultEvent,
    FaultPlan,
    NodeCrash,
    NodeRecover,
    plan_from_spec,
    poisson_crashes,
)
from repro.faults.injector import FaultInjector
from repro.faults.metrics import FaultEpisode, ResilienceCollector

__all__ = [
    "FaultEvent",
    "FaultEpisode",
    "FaultInjector",
    "FaultPlan",
    "NodeCrash",
    "NodeRecover",
    "ResilienceCollector",
    "plan_from_spec",
    "poisson_crashes",
]
