"""Schedules a :class:`~repro.faults.events.FaultPlan` onto a live network.

The :class:`FaultInjector` is the binding layer between declarative fault
events and the simulation: it turns each crash and recovery into an
engine callback at :meth:`start` that drives ``NodeStack.fail/recover``,
traces it under category ``"fault"``, and feeds onset/clear notifications
to a :class:`~repro.faults.metrics.ResilienceCollector`.

Invariants:

* **Faults never raise.**  Every scheduled action runs through a guard
  that records (trace + ``errors`` counter) instead of propagating, so a
  pathological plan degrades metrics, not the run.
* **Idempotent primitives.**  Crashing a crashed node or recovering a
  live one is a silent no-op, so overlapping crash/recover pairs on one
  node compose without event-ordering contracts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.faults.events import FaultPlan, NodeCrash
from repro.sim.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.scenario import Network
    from repro.faults.metrics import ResilienceCollector

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies a fault plan to a built network.

    Parameters
    ----------
    net:
        A :class:`~repro.experiments.scenario.Network` built with the real
        PHY/MAC (``mac="csma"``) — the perfect MAC has no radio to fail.
    plan:
        The declarative fault plan; validated against the network here.
    collector:
        Optional resilience collector receiving onset/clear notifications.
    """

    def __init__(
        self,
        net: "Network",
        plan: FaultPlan,
        collector: "ResilienceCollector | None" = None,
    ) -> None:
        plan.validate(len(net.stacks))
        if net.channel is None:
            raise SimulationError(
                "fault injection needs the real PHY/MAC (mac='csma'); "
                "PerfectMac has no radio or channel to fail"
            )
        self.net = net
        self.sim = net.sim
        self.plan = plan
        self.collector = collector
        self.tracer = net.tracer
        self.started = False
        #: Actions applied / faults that raised (must stay 0; see module
        #: docstring — tests assert on it).
        self.applied = 0
        self.errors = 0
        self._handles: list[Any] = []
        self._down: set[int] = set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Expand the plan into scheduled engine events."""
        if self.started:
            return
        self.started = True
        for ev in self.plan.sorted_events():
            if isinstance(ev, NodeCrash):
                self._at(ev.at_s, self._crash_node, ev.node)
            else:
                self._at(ev.at_s, self._recover_node, ev.node)

    def stop(self) -> None:
        """Cancel pending fault events at the end of a run (crashed nodes
        stay down: the run is over)."""
        for handle in self._handles:
            if not handle.expired:
                handle.cancel()
        self._handles.clear()

    # ------------------------------------------------------------------ #
    # Scheduling plumbing
    # ------------------------------------------------------------------ #
    def _at(self, time_s: float, fn, *args) -> None:
        """Schedule a guarded fault action (past times clamp to now)."""
        self._handles.append(
            self.sim.schedule(
                max(time_s, self.sim.now), self._guarded, fn, *args
            )
        )

    def _guarded(self, fn, *args) -> None:
        try:
            fn(*args)
            self.applied += 1
        except Exception as exc:  # noqa: BLE001 - faults must never raise
            self.errors += 1
            self.tracer.record(
                self.sim.now, "fault", -1, "fault_error",
                action=getattr(fn, "__name__", str(fn)), error=repr(exc),
            )

    def _notify(self, node: int, *, onset: bool) -> None:
        self.tracer.record(
            self.sim.now, "fault", node,
            f"node_crash_{'onset' if onset else 'clear'}", key=node,
        )
        if self.collector is not None:
            self.collector.on_fault(
                "node_crash", time=self.sim.now, onset=onset, key=node
            )

    # ------------------------------------------------------------------ #
    # Node crash / recover
    # ------------------------------------------------------------------ #
    def _crash_node(self, node: int) -> None:
        if node in self._down:
            return
        self._down.add(node)
        self.net.stacks[node].fail()
        self._notify(node, onset=True)

    def _recover_node(self, node: int) -> None:
        if node not in self._down:
            return
        self._down.discard(node)
        self.net.stacks[node].recover()
        self._notify(node, onset=False)
