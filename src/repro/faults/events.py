"""Declarative fault events, plans, and the stochastic crash generator.

A :class:`FaultPlan` is a list of node crashes and recoveries describing
*which relay goes down and when*, independent of any particular network
instance — the :class:`~repro.faults.injector.FaultInjector` binds a plan
to a built network and schedules it on the sim engine.  A plan is
declared as a JSON-able spec (:func:`plan_from_spec`) inside
:class:`~repro.experiments.scenario.ScenarioConfig`, so a chaos run
hashes into the parallel executor's content-addressed task ids like any
other parameter.

:class:`NodeCrash` takes the whole stack down (routing silenced, MAC
flushed, radio off) until a matching :class:`NodeRecover`.

The stochastic generator :func:`poisson_crashes` expands a few parameters
into a concrete plan; it draws from a caller-provided RNG so a scenario's
:class:`~repro.sim.rng.RandomStreams` makes the expansion — and hence the
whole chaos run — seed-deterministic.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, ClassVar, Iterable

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "NodeCrash",
    "NodeRecover",
    "plan_from_spec",
    "poisson_crashes",
]


def _check_event(node: int, at_s: float) -> None:
    if node < 0:
        raise ValueError(f"node id must be ≥ 0, got {node}")
    if not (math.isfinite(at_s) and at_s >= 0):
        raise ValueError(f"event time must be finite and ≥ 0, got {at_s!r}")


@dataclass(slots=True, frozen=True)
class NodeCrash:
    """Node ``node`` fails completely at ``at_s`` (stack down, radio off)."""

    node: int
    at_s: float

    KIND: ClassVar[str] = "node_crash"

    def __post_init__(self) -> None:
        _check_event(self.node, self.at_s)


@dataclass(slots=True, frozen=True)
class NodeRecover:
    """Node ``node`` comes back up at ``at_s`` (no-op unless crashed)."""

    node: int
    at_s: float

    KIND: ClassVar[str] = "node_recover"

    def __post_init__(self) -> None:
        _check_event(self.node, self.at_s)


FaultEvent = NodeCrash | NodeRecover

_EVENT_TYPES: dict[str, type] = {cls.KIND: cls for cls in (NodeCrash, NodeRecover)}


@dataclass(slots=True)
class FaultPlan:
    """An ordered collection of fault events.

    Events are kept in insertion order; :meth:`sorted_events` yields them
    by start time (stable), which is the order the injector schedules.
    """

    events: list[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        for ev in self.events:
            if type(ev) not in _EVENT_TYPES.values():
                raise ValueError(f"not a fault event: {ev!r}")

    def sorted_events(self) -> list[FaultEvent]:
        """Events by start time (stable on ties)."""
        return sorted(self.events, key=lambda ev: ev.at_s)

    def validate(self, node_count: int) -> None:
        """Check every referenced node id exists in an n-node network."""
        for ev in self.events:
            if ev.node >= node_count:
                raise ValueError(
                    f"{ev.KIND} references node {ev.node} but the network "
                    f"has only {node_count} nodes"
                )

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        """Build a plan from ``{"events": [{"kind": ..., ...}, ...]}``;
        unknown kinds and unknown keys are rejected loudly (stale specs
        fail fast)."""
        events: list[FaultEvent] = []
        for entry in data.get("events", []):
            entry = dict(entry)
            kind = entry.pop("kind", None)
            ev_cls = _EVENT_TYPES.get(kind)
            if ev_cls is None:
                raise ValueError(
                    f"unknown fault event kind {kind!r}; choose from "
                    f"{sorted(_EVENT_TYPES)}"
                )
            field_names = {f.name for f in dataclasses.fields(ev_cls)}
            unknown = set(entry) - field_names
            if unknown:
                raise ValueError(
                    f"unknown {ev_cls.__name__} keys: {sorted(unknown)}"
                )
            events.append(ev_cls(**entry))
        return cls(events)


# ---------------------------------------------------------------------- #
# Stochastic generator
# ---------------------------------------------------------------------- #
def poisson_crashes(
    rate_per_s: float,
    mttr_s: float,
    *,
    nodes: Iterable[int],
    rng: Any,
    start_s: float = 0.0,
    stop_s: float,
) -> FaultPlan:
    """Poisson crash process over ``nodes`` with exponential repair.

    Crash arrivals form a Poisson process of network-wide intensity
    ``rate_per_s`` on ``[start_s, stop_s)``; each crash picks a uniform
    victim among the currently-up nodes' pool and schedules recovery after
    an Exp(``mttr_s``) outage.  A victim drawn while still down is skipped
    (the arrival is consumed), keeping the expansion deterministic for a
    given ``rng`` state.
    """
    if not rate_per_s > 0:
        raise ValueError(f"crash rate must be positive, got {rate_per_s!r}")
    if not mttr_s > 0:
        raise ValueError(f"mttr must be positive, got {mttr_s!r}")
    if stop_s <= start_s:
        raise ValueError("stop_s must be after start_s")
    pool = list(nodes)
    if not pool:
        raise ValueError("need at least one crashable node")
    events: list[FaultEvent] = []
    down_until: dict[int, float] = {}
    t = start_s
    while True:
        t += float(rng.exponential(1.0 / rate_per_s))
        if t >= stop_s:
            break
        victim = int(pool[int(rng.integers(0, len(pool)))])
        if down_until.get(victim, -math.inf) > t:
            continue  # victim still down; the arrival fizzles
        recover_at = t + float(rng.exponential(mttr_s))
        down_until[victim] = recover_at
        events.append(NodeCrash(node=victim, at_s=t))
        events.append(NodeRecover(node=victim, at_s=recover_at))
    return FaultPlan(events)


# ---------------------------------------------------------------------- #
# Declarative spec → plan expansion
# ---------------------------------------------------------------------- #
def _spec_keys(spec: dict[str, Any], required: set[str], optional: set[str]) -> None:
    keys = set(spec) - {"kind"}
    missing = required - keys
    if missing:
        raise ValueError(
            f"fault spec {spec.get('kind')!r} missing keys: {sorted(missing)}"
        )
    unknown = keys - required - optional
    if unknown:
        raise ValueError(
            f"unknown fault spec keys for {spec.get('kind')!r}: {sorted(unknown)}"
        )


def plan_from_spec(
    spec: dict[str, Any],
    *,
    streams: Any,
    node_count: int,
    sim_time_s: float,
) -> FaultPlan:
    """Expand a JSON-able fault spec into a concrete :class:`FaultPlan`.

    Spec kinds:

    * ``{"kind": "events", "events": [...]}`` — a literal plan
      (:meth:`FaultPlan.from_dict` layout);
    * ``{"kind": "poisson_crashes", "rate_per_s": r, "mttr_s": m,
      ["start_s", "stop_s", "nodes"]}`` — stochastic crashes seeded from
      the scenario's ``"faults.plan"`` random stream.

    ``streams`` is the scenario's :class:`~repro.sim.rng.RandomStreams`;
    drawing from a dedicated named stream keeps fault expansion from
    perturbing traffic/MAC/PHY randomness, so adding faults to a scenario
    leaves the fault-free portion of the run bit-identical.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"fault spec must be a dict, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind == "events":
        _spec_keys(spec, required={"events"}, optional=set())
        plan = FaultPlan.from_dict(spec)
    elif kind == "poisson_crashes":
        _spec_keys(
            spec,
            required={"rate_per_s", "mttr_s"},
            optional={"start_s", "stop_s", "nodes"},
        )
        plan = poisson_crashes(
            spec["rate_per_s"],
            spec["mttr_s"],
            nodes=spec.get("nodes") or range(node_count),
            rng=streams.stream("faults.plan"),
            start_s=spec.get("start_s", 0.0),
            stop_s=spec.get("stop_s", sim_time_s),
        )
    else:
        raise ValueError(
            f"unknown fault spec kind {kind!r}; choose from "
            "['events', 'poisson_crashes']"
        )
    plan.validate(node_count)
    return plan
