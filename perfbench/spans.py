"""Outside-in spans for the traced benchmark run.

The traced run times each layer without editing ``src/``: it replaces the
functions below with wrappers for the duration of one scenario or burst,
then puts the originals back.  A span is one call of a wrapped function;
its layer is the ``repro.<module>`` the function belongs to (the issue's
assignment for the ``NodeStack`` entry points: ``send_data`` is traffic,
``fail``/``recover`` are faults).  Spans are aggregated in memory, per
name and per (caller span, span) edge, and written out when the run ends.

Self time is a span's duration minus the time of the spans it caused, so
MAC work nested inside a PHY reception counts as MAC, not PHY (the
engine profiler's ``layers`` column groups by the callback's module
instead, which charges it to PHY).  ``sim`` self time is what the event
loop spends outside every wrapped callback, including unwrapped timer and
process plumbing in ``repro.sim``.

Wrapping must happen before ``build_network``: stacks capture bound
methods of the wrapped classes when they are wired together.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable

LAYERS = (
    "sim", "phy", "mac", "net", "core", "topology", "faults", "traffic",
    "metrics", "experiments", "exec",
)

#: Engine-profiler stride: counts stay exact, only every Nth callback is
#: timed.
PROFILE_STRIDE = 64


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out += _subclasses(sub)
    return out


def span_targets() -> list[tuple[Any, str, str]]:
    """``(owner, attribute, layer)`` for every function the trace wraps.

    Owners are classes (methods found in their own ``__dict__``) or
    modules (functions looked up by name at call time).
    """
    from repro.core.cross_layer import CrossLayerBus
    from repro.core.forwarding_policy import LoadAdaptiveGossip
    from repro.core.load_metric import LoadEstimator, NeighbourhoodLoad
    from repro.core.nlr import NlrRouting
    from repro.exec import CampaignExecutor, CheckpointStore
    from repro.experiments import runner
    from repro.faults.injector import FaultInjector
    from repro.mac.csma import CsmaMac
    from repro.metrics.flowstats import FlowStatsCollector
    from repro.net.aodv import AodvRouting
    from repro.net.hello import HelloService
    from repro.net.node import NodeStack
    from repro.net.routing_base import RoutingProtocol
    from repro.phy import channel as channel_module
    from repro.phy import radio as radio_module
    from repro.phy.channel import Channel
    from repro.phy.radio import Radio
    from repro.sim.engine import Simulator
    from repro.topology.mobility import RandomWaypoint
    from repro.traffic.generators import Source, OnOffSource
    from repro.traffic.sink import PacketSink

    table: list[tuple[Any, str, tuple[str, ...]]] = [
        (Simulator, "sim", ("run",)),
        (Channel, "phy", ("transmit", "warm_plans")),
        (Radio, "phy", (
            "transmit", "_tx_end", "on_rx_start", "on_rx_end",
            "set_power_state",
        )),
        # The channel schedules the block handlers through its own module
        # globals, so both modules' names are wrapped.
        (radio_module, "phy", ("rx_start_block", "rx_end_block")),
        (channel_module, "phy", ("rx_start_block", "rx_end_block")),
        (CsmaMac, "mac", (
            "send", "_on_phy_rx", "_on_cca", "_on_tx_done", "_on_tx_abort",
            "_on_timer", "_send_pending_response", "_nav_expired",
            "_data_after_cts", "shutdown", "restart",
        )),
        (AodvRouting, "net", (
            "on_send_result", "_discovery_timeout", "_close_reply_window",
            "_rebroadcast_rreq",
        )),
        (HelloService, "net", ("_beacon", "on_hello")),
        (NodeStack, "net", ("send_mac", "_on_mac_rx", "_on_mac_done", "_deliver")),
        (LoadAdaptiveGossip, "core", ("decide",)),
        (NeighbourhoodLoad, "core", ("value",)),
        (LoadEstimator, "core", ("on_sample",)),
        (CrossLayerBus, "core", ("_sample",)),
        (NlrRouting, "core", ("_process_duplicate_rreq", "_handle_link_failure")),
        (Channel, "topology", ("move_many",)),
        (RandomWaypoint, "topology", ("_tick",)),
        (NodeStack, "faults", ("fail", "recover")),
        (FaultInjector, "faults", ("_guarded",)),
        (NodeStack, "traffic", ("send_data",)),
        (Source, "traffic", ("_emit",)),
        (OnOffSource, "traffic", ("_emit",)),
        (PacketSink, "traffic", ("_on_packet",)),
        (FlowStatsCollector, "metrics", ("on_send", "on_receive")),
        # run_scenario resolves these through the runner module's globals.
        (runner, "metrics", ("collect_result",)),
        (runner, "experiments", ("build_network",)),
        (CampaignExecutor, "exec", ("run",)),
        (CheckpointStore, "exec", ("load", "store")),
    ]
    # Routing entry points, on every protocol class that defines them.
    for cls in _subclasses(RoutingProtocol):
        attrs = tuple(a for a in ("on_packet", "send_data") if a in cls.__dict__)
        if attrs:
            table.append((cls, "net", attrs))
    return [(owner, attr, layer) for owner, layer, attrs in table for attr in attrs]


def span_name(owner: Any, attr: str, layer: str) -> str:
    """``layer:Owner.attr`` (``layer:attr`` for module functions)."""
    if isinstance(owner, type):
        return f"{layer}:{owner.__name__}.{attr}"
    return f"{layer}:{attr}"


class SpanRecorder:
    """Aggregates the spans of wrapped calls made inside :meth:`traced`."""

    def __init__(self) -> None:
        #: span name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list[float]] = {}
        #: (caller span or "", span) -> calls
        self.edges: dict[tuple[str, str], int] = {}
        self.forwards = 0          # LoadAdaptiveGossip.decide -> forward
        self.engine_events = 0     # logical events inside Simulator.run
        self._stack: list[list] = []
        self._targets = span_targets()

    # ------------------------------------------------------------------ #
    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        edges = self.edges
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            caller = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                key = (caller, name)
                edges[key] = edges.get(key, 0) + 1

        return functools.update_wrapper(wrapper, fn)

    def _counted_run(self, run: Callable) -> Callable:
        def counted(sim, *args, **kwargs):
            before = sim.events_executed
            try:
                return run(sim, *args, **kwargs)
            finally:
                self.engine_events += sim.events_executed - before

        return functools.update_wrapper(counted, run)

    def _counted_decide(self, decide: Callable) -> Callable:
        def counted(policy, ctx):
            decision = decide(policy, ctx)
            if decision.forward:
                self.forwards += 1
            return decision

        return functools.update_wrapper(counted, decide)

    def install(self) -> list[tuple[Any, str, Any]]:
        """Swap every target for its wrapper; returns what to restore."""
        from repro.core.forwarding_policy import LoadAdaptiveGossip
        from repro.sim.engine import Simulator

        saved = []
        for owner, attr, layer in self._targets:
            original = (
                owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr)
            )
            fn = original
            if owner is Simulator:
                fn = self._counted_run(fn)
            elif owner is LoadAdaptiveGossip:
                fn = self._counted_decide(fn)
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span_name(owner, attr, layer), fn))
        return saved

    @staticmethod
    def uninstall(saved: list[tuple[Any, str, Any]]) -> None:
        """Put back what :meth:`install` replaced."""
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    def traced(self, fn: Callable, *args):
        """``fn(*args)`` with every target wrapped."""
        saved = self.install()
        try:
            return fn(*args)
        finally:
            self.uninstall(saved)

    # ------------------------------------------------------------------ #
    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0,))[0])

    def total_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0))[1]

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer, summed over its spans."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.spans.items():
            out[name.split(":", 1)[0]] += self_s
        return out

    def calls_of(self, layer: str, attr: str) -> int:
        """Calls of ``attr`` summed over every owner wrapped in ``layer``."""
        return int(sum(
            stats[0] for name, stats in self.spans.items()
            if name == f"{layer}:{attr}"
            or (name.startswith(f"{layer}:") and name.endswith(f".{attr}"))
        ))

    def dump(self) -> dict[str, Any]:
        """JSON-ready span table (written out when the run ends)."""
        return {
            "spans": {
                name: {"calls": int(c), "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.spans.items())
                if c
            },
            "edges": [
                {"caller": caller, "span": span, "calls": n}
                for (caller, span), n in sorted(self.edges.items())
            ],
        }


def profiled_batch_mean(fn: Callable, *args) -> tuple[Any, float]:
    """``fn(*args)`` with an engine profiler on every ``Simulator.run``.

    Returns the result and the logical events per heap entry the profiler
    saw.  This is a pass of its own, outside the spans, so the profiler's
    per-event bookkeeping never counts as ``sim`` self time.
    """
    from repro.obs.profiler import EngineProfiler
    from repro.sim.engine import Simulator

    run = Simulator.__dict__["run"]
    profilers = []

    def profiled(sim, *a, **kw):
        profilers.append(EngineProfiler(sample_every=PROFILE_STRIDE))
        sim.set_profiler(profilers[-1])
        try:
            return run(sim, *a, **kw)
        finally:
            sim.set_profiler(None)

    Simulator.run = functools.update_wrapper(profiled, run)
    try:
        result = fn(*args)
    finally:
        Simulator.run = run
    events = entries = 0
    for profiler in profilers:
        for row in profiler.as_dict()["callbacks"]:
            events += row["events"]
            entries += (
                row["events"] - row.get("batched_events", 0)
                + row.get("batches", 0)
            )
    return result, events / entries if entries else 0.0
