"""Scenario construction: one config dataclass → a ready-to-run network.

A :class:`ScenarioConfig` captures everything a run depends on — topology,
PHY/MAC, protocol variant, traffic — and :func:`build_network` assembles
the full stack deterministically from the config's seed.  The protocol
registry covers every scheme in the evaluation plus the ablation variants
(DESIGN.md §3).

Default parameters are the ns-2-era conventions the paper family uses
(Table 1): 802.11b PHY at 11 Mb/s data / 2 Mb/s basic rate, two-ray ground
propagation, 250 m transmission and 550 m carrier-sense range, 5×5 mesh
grid at 200 m spacing, 512-byte CBR flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.nlr import NlrConfig, NlrRouting
from repro.faults import (
    FaultInjector,
    FaultPlan,
    ResilienceCollector,
    plan_from_spec,
)
from repro.net.dsdv import DsdvConfig, DsdvRouting
from repro.obs.profiler import EngineProfiler
from repro.obs.sinks import JsonlTraceSink, RingSink
from repro.obs.spec import attach_observability
from repro.mac.csma import CsmaMac, MacConfig, make_timer_batch_handler
from repro.mac.perfect import PerfectMac, PerfectMacNetwork
from repro.metrics.flowstats import FlowStatsCollector
from repro.net.aodv import AodvConfig, AodvRouting
from repro.net.gossip import CounterBasedPolicy, FixedProbabilityGossip
from repro.net.node import NodeStack
from repro.net.routing_base import RoutingProtocol
from repro.net.static_routing import RouteOracle, StaticRouting
from repro.phy.channel import Channel
from repro.phy.propagation import LogNormalShadowing, TwoRayGround
from repro.phy.radio import PhyConfig, Radio
from repro.sim.engine import Simulator
from repro.sim.process import Timer
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer
from repro.topology.gateway import select_gateways
from repro.topology.graph import connectivity_graph, ensure_connected_positions
from repro.topology.mobility import RandomWaypoint, StaticMobility
from repro.topology.placement import chain_positions, grid_positions, random_positions
from repro.traffic.flows import FlowSpec, gateway_flows, random_flow_pairs
from repro.traffic.generators import CbrSource, OnOffSource, PoissonSource, Source
from repro.traffic.sink import PacketSink
from repro.util.validation import canonical_json_value

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["ScenarioConfig", "Network", "build_network", "PROTOCOLS"]

#: Transmission range implied by the default PHY thresholds (metres).
DEFAULT_TX_RANGE_M = 250.0


@dataclass(slots=True)
class ScenarioConfig:
    """Everything one simulation run depends on.

    Attributes are grouped: identity, topology, PHY/MAC, protocol,
    traffic, measurement.  See module docstring for the defaults'
    provenance.
    """

    # Identity ---------------------------------------------------------- #
    protocol: str = "nlr"
    seed: int = 1

    # Topology ---------------------------------------------------------- #
    topology: str = "grid"          # "grid" | "random" | "chain"
    grid_nx: int = 5
    grid_ny: int = 5
    spacing_m: float = 200.0
    n_nodes: int = 25               # for "random" / "chain"
    area_m: tuple[float, float] = (1000.0, 1000.0)
    shadowing_sigma_db: float = 0.0

    # PHY / MAC --------------------------------------------------------- #
    phy: PhyConfig = field(default_factory=PhyConfig)
    mac: str = "csma"               # "csma" | "perfect"
    mac_config: MacConfig = field(default_factory=MacConfig)
    propagation_delay: bool = True
    #: Batched simulation kernel (DESIGN.md §8): block-event fan-out,
    #: vectorised SINR/capture decisions, slot-batched CSMA timers.
    #: Byte-identical to the scalar engine; off by default so the scalar
    #: path stays the reference oracle.
    batched_kernel: bool = False

    # Protocol ---------------------------------------------------------- #
    aodv: AodvConfig = field(default_factory=AodvConfig)
    nlr: NlrConfig = field(default_factory=NlrConfig)
    gossip_p: float = 0.65
    counter_threshold: int = 3

    # Mobility ---------------------------------------------------------- #
    mobility: str = "static"        # "static" | "rwp"
    speed_range: tuple[float, float] = (1.0, 5.0)
    pause_s: float = 2.0
    mobility_update_s: float = 0.2
    #: Fraction of nodes that roam under "rwp" (the highest-index ones);
    #: the rest stay put — the WMN regime of mobile clients over a static
    #: router backbone.  1.0 = classic all-nodes random waypoint.
    mobile_fraction: float = 1.0

    # Traffic ----------------------------------------------------------- #
    n_flows: int = 8
    flow_rate_pps: float = 4.0
    payload_bytes: int = 512
    traffic: str = "cbr"            # "cbr" | "poisson" | "onoff"
    flow_pattern: str = "random"    # "random" | "gateway"
    n_gateways: int = 1
    flow_start_s: float = 1.0
    flow_stagger_s: float = 0.5

    # Faults ------------------------------------------------------------ #
    #: Declarative fault spec expanded at build time by
    #: :func:`repro.faults.plan_from_spec` (JSON-able, so chaos campaigns
    #: hash into exec cells like any other parameter).  ``None`` = healthy.
    fault_spec: dict | None = None
    #: Concrete :class:`~repro.faults.FaultPlan` (programmatic use; also
    #: serialisable).  Mutually exclusive with ``fault_spec``.
    fault_plan: FaultPlan | None = None

    # Measurement ------------------------------------------------------- #
    sim_time_s: float = 60.0
    warmup_s: float = 5.0
    #: Trace spec (see :mod:`repro.obs.spec`): JSON-able, so it
    #: content-hashes into exec cells.  Set = tracing on (``{}`` records
    #: in memory only); ``None`` = off.
    trace_spec: dict | None = None
    #: Attach the engine profiler (wall-time per callback); off by default
    #: — profiling output is wall-clock and never enters metrics snapshots.
    profile: bool = False

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; choose from "
                f"{sorted(PROTOCOLS)}"
            )
        if self.topology not in ("grid", "random", "chain"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.mac not in ("csma", "perfect"):
            raise ValueError(f"unknown mac {self.mac!r}")
        if self.traffic not in ("cbr", "poisson", "onoff"):
            raise ValueError(f"unknown traffic model {self.traffic!r}")
        if self.flow_pattern not in ("random", "gateway"):
            raise ValueError(f"unknown flow pattern {self.flow_pattern!r}")
        if not 0.0 < self.gossip_p <= 1.0:
            raise ValueError(
                f"gossip_p must be in (0, 1], got {self.gossip_p!r}"
            )
        if self.counter_threshold < 1:
            raise ValueError(
                f"counter_threshold must be ≥ 1, got {self.counter_threshold!r}"
            )
        if self.mobility not in ("static", "rwp"):
            raise ValueError(f"unknown mobility model {self.mobility!r}")
        if self.mobility == "rwp" and self.mac != "csma":
            raise ValueError(
                "random-waypoint mobility needs the real PHY/MAC "
                "(PerfectMac adjacency is static)"
            )
        if not 0.0 < self.mobile_fraction <= 1.0:
            raise ValueError(
                f"mobile_fraction must be in (0, 1], got {self.mobile_fraction!r}"
            )
        if self.sim_time_s <= self.warmup_s:
            raise ValueError("sim_time_s must exceed warmup_s")
        if self.n_flows < 1:
            raise ValueError(f"n_flows must be ≥ 1, got {self.n_flows!r}")
        if not self.flow_rate_pps > 0:
            # ``not >`` also rejects NaN.
            raise ValueError(
                f"flow_rate_pps must be positive, got {self.flow_rate_pps!r}"
            )
        # What build_network would reject only later, inside a worker.
        if self.grid_nx < 1 or self.grid_ny < 1:
            raise ValueError(
                "grid dimensions must be ≥ 1, got grid_nx×grid_ny = "
                f"{self.grid_nx}×{self.grid_ny}"
            )
        if not self.spacing_m > 0:
            raise ValueError(f"spacing_m must be positive, got {self.spacing_m!r}")
        if self.topology != "grid" and self.n_nodes < 2:
            raise ValueError(
                f"n_nodes must be ≥ 2 for a {self.topology} topology, "
                f"got {self.n_nodes!r}"
            )
        if self.payload_bytes <= 0:
            raise ValueError(
                f"payload_bytes must be positive, got {self.payload_bytes!r}"
            )
        if self.flow_pattern == "gateway" and not (
            1 <= self.n_gateways <= self.node_count
        ):
            raise ValueError(
                f"n_gateways must be in [1, {self.node_count}], "
                f"got {self.n_gateways!r}"
            )
        if self.mobility == "rwp":
            vmin, vmax = self.speed_range
            if not 0 < vmin <= vmax:
                raise ValueError(
                    f"speed_range must satisfy 0 < vmin ≤ vmax, "
                    f"got {self.speed_range!r}"
                )
            if self.pause_s < 0:
                raise ValueError(f"pause_s must be ≥ 0, got {self.pause_s!r}")
            if not self.mobility_update_s > 0:
                raise ValueError(
                    f"mobility_update_s must be positive, "
                    f"got {self.mobility_update_s!r}"
                )
        last_start = self.flow_start_s + (self.n_flows - 1) * self.flow_stagger_s
        if last_start >= self.sim_time_s:
            raise ValueError(
                f"the last flow starts at {last_start:g} s "
                f"(flow_start_s + (n_flows − 1)·flow_stagger_s), "
                f"not before sim_time_s = {self.sim_time_s:g}"
            )
        if self.fault_spec is not None and self.fault_plan is not None:
            raise ValueError("give fault_spec or fault_plan, not both")
        # Canonicalise the declarative specs to JSON-native form (tuples →
        # lists, numpy scalars → Python) so a config equals its own
        # serialise→deserialise round-trip and exec content hashes cover
        # exactly what persists.  Non-JSON values fail here, loudly.
        if self.fault_spec is not None:
            self.fault_spec = canonical_json_value(self.fault_spec, "fault_spec")
        if self.trace_spec is not None:
            self.trace_spec = canonical_json_value(self.trace_spec, "trace_spec")
        if self.trace_spec is not None:
            # Validate eagerly so bad specs fail at config time, not after
            # a campaign has dispatched to workers.  Late import: obs sits
            # above the scenario layer.
            from repro.obs.spec import TraceSpec

            TraceSpec.from_dict(self.trace_spec)
        if (
            self.fault_spec is not None or self.fault_plan is not None
        ) and self.mac != "csma":
            raise ValueError(
                "fault injection needs the real PHY/MAC (mac='csma'); "
                "PerfectMac has no radio or channel to fail"
            )

    @property
    def node_count(self) -> int:
        """Number of nodes implied by the topology settings."""
        if self.topology == "grid":
            return self.grid_nx * self.grid_ny
        return self.n_nodes


# ---------------------------------------------------------------------- #
# Protocol registry
# ---------------------------------------------------------------------- #
def _make_aodv(cfg: ScenarioConfig, rng: np.random.Generator, net: "Network"):
    return AodvRouting(replace(cfg.aodv), rng)


def _make_gossip(cfg: ScenarioConfig, rng: np.random.Generator, net: "Network"):
    return AodvRouting(
        replace(cfg.aodv), rng,
        rreq_policy=FixedProbabilityGossip(cfg.gossip_p, rng),
    )


def _make_counter(cfg: ScenarioConfig, rng: np.random.Generator, net: "Network"):
    # RAD of 25 ms (vs the 10 ms RREQ jitter of the other schemes): the
    # assessment window must outlast neighbour rebroadcast jitter or the
    # counter never sees duplicates and degenerates to blind flooding.
    return AodvRouting(
        replace(cfg.aodv), rng,
        rreq_policy=CounterBasedPolicy(
            cfg.counter_threshold, rng, rad_max_s=0.025
        ),
    )


def _nlr_variant(**overrides):
    def make(cfg: ScenarioConfig, rng: np.random.Generator, net: "Network"):
        nlr_cfg = replace(cfg.nlr, aodv=replace(cfg.nlr.aodv), **overrides)
        return NlrRouting(nlr_cfg, rng)

    return make


def _make_nlr_noselect(cfg: ScenarioConfig, rng: np.random.Generator, net: "Network"):
    # Ablation B: keep load-adaptive flooding, drop load-aware selection
    # (destination answers the first RREQ copy, AODV-style).
    nlr_cfg = replace(
        cfg.nlr, aodv=replace(cfg.nlr.aodv, dest_reply_wait_s=0.0)
    )
    return NlrRouting(nlr_cfg, rng)


def _make_oracle(cfg: ScenarioConfig, rng: np.random.Generator, net: "Network"):
    assert net.oracle is not None
    return StaticRouting(net.oracle)


def _make_dsdv(cfg: ScenarioConfig, rng: np.random.Generator, net: "Network"):
    return DsdvRouting(DsdvConfig(), rng)


#: Name → factory for every comparable scheme and ablation variant.
PROTOCOLS: dict[str, Callable] = {
    "aodv": _make_aodv,
    "gossip": _make_gossip,
    "counter": _make_counter,
    "nlr": _nlr_variant(),
    # Ablation A: cross-layer / neighbourhood ingredients.
    "nlr-queue": _nlr_variant(queue_weight=1.0),   # queue signal only
    "nlr-busy": _nlr_variant(queue_weight=0.0),    # busy-ratio signal only
    "nlr-own": _nlr_variant(own_weight=1.0),       # no neighbourhood agg.
    # Ablation B: mechanism split.
    "nlr-noprob": _nlr_variant(adaptive_forwarding=False),
    "nlr-noselect": _make_nlr_noselect,
    "oracle": _make_oracle,
    "dsdv": _make_dsdv,
}


# ---------------------------------------------------------------------- #
# Network assembly
# ---------------------------------------------------------------------- #
class Network:
    """A fully wired simulation: engine, channel, stacks, traffic, metrics.

    Build via :func:`build_network`; run via
    :meth:`~repro.experiments.runner.run_scenario` or manually with
    :meth:`start` + ``net.sim.run(until=...)``.
    """

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.sim = Simulator()
        self.streams = RandomStreams(config.seed)
        self.tracer = Tracer()
        self.positions: np.ndarray = np.empty((0, 2))
        self._graph: nx.Graph | None = None
        self.oracle: RouteOracle | None = None
        self.channel: Channel | None = None
        self.perfect_net: PerfectMacNetwork | None = None
        self.stacks: list[NodeStack] = []
        self.sources: list[Source] = []
        self.sinks: list[PacketSink] = []
        self.flows: list[FlowSpec] = []
        self.gateways: list[int] = []
        self.mobility: RandomWaypoint | StaticMobility = StaticMobility()
        self.collector = FlowStatsCollector(
            measure_from_s=config.warmup_s, measure_until_s=config.sim_time_s
        )
        self.injector: FaultInjector | None = None
        self.resilience: ResilienceCollector | None = None
        # Observability (wired by repro.obs.spec.attach_observability).
        self.trace_sink: JsonlTraceSink | None = None
        self.trace_ring: RingSink | None = None
        self.profiler: EngineProfiler | None = None

    @property
    def graph(self) -> nx.Graph:
        """Unit-disk connectivity graph of :attr:`positions` at the
        transmission range, built on first access and cached (the
        positions are assigned once, by :func:`build_network`)."""
        if self._graph is None:
            self._graph = connectivity_graph(self.positions, DEFAULT_TX_RANGE_M)
        return self._graph

    @property
    def protocols(self) -> list[RoutingProtocol]:
        """Routing-protocol instances in node-id order."""
        return [s.routing for s in self.stacks]

    def start(self) -> None:
        """Start mobility, protocol timers, traffic sources, and faults."""
        self.mobility.start()
        for stack in self.stacks:
            stack.start()
        for source in self.sources:
            source.start()
        if self.injector is not None:
            self.injector.start()

    def stop(self) -> None:
        """Stop faults, traffic sources, protocol timers, and mobility."""
        if self.injector is not None:
            self.injector.stop()
        for source in self.sources:
            source.stop()
        for stack in self.stacks:
            stack.stop()
        self.mobility.stop()
        if self.resilience is not None:
            self.resilience.finalize(self.sim.now)


def _positions_for(config: ScenarioConfig, streams: RandomStreams) -> np.ndarray:
    if config.topology == "grid":
        return grid_positions(config.grid_nx, config.grid_ny, config.spacing_m)
    if config.topology == "chain":
        return chain_positions(config.n_nodes, config.spacing_m)
    rng = streams.stream("topology.placement")
    return ensure_connected_positions(
        lambda: random_positions(
            config.n_nodes, config.area_m, rng, min_separation_m=10.0
        ),
        range_m=DEFAULT_TX_RANGE_M,
    )


def _flows_for(
    config: ScenarioConfig, net: Network, streams: RandomStreams
) -> list[FlowSpec]:
    rng = streams.stream("traffic.flowset")
    node_ids = list(range(config.node_count))
    common = dict(
        payload_bytes=config.payload_bytes,
        rate_pps=config.flow_rate_pps,
        start_s=config.flow_start_s,
        stop_s=config.sim_time_s,
        stagger_s=config.flow_stagger_s,
    )
    if config.flow_pattern == "gateway":
        net.gateways = select_gateways(net.positions, config.n_gateways)
        return gateway_flows(
            config.n_flows, node_ids, net.gateways, rng, **common
        )
    return random_flow_pairs(config.n_flows, node_ids, rng, **common)


def build_network(config: ScenarioConfig) -> Network:
    """Assemble a deterministic, ready-to-start network from ``config``."""
    net = Network(config)
    net.positions = _positions_for(config, net.streams)
    if config.protocol == "oracle":
        net.oracle = RouteOracle(net.graph)

    n = config.node_count

    # --- Link layer ---------------------------------------------------- #
    if config.mac == "csma":
        propagation = TwoRayGround()
        if config.shadowing_sigma_db > 0:
            propagation = LogNormalShadowing(
                propagation, config.shadowing_sigma_db, net.streams
            )
        net.channel = Channel(
            net.sim,
            propagation,
            propagation_delay=config.propagation_delay,
            batched=config.batched_kernel,
        )
        if config.batched_kernel:
            net.sim.register_batch_handler(
                Timer._fire, make_timer_batch_handler(net.channel)
            )
        macs = []
        for i in range(n):
            radio = Radio(
                net.sim,
                i,
                replace(config.phy),
                tracer=net.tracer,
            )
            net.channel.register(radio, tuple(net.positions[i]))
            macs.append(
                CsmaMac(
                    net.sim,
                    radio,
                    replace(config.mac_config),
                    net.streams.stream(f"mac.backoff.{i}"),
                    tracer=net.tracer,
                )
            )
    else:
        adjacency = {i: sorted(net.graph.neighbors(i)) for i in range(n)}
        net.perfect_net = PerfectMacNetwork(
            net.sim, lambda nid: adjacency[nid], hop_delay_s=2e-3
        )
        macs = [net.perfect_net.create_mac(i) for i in range(n)]

    # --- Routing + stacks ---------------------------------------------- #
    factory = PROTOCOLS[config.protocol]
    for i in range(n):
        routing = factory(config, net.streams.stream(f"routing.{i}"), net)
        stack = NodeStack(net.sim, i, macs[i], routing, tracer=net.tracer)
        net.stacks.append(stack)

    # --- Mobility ------------------------------------------------------- #
    if config.mobility == "rwp":
        assert net.channel is not None
        if config.topology == "grid":
            area = (
                (config.grid_nx - 1) * config.spacing_m,
                (config.grid_ny - 1) * config.spacing_m,
            )
        else:
            area = config.area_m
        n_mobile = max(1, round(n * config.mobile_fraction))
        net.mobility = RandomWaypoint(
            net.sim,
            net.channel,
            list(range(n - n_mobile, n)),
            area_m=area,
            speed_range=config.speed_range,
            pause_s=config.pause_s,
            rng=net.streams.stream("mobility.rwp"),
            update_interval_s=config.mobility_update_s,
        )

    # --- Traffic -------------------------------------------------------- #
    net.flows = _flows_for(config, net, net.streams)

    # Shared observation hooks: the flow-stats collector always listens;
    # the resilience collector (created below, after flows exist) is
    # resolved dynamically so sink/source wiring order doesn't matter.
    def _on_deliver(p, _sim=net.sim) -> None:
        net.collector.on_receive(p, now=_sim.now)
        if net.resilience is not None:
            net.resilience.on_receive(p, now=_sim.now)

    def _on_send(p) -> None:
        net.collector.on_send(p)
        if net.resilience is not None:
            net.resilience.on_send(p)

    for stack in net.stacks:
        net.sinks.append(PacketSink(stack, on_receive=_on_deliver))
    for flow in net.flows:
        stack = net.stacks[flow.src]
        if config.traffic == "cbr":
            src: Source = CbrSource(
                net.sim, stack, flow, on_send=_on_send
            )
        elif config.traffic == "poisson":
            src = PoissonSource(
                net.sim, stack, flow,
                net.streams.stream(f"traffic.flow.{flow.flow_id}"),
                on_send=_on_send,
            )
        else:
            src = OnOffSource(
                net.sim, stack, flow,
                net.streams.stream(f"traffic.flow.{flow.flow_id}"),
                on_send=_on_send,
            )
        net.sources.append(src)

    # --- Faults --------------------------------------------------------- #
    plan = config.fault_plan
    if plan is None and config.fault_spec is not None:
        plan = plan_from_spec(
            config.fault_spec,
            streams=net.streams,
            node_count=n,
            sim_time_s=config.sim_time_s,
        )
    if plan is not None and plan.events:
        stacks = net.stacks

        def _control_total() -> float:
            return float(
                sum(sum(s.routing.control_tx.values()) for s in stacks)
            )

        net.resilience = ResilienceCollector(
            net.flows, control_counter=_control_total
        )
        net.injector = FaultInjector(net, plan, collector=net.resilience)

    # --- Observability --------------------------------------------------- #
    attach_observability(net)
    return net
