"""NLR — cross-layer Neighbourhood Load Routing.

:class:`NlrRouting` composes the contribution's three mechanisms on top of
the shared AODV engine:

1. **Cross-layer load sensing** — a :class:`~repro.core.cross_layer.CrossLayerBus`
   samples the MAC's queue occupancy and channel busy ratio into a
   :class:`~repro.core.load_metric.LoadEstimator`; HELLO beacons advertise
   the smoothed value; a :class:`~repro.core.load_metric.NeighbourhoodLoad`
   aggregates own + advertised neighbour loads.

2. **Load-adaptive probabilistic RREQ forwarding** — the
   :class:`~repro.core.forwarding_policy.LoadAdaptiveGossip` policy damps
   the discovery flood in congested neighbourhoods.

3. **Load-aware route selection** — each RREQ accumulates the
   neighbourhood load of the nodes it traverses; the destination holds a
   short reply window, collects RREQ copies, and answers the one
   minimising ``path_load + hop_weight · hops``.  Duplicate RREQ copies
   update reverse routes when they carry a strictly better cost (plain
   AODV discards duplicates outright), so the RREP travels back along the
   selected path.  Intermediate replies are disabled: only the destination
   can compare whole-path loads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cross_layer import CrossLayerBus
from repro.core.forwarding_policy import LoadAdaptiveGossip
from repro.core.load_metric import LoadEstimator, NeighbourhoodLoad
from repro.net.aodv import AodvConfig, AodvRouting
from repro.net.packet import Packet, RreqHeader

__all__ = ["NlrConfig", "NlrRouting"]


@dataclass(slots=True)
class NlrConfig:
    """NLR parameters layered over :class:`~repro.net.aodv.AodvConfig`.

    Attributes
    ----------
    aodv:
        Engine parameters.  ``dest_reply_wait_s`` defaults to 50 ms here
        (the reply window) and ``intermediate_reply`` to False.
    queue_weight:
        β blending queue occupancy vs busy ratio in the node load.
    own_weight:
        α blending own load vs neighbour mean in the neighbourhood load.
    hop_weight:
        λ: hops-to-load exchange rate in the route-selection cost
        ``path_load + λ · hops`` (λ→∞ degenerates to shortest-hop AODV).
    sample_interval_s:
        Cross-layer sampling period.
    p_max, p_min, gamma:
        Load-adaptive forwarding probability parameters.
    always_first_hops, sparse_degree:
        Flood-liveness safeguards.
    adaptive_forwarding:
        Set False to disable mechanism 2 (ablation: route selection only).
    """

    aodv: AodvConfig = field(default_factory=lambda: AodvConfig(
        dest_reply_wait_s=0.05,
        intermediate_reply=False,
        # Periodic re-discovery is what lets the load-aware selection track
        # shifting congestion: the origin's route ages out every
        # active_route_timeout_s and is re-selected under the live load.
        origin_refresh_on_use=False,
        active_route_timeout_s=5.0,
    ))
    queue_weight: float = 0.5
    own_weight: float = 0.5
    hop_weight: float = 0.25
    sample_interval_s: float = 0.25
    p_max: float = 1.0
    p_min: float = 0.4
    gamma: float = 0.6
    always_first_hops: int = 1
    sparse_degree: int = 3
    adaptive_forwarding: bool = True

    def __post_init__(self) -> None:
        # Validate every tunable eagerly: these fields are exactly what
        # design-space exploration mutates, and a nonsense value must fail
        # at config construction — not minutes later inside a worker when
        # the LoadEstimator or forwarding policy is first instantiated.
        if self.hop_weight < 0:
            raise ValueError(f"hop_weight must be ≥ 0, got {self.hop_weight!r}")
        if self.sample_interval_s <= 0:
            raise ValueError("sample interval must be positive")
        if not 0.0 <= self.queue_weight <= 1.0:
            raise ValueError(
                f"queue_weight must be in [0, 1], got {self.queue_weight!r}"
            )
        if not 0.0 <= self.own_weight <= 1.0:
            raise ValueError(
                f"own_weight must be in [0, 1], got {self.own_weight!r}"
            )
        if not 0.0 < self.p_min <= self.p_max <= 1.0:
            raise ValueError(
                "require 0 < p_min <= p_max <= 1, got "
                f"p_min={self.p_min!r} p_max={self.p_max!r}"
            )
        if not 0.0 <= self.gamma <= 1.0:
            # Load is in [0, 1] and p_max ≤ 1, so slopes above 1 only pin
            # the curve to p_min — reject them so searches cannot wander
            # into a flat (and misleadingly "insensitive") region.
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma!r}")
        if self.always_first_hops < 0 or self.sparse_degree < 0:
            raise ValueError("hop/degree safeguards must be ≥ 0")


class NlrRouting(AodvRouting):
    """One node's NLR instance.

    Parameters
    ----------
    config:
        NLR parameters (engine parameters inside ``config.aodv``).
    rng:
        Node-local generator (forwarding coin flips + engine jitter).
    """

    name = "nlr"
    uses_load_extension = True

    def __init__(self, config: NlrConfig, rng: np.random.Generator) -> None:
        policy = (
            LoadAdaptiveGossip(
                rng=rng,
                p_max=config.p_max,
                p_min=config.p_min,
                gamma=config.gamma,
                always_first_hops=config.always_first_hops,
                sparse_degree=config.sparse_degree,
            )
            if config.adaptive_forwarding
            else None
        )
        super().__init__(config.aodv, rng, rreq_policy=policy)
        self.nlr_config = config
        self.estimator = LoadEstimator(queue_weight=config.queue_weight)
        self.bus: CrossLayerBus | None = None
        self.neighbourhood: NeighbourhoodLoad | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def attach(self, stack) -> None:  # type: ignore[override]
        super().attach(stack)
        assert self.neighbour_table is not None
        self.bus = CrossLayerBus(
            stack.sim, stack, sample_interval_s=self.nlr_config.sample_interval_s
        )
        self.bus.subscribe(self.estimator.on_sample)
        self.neighbourhood = NeighbourhoodLoad(
            self.estimator,
            self.neighbour_table,
            own_weight=self.nlr_config.own_weight,
        )

    def start(self) -> None:
        super().start()
        assert self.bus is not None
        self.bus.start()

    def stop(self) -> None:
        super().stop()
        if self.bus is not None:
            self.bus.stop()

    # ------------------------------------------------------------------ #
    # Contribution hooks (overriding the AODV engine)
    # ------------------------------------------------------------------ #
    def _own_load_contribution(self) -> float:
        assert self.neighbourhood is not None
        return self.neighbourhood.value()

    def _advertised_load(self) -> float:
        return self.estimator.load()

    def _rreq_candidate_cost(self, header: RreqHeader) -> float:
        return header.path_load + self.nlr_config.hop_weight * header.hop_count

    def _route_cost(self, hop_count: int, path_load: float) -> float:
        return path_load + self.nlr_config.hop_weight * hop_count

    def _handle_link_failure(self, neighbour: int, packet: Packet) -> None:
        # A MAC-reported failure is proof the neighbour is gone *now*:
        # besides invalidating routes (engine behaviour), drop its
        # neighbourhood-load record, or the dead node's stale advertised
        # load keeps biasing this node's aggregate — and hence every RREQ
        # cost it stamps — for up to the neighbour lifetime.
        if self.neighbour_table is not None:
            self.neighbour_table.drop(neighbour)
        super()._handle_link_failure(neighbour, packet)

    def _process_duplicate_rreq(
        self, packet: Packet, from_node: int, arrived_cost: float
    ) -> None:
        """Duplicate RREQ copies refine reverse routes and the destination
        reply window — the mechanism letting the RREP follow the best path
        rather than the fastest flood branch."""
        header: RreqHeader = packet.header
        self._update_route(
            dst=header.origin,
            next_hop=from_node,
            hop_count=header.hop_count + 1,
            seqno=header.origin_seq,
            cost=arrived_cost,
        )
        if header.dst == self.node_id:
            key = header.dedupe_key()
            window = self._reply_windows.get(key)
            if window is not None:
                cost = self._rreq_candidate_cost(header)
                if cost < window.best_cost:
                    window.best_cost = cost
                    window.best_header = header
