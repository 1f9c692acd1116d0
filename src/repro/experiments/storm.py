"""Broadcast-storm microcosm (reconstructed Fig 7).

One originator floods a series of application broadcasts through a random
deployment under a chosen suppression policy, over the real DCF MAC (so
redundant rebroadcasts genuinely collide).  Measured per policy:

* **reachability** — mean fraction of nodes receiving each flood;
* **saved rebroadcast ratio** — 1 − (rebroadcasts / receivers), i.e. the
  fraction of potential relays the policy silenced (blind flooding ≈ 0).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.forwarding_policy import LoadAdaptiveGossip
from repro.experiments.runner import frees_simulation
from repro.mac.csma import CsmaMac, MacConfig
from repro.net.addressing import BROADCAST_ADDR
from repro.net.flooding import BroadcastService
from repro.net.gossip import (
    BlindFlooding,
    CounterBasedPolicy,
    FixedProbabilityGossip,
    RebroadcastPolicy,
)
from repro.net.node import NodeStack
from repro.net.packet import Packet, PacketKind
from repro.phy.channel import Channel
from repro.phy.propagation import TwoRayGround
from repro.phy.radio import PhyConfig, Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.topology.graph import ensure_connected_positions
from repro.topology.placement import random_positions

__all__ = ["run_storm", "STORM_POLICIES"]

#: Policy names accepted by :func:`run_storm`.
STORM_POLICIES = ("blind", "gossip", "counter", "nlr")


def _make_policy(
    name: str, rng: np.random.Generator, mac: CsmaMac
) -> RebroadcastPolicy:
    if name == "blind":
        return BlindFlooding()
    if name == "gossip":
        return FixedProbabilityGossip(0.65, rng)
    if name == "counter":
        return CounterBasedPolicy(3, rng)
    if name == "nlr":
        # Cross-layer damping straight off the MAC busy monitor.
        return LoadAdaptiveGossip(
            rng, load_provider=mac.channel_busy_ratio
        )
    raise ValueError(f"unknown storm policy {name!r}; choose from {STORM_POLICIES}")


@frees_simulation
def run_storm(
    policy: str = "blind",
    n_nodes: int = 30,
    area_m: tuple[float, float] = (1000.0, 1000.0),
    n_floods: int = 10,
    flood_interval_s: float = 0.5,
    seed: int = 1,
) -> dict[str, float]:
    """Run one storm scenario; returns the Fig 7 metrics.

    Keys of the result: ``reachability``, ``saved_rebroadcast_ratio``,
    ``rebroadcasts``, ``mean_degree``.
    """
    if n_nodes < 3:
        raise ValueError(f"need ≥ 3 nodes, got {n_nodes}")
    sim = Simulator()
    streams = RandomStreams(seed)
    placement_rng = streams.stream("topology.placement")
    positions = ensure_connected_positions(
        lambda: random_positions(n_nodes, area_m, placement_rng,
                                 min_separation_m=10.0),
        range_m=250.0,
    )
    channel = Channel(sim, TwoRayGround())
    stacks: list[NodeStack] = []
    services: list[BroadcastService] = []
    received: dict[int, set[int]] = {}  # flood seq -> receiving node ids

    for i in range(n_nodes):
        radio = Radio(sim, i, PhyConfig())
        channel.register(radio, tuple(positions[i]))
        mac = CsmaMac(sim, radio, MacConfig(), streams.stream(f"mac.{i}"))
        rng = streams.stream(f"policy.{i}")
        service = BroadcastService(
            _make_policy(policy, rng, mac), rng,
            neighbour_load_provider=mac.channel_busy_ratio,
        )
        stack = NodeStack(sim, i, mac, service)
        stack.receive_callback = (
            lambda pkt, _nid=i: received.setdefault(pkt.seq, set()).add(_nid)
        )
        stacks.append(stack)
        services.append(service)

    # Warm the neighbour tables with two HELLO-free beacon rounds: the
    # storm policies only need degree, learned from overheard floods, so a
    # priming broadcast from each node populates the tables.
    for i, stack in enumerate(stacks):
        prime = Packet(
            kind=PacketKind.DATA, src=i, dst=BROADCAST_ADDR, ttl=1,
            seq=-1000 - i, created_at=0.0,
        )
        sim.schedule(
            0.05 + 0.01 * i, stacks[i].routing.send_data, prime
        )

    origin = 0
    for k in range(n_floods):
        packet = Packet(
            kind=PacketKind.DATA, src=origin, dst=BROADCAST_ADDR,
            ttl=32, seq=k, payload_bytes=64, created_at=0.0,
        )
        sim.schedule(
            1.0 + k * flood_interval_s, stacks[origin].routing.send_data, packet
        )

    sim.run(until=1.0 + n_floods * flood_interval_s + 2.0)

    reach = [
        len(received.get(k, set())) / (n_nodes - 1) for k in range(n_floods)
    ]
    rebroadcasts = sum(
        s.rebroadcasts for s in services
    )
    receivers = sum(len(received.get(k, set())) for k in range(n_floods))
    saved = 1.0 - rebroadcasts / receivers if receivers else 0.0
    from repro.topology.graph import connectivity_graph, mean_degree

    return {
        "reachability": float(np.mean(reach)),
        "saved_rebroadcast_ratio": float(saved),
        "rebroadcasts": float(rebroadcasts),
        "mean_degree": mean_degree(connectivity_graph(positions, 250.0)),
    }
