"""Shared fixtures/builders for protocol tests.

``make_perfect_net`` assembles a network of routing protocols over the
idealised :class:`~repro.mac.perfect.PerfectMac` so tests assert on
protocol logic without stochastic MAC effects.

``fresh_shared_pool`` gives a test its own campaign worker pool.  Modules
that change ``REPRO_*`` variables (or the cwd) and run ``workers > 1``
use it autouse via ``pytestmark``: pool workers keep the environment they
were forked with, so a pool left up by an earlier test would not see the
variables a later test sets.
"""

from __future__ import annotations

from typing import Callable

import pytest

from repro.exec import shutdown_shared_pools
from repro.mac.perfect import PerfectMacNetwork
from repro.net.node import NodeStack
from repro.net.routing_base import RoutingProtocol
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


@pytest.fixture
def fresh_shared_pool():
    """No shared worker pool before the test, none left up after it."""
    shutdown_shared_pools()
    yield
    shutdown_shared_pools()


def make_perfect_net(
    adjacency: dict[int, list[int]],
    routing_factory: Callable[[int, RandomStreams], RoutingProtocol],
    hop_delay_s: float = 1e-3,
    seed: int = 1,
):
    """Build (sim, stacks) over a PerfectMacNetwork with given adjacency."""
    sim = Simulator()
    streams = RandomStreams(seed)
    pm = PerfectMacNetwork(sim, lambda n: adjacency[n], hop_delay_s=hop_delay_s)
    stacks: list[NodeStack] = []
    for node_id in sorted(adjacency):
        mac = pm.create_mac(node_id)
        routing = routing_factory(node_id, streams)
        stacks.append(NodeStack(sim, node_id, mac, routing))
    return sim, stacks


def chain_adjacency(n: int) -> dict[int, list[int]]:
    """0 — 1 — 2 — ... — n-1."""
    adj: dict[int, list[int]] = {}
    for i in range(n):
        adj[i] = [j for j in (i - 1, i + 1) if 0 <= j < n]
    return adj


#: Diamond: two paths 0→4, a short one through 1 and a long one through 2–3.
DIAMOND = {0: [1, 2], 1: [0, 4], 2: [0, 3], 3: [2, 4], 4: [1, 3]}
