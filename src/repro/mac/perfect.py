"""Idealised collision-free MAC for testing routing logic in isolation.

:class:`PerfectMac` presents the same upward/downward interface as
:class:`~repro.mac.csma.CsmaMac` (``send``, ``rx_upper_callback``,
``send_done_callback``, ``queue_occupancy``, ``channel_busy_ratio``) but
delivers frames over an abstract adjacency relation with a fixed per-hop
delay and no loss, contention, or queueing.  Routing-protocol unit tests
use it so assertions are about protocol logic, not stochastic MAC effects.

A :class:`PerfectMacNetwork` owns the adjacency (any ``node -> neighbours``
callable, typically backed by a networkx graph from
:mod:`repro.topology.graph`).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.mac.mac_types import BROADCAST_MAC
from repro.phy.frame import RxInfo
from repro.sim.engine import Simulator

__all__ = ["PerfectMac", "PerfectMacNetwork"]


class PerfectMacNetwork:
    """Registry + adjacency for a set of :class:`PerfectMac` instances.

    Parameters
    ----------
    sim:
        Event engine.
    neighbours_of:
        Callable returning the node ids adjacent to a given node id.
    hop_delay_s:
        Constant delivery latency per link.
    """

    def __init__(
        self,
        sim: Simulator,
        neighbours_of: Callable[[int], list[int]],
        hop_delay_s: float = 1e-3,
    ) -> None:
        if hop_delay_s < 0:
            raise ValueError(f"hop delay must be ≥ 0, got {hop_delay_s!r}")
        self.sim = sim
        self.neighbours_of = neighbours_of
        self.hop_delay_s = hop_delay_s
        self.macs: dict[int, "PerfectMac"] = {}
        self.deliveries = 0

    def create_mac(self, node_id: int) -> "PerfectMac":
        """Create and register the MAC for ``node_id``."""
        if node_id in self.macs:
            raise ValueError(f"node {node_id} already has a PerfectMac")
        mac = PerfectMac(self, node_id)
        self.macs[node_id] = mac
        return mac

    def _deliver(self, src: int, dst: int, packet: Any, payload_bytes: int) -> None:
        mac = self.macs.get(dst)
        if mac is None or mac.rx_upper_callback is None:
            return
        self.deliveries += 1
        now = self.sim.now
        info = RxInfo(
            rx_power_w=1e-9,
            min_sinr=float("inf"),
            start_time=now,
            end_time=now,
            tx_node=src,
        )
        mac.data_rx += 1
        mac.rx_upper_callback(packet, src, info)


class PerfectMac:
    """Loss-free, contention-free MAC bound to a :class:`PerfectMacNetwork`."""

    def __init__(self, network: PerfectMacNetwork, node_id: int) -> None:
        self.network = network
        self.sim = network.sim
        self.node_id = node_id
        self.rx_upper_callback: Callable[[Any, int, RxInfo], None] | None = None
        self.send_done_callback: Callable[[Any, int, bool], None] | None = None
        # Same counters as CsmaMac (read by repro.obs.wiring); the ideal
        # MAC sends no control frames, never retries and has no queue.
        self.data_tx = 0
        self.ack_tx = 0
        self.rts_tx = 0
        self.cts_tx = 0
        self.retries_total = 0
        self.drops_retry = 0
        self.queue_drops = 0
        self.data_rx = 0

    # Cross-layer signals: an ideal MAC is never congested.
    @property
    def queue_occupancy(self) -> float:
        """Always 0 — the ideal MAC has no queue."""
        return 0.0

    def channel_busy_ratio(self) -> float:
        """Always 0 — the ideal medium is never busy."""
        return 0.0

    def send(self, packet: Any, dst: int, payload_bytes: int) -> bool:
        """Deliver ``packet`` to ``dst`` (or all neighbours on broadcast)
        after the network's hop delay.  Unicast to a non-neighbour fails
        asynchronously via ``send_done_callback(..., success=False)``."""
        self.data_tx += 1
        delay = self.network.hop_delay_s
        neighbours = self.network.neighbours_of(self.node_id)
        if dst == BROADCAST_MAC:
            for n in neighbours:
                self.sim.schedule_in(
                    delay, self.network._deliver, self.node_id, n, packet,
                    payload_bytes,
                )
            self.sim.schedule_in(delay, self._done, packet, dst, True)
            return True
        if dst not in neighbours:
            self.drops_retry += 1
            self.sim.schedule_in(delay, self._done, packet, dst, False)
            return True
        self.sim.schedule_in(
            delay, self.network._deliver, self.node_id, dst, packet, payload_bytes
        )
        self.sim.schedule_in(delay, self._done, packet, dst, True)
        return True

    def _done(self, packet: Any, dst: int, success: bool) -> None:
        if self.send_done_callback is not None:
            self.send_done_callback(packet, dst, success)
