"""Static Dijkstra "oracle" routing over the true connectivity graph.

The oracle knows the real topology (which no distributed protocol does) and
forwards every packet along a precomputed shortest path.  It serves as a
sanity bound in the evaluation: no on-demand scheme can beat its hop
counts, and its delivery ratio isolates MAC losses from routing losses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.packet import Packet, PacketKind
from repro.net.routing_base import RoutingProtocol
from repro.phy.frame import RxInfo

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["RouteOracle", "StaticRouting"]


class RouteOracle:
    """Shared all-pairs next-hop table computed from a networkx graph.

    Parameters
    ----------
    graph:
        Undirected connectivity graph with node-id vertices.  Edge weight
        attribute ``weight`` is honoured when present (defaults to 1).
    """

    def __init__(self, graph: nx.Graph) -> None:
        import networkx as nx

        self.graph = graph
        self._next_hop: dict[int, dict[int, int]] = {}
        for src, paths in nx.all_pairs_dijkstra_path(graph):
            table: dict[int, int] = {}
            for dst, path in paths.items():
                if len(path) >= 2:
                    table[dst] = path[1]
            self._next_hop[src] = table

    def next_hop(self, src: int, dst: int) -> int | None:
        """Next hop from ``src`` toward ``dst``, or None if unreachable."""
        return self._next_hop.get(src, {}).get(dst)

    def hop_count(self, src: int, dst: int) -> int | None:
        """Shortest-path length in hops, or None if unreachable."""
        import networkx as nx

        try:
            return nx.shortest_path_length(self.graph, src, dst)
        except nx.NetworkXNoPath:
            return None


class StaticRouting(RoutingProtocol):
    """Per-node oracle routing instance.

    Parameters
    ----------
    oracle:
        The shared :class:`RouteOracle`.
    """

    name = "oracle"

    def __init__(self, oracle: RouteOracle) -> None:
        super().__init__()
        self.oracle = oracle

    def send_data(self, packet: Packet) -> None:
        self.data_originated += 1
        if packet.dst == self.node_id:
            self.local_deliver(packet)
            return
        self._forward(packet)

    def on_packet(self, packet: Packet, from_node: int, info: RxInfo) -> None:
        if packet.kind is not PacketKind.DATA:
            return
        packet.hops += 1  # the link just crossed
        if packet.dst == self.node_id:
            self.local_deliver(packet)
            return
        packet.ttl -= 1
        if packet.ttl <= 0:
            self.data_dropped_ttl += 1
            return
        self.data_forwarded += 1
        self._forward(packet)

    def _forward(self, packet: Packet) -> None:
        nh = self.oracle.next_hop(self.node_id, packet.dst)
        if nh is None:
            self.data_dropped_no_route += 1
            return
        self.stack.send_mac(packet, nh)
