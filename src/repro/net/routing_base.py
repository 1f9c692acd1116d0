"""Routing-table machinery and the protocol interface.

Every routing scheme under comparison implements
:class:`RoutingProtocol`; the :class:`~repro.net.node.NodeStack` wires one
instance per node between the MAC below and the traffic layer above.
Sharing the interface (and the :class:`RoutingTable`) across AODV, NLR,
gossip variants, and the static oracle keeps the comparison honest: every
scheme pays identical per-packet plumbing costs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.net.packet import Packet
from repro.phy.frame import RxInfo
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.node import NodeStack

__all__ = ["RouteEntry", "RoutingTable", "RoutingProtocol"]


@dataclass(slots=True)
class RouteEntry:
    """One routing-table row.

    Attributes
    ----------
    dst, next_hop:
        Destination and the neighbour to forward through.
    hop_count:
        Advertised distance in hops.
    seqno:
        Destination sequence number that validated this route.
    cost:
        Protocol-specific path cost (NLR: cumulative neighbourhood load;
        AODV: equals ``hop_count``).
    expiry:
        Absolute time the route becomes stale.
    valid:
        Invalidated routes are kept (for their seqno) but never used.
    precursors:
        Upstream neighbours routing through us to ``dst`` (RERR targets).
    """

    dst: int
    next_hop: int
    hop_count: int
    seqno: int
    cost: float
    expiry: float
    valid: bool = True
    precursors: set[int] = field(default_factory=set)


class RoutingTable:
    """Per-node route store with expiry handling."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._routes: dict[int, RouteEntry] = {}

    def lookup(self, dst: int) -> RouteEntry | None:
        """Valid, unexpired route to ``dst``, or None."""
        e = self._routes.get(dst)
        if e is None or not e.valid:
            return None
        if e.expiry <= self.sim.now:
            e.valid = False
            return None
        return e

    def get_any(self, dst: int) -> RouteEntry | None:
        """The entry for ``dst`` regardless of validity (seqno bookkeeping)."""
        return self._routes.get(dst)

    def upsert(self, entry: RouteEntry) -> None:
        """Insert or replace the entry for ``entry.dst``, preserving the
        existing precursor set when replacing."""
        old = self._routes.get(entry.dst)
        if old is not None:
            entry.precursors |= old.precursors
        self._routes[entry.dst] = entry

    def invalidate(self, dst: int) -> RouteEntry | None:
        """Mark ``dst``'s route invalid; returns the entry if one existed."""
        e = self._routes.get(dst)
        if e is not None and e.valid:
            e.valid = False
            return e
        return None

    def routes_via(self, next_hop: int) -> list[RouteEntry]:
        """All valid routes whose next hop is ``next_hop``."""
        return [
            e for e in self._routes.values() if e.valid and e.next_hop == next_hop
        ]

    def refresh(self, dst: int, lifetime_s: float) -> None:
        """Extend a valid route's expiry (active-route refresh on use)."""
        e = self.lookup(dst)
        if e is not None:
            e.expiry = max(e.expiry, self.sim.now + lifetime_s)

    def valid_count(self) -> int:
        """Number of currently valid, unexpired routes."""
        now = self.sim.now
        return sum(1 for e in self._routes.values() if e.valid and e.expiry > now)

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, dst: int) -> bool:
        return self.lookup(dst) is not None


class RoutingProtocol(ABC):
    """Interface every routing scheme implements.

    Lifecycle: construct → :meth:`attach` (binds the node stack) →
    :meth:`start` (timers) → traffic flows via :meth:`send_data` /
    :meth:`on_packet` → :meth:`stop`.
    """

    #: Human-readable scheme name (used in reports and legends).
    name: str = "base"

    def __init__(self) -> None:
        self.stack: "NodeStack | None" = None
        self.sim: Simulator | None = None
        self.node_id: int = -1
        self.tracer: Tracer = Tracer()
        self.deliver_callback: Callable[[Packet], None] | None = None
        # Overhead accounting, read directly by the metrics wiring
        # (repro.obs.wiring) — every scheme carries every counter, so a
        # renamed one fails loudly instead of reading as zero.
        self.control_tx = {"rreq": 0, "rrep": 0, "rerr": 0, "hello": 0}
        self.control_bytes_tx = 0
        self.data_forwarded = 0
        self.data_originated = 0
        self.data_dropped_no_route = 0
        self.data_dropped_ttl = 0
        self.data_dropped_link = 0
        self.data_dropped_buffer = 0
        self.rreq_forwarded = 0
        self.rerr_suppressed = 0
        self.discoveries_failed = 0

    def attach(self, stack: "NodeStack") -> None:
        """Bind to a node stack (called by :class:`NodeStack`)."""
        self.stack = stack
        self.sim = stack.sim
        self.node_id = stack.node_id
        self.tracer = stack.tracer

    def start(self) -> None:
        """Start protocol timers (HELLO, purges).  Default: nothing."""

    def stop(self) -> None:
        """Stop protocol timers.  Default: nothing."""

    @abstractmethod
    def send_data(self, packet: Packet) -> None:
        """Originate a DATA packet from this node."""

    @abstractmethod
    def on_packet(self, packet: Packet, from_node: int, info: RxInfo) -> None:
        """Handle a packet received from the MAC (``from_node`` = last hop)."""

    def on_send_result(self, packet: Packet, dst_mac: int, success: bool) -> None:
        """MAC transmission outcome feedback.  Default: ignore."""

    def local_deliver(self, packet: Packet) -> None:
        """Hand a DATA packet that reached its destination to the app layer."""
        if self.deliver_callback is not None:
            self.deliver_callback(packet)
