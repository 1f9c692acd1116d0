"""Network-layer packet and protocol header formats.

Byte accounting follows RFC 3561 (AODV) field layouts so routing overhead
measured in bytes is comparable with ns-2 numbers: RREQ 24 B, RREP 20 B,
RERR 4 + 8·n B, HELLO = RREP-shaped 20 B.  NLR extends RREQ and HELLO each
by one 4-byte load field (declared in their header classes, so the byte
cost of the contribution is accounted honestly).  DATA packets carry a
20-byte IP-style network header on top of the application payload.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.net.addressing import BROADCAST_ADDR

__all__ = [
    "PacketKind",
    "Packet",
    "RreqHeader",
    "RrepHeader",
    "RerrHeader",
    "HelloHeader",
    "IP_HEADER_BYTES",
]

#: IPv4-style network header size charged to every DATA packet.
IP_HEADER_BYTES = 20

_packet_uid = itertools.count()


class PacketKind(enum.Enum):
    """Network packet types."""

    DATA = "data"
    RREQ = "rreq"
    RREP = "rrep"
    RERR = "rerr"
    HELLO = "hello"
    #: Proactive full-table update (DSDV baseline).
    UPDATE = "update"


@dataclass(slots=True)
class RreqHeader:
    """AODV route request (RFC 3561 §5.1) with the NLR load extension.

    Attributes
    ----------
    rreq_id:
        Per-originator flood identifier (dedupe key with ``origin``).
    origin, origin_seq:
        Originating node and its sequence number.
    dst, dst_seq:
        Sought destination and last known destination sequence number
        (-1 when unknown).
    hop_count:
        Hops traversed so far (incremented on rebroadcast).
    path_load:
        NLR extension: accumulated neighbourhood load along the traversed
        path (0.0 and unused under plain AODV/gossip).
    """

    rreq_id: int
    origin: int
    origin_seq: int
    dst: int
    dst_seq: int = -1
    hop_count: int = 0
    path_load: float = 0.0

    #: RFC 3561 RREQ is 24 bytes; the NLR variant appends a 4-byte load.
    BASE_BYTES = 24
    LOAD_EXT_BYTES = 4

    def size_bytes(self, with_load_extension: bool) -> int:
        """Wire size of this header."""
        return self.BASE_BYTES + (self.LOAD_EXT_BYTES if with_load_extension else 0)

    def dedupe_key(self) -> tuple[int, int]:
        """(origin, rreq_id) identifying one flood."""
        return (self.origin, self.rreq_id)


@dataclass(slots=True)
class RrepHeader:
    """AODV route reply (RFC 3561 §5.2).

    ``path_load`` echoes the winning RREQ's accumulated cost so traces and
    tests can inspect which path NLR selected.
    """

    origin: int
    dst: int
    dst_seq: int
    hop_count: int = 0
    lifetime_s: float = 10.0
    path_load: float = 0.0

    BYTES = 20

    def size_bytes(self) -> int:
        """Wire size of this header."""
        return self.BYTES


@dataclass(slots=True)
class RerrHeader:
    """AODV route error (RFC 3561 §5.3): unreachable (dst, seq) pairs."""

    unreachable: list[tuple[int, int]] = field(default_factory=list)

    BASE_BYTES = 4
    PER_DEST_BYTES = 8

    def size_bytes(self) -> int:
        """Wire size of this header."""
        return self.BASE_BYTES + self.PER_DEST_BYTES * len(self.unreachable)


@dataclass(slots=True)
class HelloHeader:
    """HELLO beacon (an unsolicited RREP in AODV) with the NLR extension.

    Attributes
    ----------
    load:
        Advertised scalar load of the sender (NLR cross-layer metric).
    neighbour_count:
        Sender's current neighbour count (used by density safeguards).
    """

    load: float = 0.0
    neighbour_count: int = 0

    BASE_BYTES = 20
    LOAD_EXT_BYTES = 4

    def size_bytes(self, with_load_extension: bool) -> int:
        """Wire size of this header."""
        return self.BASE_BYTES + (self.LOAD_EXT_BYTES if with_load_extension else 0)


@dataclass(slots=True)
class Packet:
    """A network-layer packet.

    Attributes
    ----------
    kind:
        DATA or one of the routing-control kinds.
    src, dst:
        End-to-end originator and final destination addresses.
    ttl:
        Remaining hop budget, decremented at each forward.
    payload_bytes:
        Application payload size (0 for control packets; header sizes are
        accounted separately via ``header``).
    header:
        Protocol-specific header object, if any.
    flow_id, seq:
        Traffic-flow bookkeeping for the metrics layer (-1 when N/A).
    created_at:
        Origination timestamp (end-to-end delay measurement).
    hops:
        Hops actually traversed (filled in by the forwarding engine).
    uid:
        Globally unique packet id.
    """

    kind: PacketKind
    src: int
    dst: int
    ttl: int
    payload_bytes: int = 0
    header: Any = None
    flow_id: int = -1
    seq: int = -1
    created_at: float = 0.0
    hops: int = 0
    uid: int = field(default_factory=lambda: next(_packet_uid))

    def __post_init__(self) -> None:
        if self.ttl < 0:
            raise ValueError(f"ttl must be ≥ 0, got {self.ttl}")
        if self.payload_bytes < 0:
            raise ValueError(f"payload must be ≥ 0 bytes, got {self.payload_bytes}")

    @property
    def is_broadcast(self) -> bool:
        """True when addressed to every node."""
        return self.dst == BROADCAST_ADDR

    def wire_bytes(self, with_load_extension: bool = False) -> int:
        """Total network-layer bytes on the wire (for overhead metrics)."""
        if self.kind is PacketKind.DATA:
            return IP_HEADER_BYTES + self.payload_bytes
        if self.kind is PacketKind.RREQ:
            return self.header.size_bytes(with_load_extension)
        if self.kind is PacketKind.RREP:
            return self.header.size_bytes()
        if self.kind is PacketKind.RERR:
            return self.header.size_bytes()
        if self.kind is PacketKind.HELLO:
            return self.header.size_bytes(with_load_extension)
        if self.kind is PacketKind.UPDATE:
            return self.header.size_bytes()
        raise AssertionError(f"unhandled packet kind {self.kind!r}")

    def copy_for_forwarding(self) -> "Packet":
        """Shallow copy with a fresh uid (hop-by-hop rebroadcast copies).

        The header object is shared intentionally for unicast forwarding;
        flooding protocols that mutate headers must copy them explicitly.
        """
        return Packet(
            kind=self.kind,
            src=self.src,
            dst=self.dst,
            ttl=self.ttl,
            payload_bytes=self.payload_bytes,
            header=self.header,
            flow_id=self.flow_id,
            seq=self.seq,
            created_at=self.created_at,
            hops=self.hops,
        )
