"""AODV on-demand routing (RFC 3561), the engine shared by every scheme.

Implements:

* RREQ flooding with (origin, rreq_id) duplicate suppression, TTL budget,
  per-hop jitter, and a pluggable
  :class:`~repro.net.gossip.RebroadcastPolicy` (blind flooding reproduces
  plain AODV; fixed-probability and counter-based policies reproduce the
  gossip baselines; NLR plugs in its load-adaptive policy);
* reverse/forward route creation with destination sequence numbers,
  freshness rules, and active-route lifetime refresh;
* RREP unicast back along reverse routes, with optional
  intermediate-node replies and an optional *destination reply window*
  during which RREQ copies are collected and the best-cost one answered
  (plain AODV answers the first copy; NLR opens the window);
* RERR origination/propagation on MAC-reported link failures, with
  precursor tracking;
* origin-side packet buffering during discovery, bounded retries with
  binary-exponential wait.

Cost hooks (`_route_cost_update`, `_rreq_candidate_cost`,
`_own_load_contribution`, `_advertised_load`) are identity/zero here and
overridden by :class:`repro.core.nlr.NlrRouting` — the subclass *is* the
paper's contribution, everything else is shared substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.net.addressing import BROADCAST_ADDR
from repro.net.gossip import (
    BlindFlooding,
    FloodState,
    PolicyContext,
    RebroadcastPolicy,
)
from repro.net.hello import HelloService, NeighbourTable
from repro.net.packet import (
    Packet,
    PacketKind,
    RerrHeader,
    RrepHeader,
    RreqHeader,
)
from repro.net.routing_base import RouteEntry, RoutingProtocol
from repro.phy.frame import RxInfo
from repro.sim.engine import EventHandle

__all__ = ["AodvConfig", "AodvRouting"]

#: How long an (origin, rreq_id) pair suppresses duplicate RREQs
#: (RFC 3561 PATH_DISCOVERY_TIME), in seconds.
PATH_DISCOVERY_TIME = 10.0
#: Packets buffered during route discovery that are older than this are
#: dropped at flush time (RFC 3561 §6.3 leaves the bound to the
#: implementation), in seconds.
BUFFER_TIMEOUT = 8.0
#: Upper bound of the uniform delay before an RREQ rebroadcast (the
#: broadcast jitter RFC 3561 §6.5 refers to), in seconds.
RREQ_JITTER_MAX = 0.01


@dataclass(slots=True)
class AodvConfig:
    """AODV protocol parameters (RFC 3561 defaults where applicable)."""

    #: Route lifetime granted on creation/refresh (ACTIVE_ROUTE_TIMEOUT).
    active_route_timeout_s: float = 10.0
    #: Discovery attempts before giving up (RREQ_RETRIES).
    rreq_retries: int = 2
    #: Wait for a RREP after the first attempt (NET_TRAVERSAL_TIME-ish);
    #: doubled on each retry.
    rreq_wait_s: float = 1.0
    #: RREQ TTL for network-wide floods (NET_DIAMETER).
    rreq_ttl: int = 32
    #: Expanding-ring search (RFC 3561 §6.4): first attempts use growing
    #: TTL rings before falling back to network-wide floods.  Ring
    #: attempts do not consume ``rreq_retries``.
    expanding_ring: bool = False
    ttl_start: int = 2
    ttl_increment: int = 2
    ttl_threshold: int = 7
    #: Packets buffered per destination during discovery.
    buffer_capacity: int = 64
    #: HELLO beaconing (needed for neighbour liveness and NLR piggyback).
    hello_enabled: bool = True
    hello_interval_s: float = 1.0
    #: Intermediate nodes with a fresh-enough route may answer RREQs.
    intermediate_reply: bool = True
    #: RFC 3561 §6.6.3: when an intermediate node answers a RREQ, also
    #: unicast a *gratuitous* RREP to the destination so it learns the
    #: route back to the originator (needed when the destination must
    #: reply to unsolicited data, e.g. TCP-like request/response).
    gratuitous_rrep: bool = False
    #: Destination-side reply window: 0 answers the first RREQ copy (plain
    #: AODV); > 0 collects copies and answers the best-cost one (NLR).
    dest_reply_wait_s: float = 0.0
    #: When False, the *originator* does not extend its route's lifetime on
    #: use, so an active flow re-discovers every ``active_route_timeout_s``
    #: — the mechanism by which NLR re-evaluates paths as load shifts.
    #: Intermediate hops always refresh (no mid-path expiry losses).
    origin_refresh_on_use: bool = True
    #: Maximum RERR originations per second (RFC 3561 §6.11 limits a node
    #: to RERR_RATELIMIT = 10).  Without it a crashed next hop on a busy
    #: flow triggers one RERR per queued data packet — an RERR storm that
    #: drowns the very repair traffic the network needs.  0 disables.
    rerr_rate_limit_per_s: int = 10

    def __post_init__(self) -> None:
        if self.active_route_timeout_s <= 0:
            raise ValueError("active route timeout must be positive")
        if self.rreq_retries < 0:
            raise ValueError("rreq retries must be ≥ 0")
        if self.rreq_ttl < 1:
            raise ValueError("rreq ttl must be ≥ 1")
        if self.dest_reply_wait_s < 0:
            raise ValueError("dest reply wait must be ≥ 0")
        if self.rerr_rate_limit_per_s < 0:
            raise ValueError("rerr rate limit must be ≥ 0 (0 disables)")
        if self.expanding_ring and not (
            0 < self.ttl_start <= self.ttl_threshold <= self.rreq_ttl
            and self.ttl_increment > 0
        ):
            raise ValueError(
                "require 0 < ttl_start <= ttl_threshold <= rreq_ttl and "
                "ttl_increment > 0 for expanding-ring search"
            )


@dataclass(slots=True)
class _Discovery:
    """Origin-side state for one in-flight route discovery."""

    dst: int
    retries_used: int = 0
    ring_ttl: int | None = None  # current expanding-ring TTL, if ringing
    timer: EventHandle | None = None


@dataclass(slots=True)
class _ReplyWindow:
    """Destination-side reply-window state for one RREQ flood."""

    best_cost: float
    best_header: RreqHeader
    timer: EventHandle | None = field(default=None)


class AodvRouting(RoutingProtocol):
    """One node's AODV instance.

    Parameters
    ----------
    config:
        Protocol parameters.
    rng:
        Node-local generator (jitter draws; also handed to the policy by
        the scenario builder).
    rreq_policy:
        Rebroadcast-suppression policy for RREQ floods (default blind).
    """

    name = "aodv"
    #: Whether RREQ/HELLO carry the 4-byte NLR load extension.
    uses_load_extension = False

    def __init__(
        self,
        config: AodvConfig,
        rng: np.random.Generator,
        rreq_policy: RebroadcastPolicy | None = None,
    ) -> None:
        super().__init__()
        self.config = config
        self.rng = rng
        self.rreq_policy = rreq_policy or BlindFlooding()

        self.table = None  # type: ignore[assignment]  # set in attach()
        self.neighbour_table: NeighbourTable | None = None
        self.hello: HelloService | None = None

        self.seqno = 0
        self._rreq_id = 0
        self._rreq_seen: dict[tuple[int, int], float] = {}
        self._rreq_flood: dict[tuple[int, int], FloodState] = {}
        self._buffer: dict[int, list[tuple[Packet, float]]] = {}
        self._discoveries: dict[int, _Discovery] = {}
        self._reply_windows: dict[tuple[int, int], _ReplyWindow] = {}

        # Extra statistics beyond the base counters.
        self.rreq_suppressed = 0
        self.discoveries_started = 0
        self._rerr_times: list[float] = []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def attach(self, stack) -> None:  # type: ignore[override]
        super().attach(stack)
        from repro.net.routing_base import RoutingTable

        self.table = RoutingTable(stack.sim)
        self.neighbour_table = NeighbourTable(stack.sim)
        if self.config.hello_enabled:
            self.hello = HelloService(
                stack,
                self.neighbour_table,
                interval_s=self.config.hello_interval_s,
                load_provider=self._advertised_load,
                jitter_fn=lambda: float(
                    self.rng.uniform(0.0, 0.1 * self.config.hello_interval_s)
                ),
            )

    def start(self) -> None:
        if self.hello is not None:
            self.hello.start()

    def stop(self) -> None:
        if self.hello is not None:
            self.hello.stop()
        for disc in self._discoveries.values():
            if disc.timer is not None and not disc.timer.expired:
                disc.timer.cancel()
        self._discoveries.clear()

    # ------------------------------------------------------------------ #
    # NLR override hooks (identity/zero in plain AODV)
    # ------------------------------------------------------------------ #
    def _own_load_contribution(self) -> float:
        """Load this node adds to a traversing RREQ's ``path_load``."""
        return 0.0

    def _advertised_load(self) -> float:
        """Load advertised in HELLO beacons."""
        return 0.0

    def _rreq_candidate_cost(self, header: RreqHeader) -> float:
        """Cost by which the destination ranks RREQ copies (lower wins)."""
        return float(header.hop_count)

    def _route_cost(self, hop_count: int, path_load: float) -> float:
        """Cost recorded in a route entry created from a RREQ/RREP."""
        return float(hop_count)

    # ------------------------------------------------------------------ #
    # Origination / forwarding of DATA
    # ------------------------------------------------------------------ #
    def send_data(self, packet: Packet) -> None:
        self.data_originated += 1
        if packet.dst == self.node_id:
            self.local_deliver(packet)
            return
        route = self.table.lookup(packet.dst)
        if route is not None:
            self._forward_data(packet, route)
        else:
            self._buffer_packet(packet)
            if packet.dst not in self._discoveries:
                self._start_discovery(packet.dst)

    def _forward_data(self, packet: Packet, route: RouteEntry) -> None:
        if packet.src != self.node_id or self.config.origin_refresh_on_use:
            self.table.refresh(packet.dst, self.config.active_route_timeout_s)
        self.table.refresh(route.next_hop, self.config.active_route_timeout_s)
        self.stack.send_mac(packet, route.next_hop)

    def _buffer_packet(self, packet: Packet) -> None:
        q = self._buffer.setdefault(packet.dst, [])
        if len(q) >= self.config.buffer_capacity:
            self.data_dropped_buffer += 1
            return
        q.append((packet, self.sim.now))

    def _flush_buffer(self, dst: int) -> None:
        q = self._buffer.pop(dst, [])
        horizon = self.sim.now - BUFFER_TIMEOUT
        for packet, enqueued in q:
            if enqueued < horizon:
                self.data_dropped_buffer += 1
                continue
            route = self.table.lookup(dst)
            if route is None:
                self.data_dropped_no_route += 1
                continue
            self._forward_data(packet, route)

    def _drop_buffer(self, dst: int) -> None:
        q = self._buffer.pop(dst, [])
        self.data_dropped_no_route += len(q)

    # ------------------------------------------------------------------ #
    # Route discovery (origin side)
    # ------------------------------------------------------------------ #
    def _start_discovery(self, dst: int) -> None:
        disc = _Discovery(dst=dst)
        if self.config.expanding_ring:
            disc.ring_ttl = self.config.ttl_start
        self._discoveries[dst] = disc
        self.discoveries_started += 1
        self._send_rreq(disc)

    def _rreq_ttl_for(self, disc: _Discovery) -> int:
        if disc.ring_ttl is not None:
            return disc.ring_ttl
        return self.config.rreq_ttl

    def _send_rreq(self, disc: _Discovery) -> None:
        self.seqno += 1
        self._rreq_id += 1
        known = self.table.get_any(disc.dst)
        header = RreqHeader(
            rreq_id=self._rreq_id,
            origin=self.node_id,
            origin_seq=self.seqno,
            dst=disc.dst,
            dst_seq=known.seqno if known is not None else -1,
            hop_count=0,
            path_load=self._own_load_contribution(),
        )
        packet = Packet(
            kind=PacketKind.RREQ,
            src=self.node_id,
            dst=BROADCAST_ADDR,
            ttl=self._rreq_ttl_for(disc),
            header=header,
            created_at=self.sim.now,
        )
        self._remember_rreq(header.dedupe_key())
        self.control_tx["rreq"] += 1
        self.tracer.record(
            self.sim.now, "net", self.node_id, "rreq_originate",
            dst=disc.dst, rreq_id=header.rreq_id, attempt=disc.retries_used,
            ttl=packet.ttl,
        )
        self.stack.send_mac(packet, BROADCAST_ADDR)
        wait = self.config.rreq_wait_s * (2**disc.retries_used)
        disc.timer = self.sim.schedule_in(wait, self._discovery_timeout, disc)

    def _discovery_timeout(self, disc: _Discovery) -> None:
        disc.timer = None
        if self._discoveries.get(disc.dst) is not disc:
            # The discovery was completed (or replaced) in the same tick
            # this timer fired — e.g. an RREP and the timeout landing at
            # the exact same timestamp during failure churn.
            return
        if self.table.lookup(disc.dst) is not None:
            # Route appeared without us noticing a flush (e.g. via an
            # overheard RREP) — complete the discovery.
            self._discovery_succeeded(disc.dst)
            return
        if disc.ring_ttl is not None:
            # Expand the ring (free of the retry budget) until threshold.
            nxt = disc.ring_ttl + self.config.ttl_increment
            disc.ring_ttl = None if nxt > self.config.ttl_threshold else nxt
            self._send_rreq(disc)
            return
        if disc.retries_used < self.config.rreq_retries:
            disc.retries_used += 1
            self._send_rreq(disc)
        else:
            self.discoveries_failed += 1
            self.tracer.record(
                self.sim.now, "net", self.node_id, "discovery_failed", dst=disc.dst
            )
            self._discoveries.pop(disc.dst, None)
            self._drop_buffer(disc.dst)

    def _discovery_succeeded(self, dst: int) -> None:
        disc = self._discoveries.pop(dst, None)
        if disc is not None and disc.timer is not None and not disc.timer.expired:
            disc.timer.cancel()
        self._flush_buffer(dst)

    # ------------------------------------------------------------------ #
    # Packet dispatch
    # ------------------------------------------------------------------ #
    def on_packet(self, packet: Packet, from_node: int, info: RxInfo) -> None:
        assert self.neighbour_table is not None
        if packet.kind is PacketKind.HELLO:
            assert self.hello is not None or True
            if self.hello is not None:
                self.hello.on_hello(packet, from_node)
            else:
                self.neighbour_table.heard(from_node)
            self._touch_neighbour_route(from_node)
            return
        self.neighbour_table.heard(from_node)
        if packet.kind is PacketKind.RREQ:
            self._handle_rreq(packet, from_node)
        elif packet.kind is PacketKind.RREP:
            self._handle_rrep(packet, from_node)
        elif packet.kind is PacketKind.RERR:
            self._handle_rerr(packet, from_node)
        elif packet.kind is PacketKind.DATA:
            self._handle_data(packet, from_node)

    # ------------------------------------------------------------------ #
    # RREQ handling
    # ------------------------------------------------------------------ #
    def _remember_rreq(self, key: tuple[int, int]) -> None:
        self._rreq_seen[key] = self.sim.now + PATH_DISCOVERY_TIME
        if len(self._rreq_seen) > 4096:
            now = self.sim.now
            self._rreq_seen = {
                k: t for k, t in self._rreq_seen.items() if t > now
            }

    def _rreq_is_duplicate(self, key: tuple[int, int]) -> bool:
        expiry = self._rreq_seen.get(key)
        return expiry is not None and expiry > self.sim.now

    def _handle_rreq(self, packet: Packet, from_node: int) -> None:
        header: RreqHeader = packet.header
        if header.origin == self.node_id:
            return  # our own flood echoed back
        key = header.dedupe_key()
        arrived_hops = header.hop_count + 1
        arrived_cost = self._route_cost(arrived_hops, header.path_load)

        if self._rreq_is_duplicate(key):
            self._process_duplicate_rreq(packet, from_node, arrived_cost)
            state = self._rreq_flood.get(key)
            if state is not None:
                state.duplicates_seen += 1
            return
        self._remember_rreq(key)

        # Reverse route to the originator through the sender.
        self._update_route(
            dst=header.origin,
            next_hop=from_node,
            hop_count=arrived_hops,
            seqno=header.origin_seq,
            cost=arrived_cost,
        )
        self._touch_neighbour_route(from_node)

        if header.dst == self.node_id:
            self._answer_as_destination(header)
            return

        if self.config.intermediate_reply:
            route = self.table.lookup(header.dst)
            # RFC 3561 §6.6: reply if our route is at least as fresh as the
            # requested seqno; an unknown seqno (-1) accepts any valid route.
            if route is not None and route.seqno >= header.dst_seq:
                self._send_rrep_intermediate(header, route)
                return

        self._consider_rreq_rebroadcast(packet, key)

    def _process_duplicate_rreq(
        self, packet: Packet, from_node: int, arrived_cost: float
    ) -> None:
        """Hook: plain AODV ignores duplicate RREQ copies entirely."""

    def _answer_as_destination(self, header: RreqHeader) -> None:
        # RFC 3561 §6.6.1: destination bumps its seqno to at least the
        # requested value before replying.
        self.seqno = max(self.seqno, header.dst_seq)
        if self.config.dest_reply_wait_s <= 0:
            self._send_rrep_as_destination(header)
            return
        key = header.dedupe_key()
        cost = self._rreq_candidate_cost(header)
        window = self._reply_windows.get(key)
        if window is None:
            window = _ReplyWindow(best_cost=cost, best_header=header)
            window.timer = self.sim.schedule_in(
                self.config.dest_reply_wait_s, self._close_reply_window, key
            )
            self._reply_windows[key] = window
        elif cost < window.best_cost:
            window.best_cost = cost
            window.best_header = header

    def _close_reply_window(self, key: tuple[int, int]) -> None:
        window = self._reply_windows.pop(key, None)
        if window is None:
            return
        self._send_rrep_as_destination(window.best_header)

    def _send_rrep_as_destination(self, header: RreqHeader) -> None:
        self.seqno += 1
        rrep = RrepHeader(
            origin=header.origin,
            dst=self.node_id,
            dst_seq=self.seqno,
            hop_count=0,
            lifetime_s=self.config.active_route_timeout_s,
            path_load=header.path_load,
        )
        self._send_rrep(rrep)

    def _send_rrep_intermediate(self, header: RreqHeader, route: RouteEntry) -> None:
        rrep = RrepHeader(
            origin=header.origin,
            dst=header.dst,
            dst_seq=route.seqno,
            hop_count=route.hop_count,
            lifetime_s=max(0.0, route.expiry - self.sim.now),
            path_load=route.cost,
        )
        self._send_rrep(rrep)
        if self.config.gratuitous_rrep:
            self._send_gratuitous_rrep(header, route)

    def _send_gratuitous_rrep(self, header: RreqHeader, route: RouteEntry) -> None:
        """Tell the destination about the originator's route (§6.6.3).

        Shaped as a normal RREP whose "destination" is the RREQ originator
        and whose target is the sought destination; it travels along our
        forward route and installs origin-bound routes at every hop."""
        reverse = self.table.lookup(header.origin)
        if reverse is None:
            return
        grat = RrepHeader(
            origin=header.dst,               # unicast target of this RREP
            dst=header.origin,               # the route it advertises
            dst_seq=header.origin_seq,
            hop_count=reverse.hop_count,
            lifetime_s=max(0.0, reverse.expiry - self.sim.now),
            path_load=reverse.cost,
        )
        packet = Packet(
            kind=PacketKind.RREP,
            src=self.node_id,
            dst=header.dst,
            ttl=self.config.rreq_ttl,
            header=grat,
            created_at=self.sim.now,
        )
        self.control_tx["rrep"] += 1
        self.tracer.record(
            self.sim.now, "net", self.node_id, "gratuitous_rrep",
            to=header.dst, about=header.origin,
        )
        self.stack.send_mac(packet, route.next_hop)

    def _send_rrep(self, rrep: RrepHeader) -> None:
        reverse = self.table.lookup(rrep.origin)
        if reverse is None:
            return  # reverse route evaporated; originator will retry
        packet = Packet(
            kind=PacketKind.RREP,
            src=self.node_id,
            dst=rrep.origin,
            ttl=self.config.rreq_ttl,
            header=rrep,
            created_at=self.sim.now,
        )
        self.control_tx["rrep"] += 1
        self.tracer.record(
            self.sim.now, "net", self.node_id, "rrep_send",
            origin=rrep.origin, dst=rrep.dst, hops=rrep.hop_count,
        )
        self.stack.send_mac(packet, reverse.next_hop)

    def _consider_rreq_rebroadcast(
        self, packet: Packet, key: tuple[int, int]
    ) -> None:
        if packet.ttl <= 1:
            return
        state = FloodState()
        self._rreq_flood[key] = state
        if len(self._rreq_flood) > 4096:
            self._rreq_flood.clear()  # stale floods; cache is advisory only
            self._rreq_flood[key] = state
        ctx = self._policy_context(packet, state)
        decision = self.rreq_policy.decide(ctx)
        if not decision.forward:
            self.rreq_suppressed += 1
            return
        delay = decision.assessment_delay_s
        if delay <= 0.0:
            delay = float(self.rng.uniform(0.0, RREQ_JITTER_MAX))
        state.pending = self.sim.schedule_in(
            delay, self._rebroadcast_rreq, packet, key
        )

    def _rebroadcast_rreq(self, packet: Packet, key: tuple[int, int]) -> None:
        state = self._rreq_flood.get(key)
        if state is None:  # cache was flushed; forward unconditionally
            state = FloodState()
        state.pending = None
        ctx = self._policy_context(packet, state)
        if not self.rreq_policy.decide_deferred(ctx):
            self.rreq_suppressed += 1
            return
        old: RreqHeader = packet.header
        header = RreqHeader(
            rreq_id=old.rreq_id,
            origin=old.origin,
            origin_seq=old.origin_seq,
            dst=old.dst,
            dst_seq=old.dst_seq,
            hop_count=old.hop_count + 1,
            path_load=old.path_load + self._own_load_contribution(),
        )
        copy = packet.copy_for_forwarding()
        copy.header = header
        copy.ttl -= 1
        copy.hops += 1
        state.rebroadcast_done = True
        self.rreq_forwarded += 1
        self.control_tx["rreq"] += 1
        self.tracer.record(
            self.sim.now, "net", self.node_id, "rreq_forward",
            origin=header.origin, rreq_id=header.rreq_id, dst=header.dst,
            ttl=copy.ttl,
        )
        self.stack.send_mac(copy, BROADCAST_ADDR)

    def _policy_context(self, packet: Packet, state: FloodState) -> PolicyContext:
        assert self.neighbour_table is not None
        return PolicyContext(
            node_id=self.node_id,
            hop_count=packet.header.hop_count,
            neighbour_count=len(self.neighbour_table),
            neighbourhood_load=self._own_load_contribution(),
            duplicates_seen=state.duplicates_seen,
        )

    # ------------------------------------------------------------------ #
    # RREP handling
    # ------------------------------------------------------------------ #
    def _handle_rrep(self, packet: Packet, from_node: int) -> None:
        header: RrepHeader = packet.header
        hops_to_dst = header.hop_count + 1
        self._update_route(
            dst=header.dst,
            next_hop=from_node,
            hop_count=hops_to_dst,
            seqno=header.dst_seq,
            cost=self._route_cost(hops_to_dst, header.path_load),
            lifetime_s=header.lifetime_s,
        )
        self._touch_neighbour_route(from_node)

        if header.origin == self.node_id:
            self.tracer.record(
                self.sim.now, "net", self.node_id, "rrep_arrived",
                dst=header.dst, hops=hops_to_dst,
            )
            self._discovery_succeeded(header.dst)
            return

        reverse = self.table.lookup(header.origin)
        if reverse is None:
            return  # cannot forward; originator retries
        forward = self.table.lookup(header.dst)
        if forward is not None:
            forward.precursors.add(reverse.next_hop)
        fwd_header = RrepHeader(
            origin=header.origin,
            dst=header.dst,
            dst_seq=header.dst_seq,
            hop_count=hops_to_dst,
            lifetime_s=header.lifetime_s,
            path_load=header.path_load,
        )
        copy = packet.copy_for_forwarding()
        copy.header = fwd_header
        copy.ttl -= 1
        copy.hops += 1
        if copy.ttl <= 0:
            return
        self.control_tx["rrep"] += 1
        self.stack.send_mac(copy, reverse.next_hop)

    # ------------------------------------------------------------------ #
    # RERR handling / link failures
    # ------------------------------------------------------------------ #
    def _handle_rerr(self, packet: Packet, from_node: int) -> None:
        header: RerrHeader = packet.header
        propagate: list[tuple[int, int]] = []
        for dst, seq in header.unreachable:
            entry = self.table.get_any(dst)
            if (
                entry is not None
                and entry.valid
                and entry.next_hop == from_node
            ):
                entry.seqno = max(entry.seqno, seq)
                self.table.invalidate(dst)
                if entry.precursors:
                    propagate.append((dst, entry.seqno))
        if propagate:
            self._send_rerr(propagate)

    def on_send_result(self, packet: Packet, dst_mac: int, success: bool) -> None:
        if success or dst_mac == BROADCAST_ADDR:
            return
        self._handle_link_failure(dst_mac, packet)

    def _handle_link_failure(self, neighbour: int, packet: Packet) -> None:
        self.tracer.record(
            self.sim.now, "net", self.node_id, "link_failure", neighbour=neighbour
        )
        if packet.kind is PacketKind.DATA:
            self.data_dropped_link += 1
        broken = self.table.routes_via(neighbour)
        unreachable: list[tuple[int, int]] = []
        for entry in broken:
            entry.seqno += 1  # RFC 3561 §6.11: bump seqno on invalidation
            self.table.invalidate(entry.dst)
            if entry.precursors:
                unreachable.append((entry.dst, entry.seqno))
        direct = self.table.get_any(neighbour)
        if direct is not None and direct.valid:
            direct.seqno += 1
            self.table.invalidate(neighbour)
            if direct.precursors:
                unreachable.append((neighbour, direct.seqno))
        if unreachable:
            self._send_rerr(unreachable)

    def _send_rerr(self, unreachable: list[tuple[int, int]]) -> None:
        limit = self.config.rerr_rate_limit_per_s
        if limit > 0:
            now = self.sim.now
            window = self._rerr_times
            while window and window[0] <= now - 1.0:
                window.pop(0)
            if len(window) >= limit:
                # RFC 3561 §6.11 RERR_RATELIMIT: drop the origination; the
                # information is advisory and neighbours re-learn from the
                # next data-plane failure once the window drains.
                self.rerr_suppressed += 1
                return
            window.append(now)
        packet = Packet(
            kind=PacketKind.RERR,
            src=self.node_id,
            dst=BROADCAST_ADDR,
            ttl=1,
            header=RerrHeader(unreachable=list(unreachable)),
            created_at=self.sim.now,
        )
        self.control_tx["rerr"] += 1
        self.tracer.record(
            self.sim.now, "net", self.node_id, "rerr_send",
            count=len(unreachable),
        )
        self.stack.send_mac(packet, BROADCAST_ADDR)

    # ------------------------------------------------------------------ #
    # DATA handling
    # ------------------------------------------------------------------ #
    def _handle_data(self, packet: Packet, from_node: int) -> None:
        packet.hops += 1  # the link just crossed
        if packet.dst == self.node_id:
            self.local_deliver(packet)
            return
        packet.ttl -= 1
        if packet.ttl <= 0:
            self.data_dropped_ttl += 1
            return
        route = self.table.lookup(packet.dst)
        if route is None:
            self.data_dropped_no_route += 1
            entry = self.table.get_any(packet.dst)
            seq = entry.seqno + 1 if entry is not None else 0
            self._send_rerr([(packet.dst, seq)])
            return
        route.precursors.add(from_node)
        self.data_forwarded += 1
        self._forward_data(packet, route)

    # ------------------------------------------------------------------ #
    # Route maintenance helpers
    # ------------------------------------------------------------------ #
    def _update_route(
        self,
        dst: int,
        next_hop: int,
        hop_count: int,
        seqno: int,
        cost: float,
        lifetime_s: float | None = None,
    ) -> None:
        if dst == self.node_id:
            return
        lifetime = (
            lifetime_s if lifetime_s is not None else self.config.active_route_timeout_s
        )
        existing = self.table.get_any(dst)
        accept = (
            existing is None
            or not existing.valid
            or seqno > existing.seqno
            or (seqno == existing.seqno and cost < existing.cost)
        )
        if not accept:
            return
        self.table.upsert(
            RouteEntry(
                dst=dst,
                next_hop=next_hop,
                hop_count=hop_count,
                seqno=seqno,
                cost=cost,
                expiry=self.sim.now + lifetime,
            )
        )

    def _touch_neighbour_route(self, neighbour: int) -> None:
        """Maintain the trivial one-hop route to a heard neighbour."""
        existing = self.table.get_any(neighbour)
        seqno = existing.seqno if existing is not None else 0
        self._update_route(
            dst=neighbour,
            next_hop=neighbour,
            hop_count=1,
            seqno=seqno,
            cost=self._route_cost(1, 0.0),
        )
        self.table.refresh(neighbour, self.config.active_route_timeout_s)
