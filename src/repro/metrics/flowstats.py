"""Per-flow delivery, delay, and throughput statistics.

The collector observes every originated packet (via the traffic sources)
and every delivered packet (via the sinks).  A *measurement window* can
exclude warm-up and cool-down transients, as the paper family's ns-2
scripts do: only packets **originated** inside the window count, for both
the sent and received tallies, so PDR never exceeds 1 from boundary
effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet

__all__ = ["FlowRecord", "FlowStatsCollector"]


@dataclass(slots=True)
class FlowRecord:
    """Accumulated statistics for one flow."""

    flow_id: int
    sent: int = 0
    received: int = 0
    bytes_received: int = 0
    delay_sum: float = 0.0
    delay_sq_sum: float = 0.0
    delay_max: float = 0.0
    hops_sum: int = 0
    first_rx: float = math.inf
    last_rx: float = -math.inf
    #: Raw per-packet delays in delivery order (percentiles and jitter).
    delays: list[float] = field(default_factory=list)
    _seen: set[int] = field(default_factory=set)

    @property
    def pdr(self) -> float:
        """Packet delivery ratio in [0, 1] (0 when nothing sent)."""
        return self.received / self.sent if self.sent else 0.0

    @property
    def mean_delay_s(self) -> float:
        """Mean end-to-end delay of delivered packets (NaN if none)."""
        return self.delay_sum / self.received if self.received else math.nan

    @property
    def delay_std_s(self) -> float:
        """Std-dev of end-to-end delay (NaN with < 2 deliveries)."""
        if self.received < 2:
            return math.nan
        mean = self.delay_sum / self.received
        var = max(0.0, self.delay_sq_sum / self.received - mean * mean)
        return math.sqrt(var)

    @property
    def mean_hops(self) -> float:
        """Mean path length of delivered packets (NaN if none)."""
        return self.hops_sum / self.received if self.received else math.nan

    def throughput_bps(self) -> float:
        """Received application throughput over the flow's active span."""
        span = self.last_rx - self.first_rx
        if span <= 0:
            return 0.0
        return self.bytes_received * 8 / span

    def delay_percentile_s(self, percentile: float) -> float:
        """Delay percentile in [0, 100] over delivered packets (NaN if none).

        Tail percentiles (p95/p99) expose the queueing spikes that mean
        delay averages away — the metric VoIP-class evaluations report.
        """
        if not 0.0 <= percentile <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {percentile!r}")
        if not self.delays:
            return math.nan
        return float(np.percentile(self.delays, percentile))

    @property
    def jitter_s(self) -> float:
        """Mean absolute delay variation between consecutive deliveries
        (the RFC 3550 inter-arrival jitter estimator's steady state;
        NaN with < 2 deliveries)."""
        if len(self.delays) < 2:
            return math.nan
        d = np.asarray(self.delays)
        return float(np.mean(np.abs(np.diff(d))))


class FlowStatsCollector:
    """Network-wide per-flow statistics.

    Parameters
    ----------
    measure_from_s, measure_until_s:
        Only packets *originated* in ``[measure_from_s, measure_until_s)``
        are counted.
    """

    def __init__(
        self, measure_from_s: float = 0.0, measure_until_s: float = math.inf
    ) -> None:
        if measure_until_s <= measure_from_s:
            raise ValueError("measurement window must be non-empty")
        self.measure_from_s = measure_from_s
        self.measure_until_s = measure_until_s
        self.flows: dict[int, FlowRecord] = {}

    def _in_window(self, packet: "Packet") -> bool:
        return self.measure_from_s <= packet.created_at < self.measure_until_s

    def _record(self, flow_id: int) -> FlowRecord:
        rec = self.flows.get(flow_id)
        if rec is None:
            rec = FlowRecord(flow_id=flow_id)
            self.flows[flow_id] = rec
        return rec

    def on_send(self, packet: "Packet") -> None:
        """Observe an originated packet (traffic-source hook)."""
        if not self._in_window(packet):
            return
        self._record(packet.flow_id).sent += 1

    def on_receive(self, packet: "Packet", now: float | None = None) -> None:
        """Observe a delivered packet (sink hook).

        ``now`` defaults to ``created_at + 0`` being unavailable — pass the
        simulator time; sinks wire this via a lambda capturing the sim.
        """
        if not self._in_window(packet) or packet.flow_id < 0:
            return
        rec = self._record(packet.flow_id)
        if packet.seq in rec._seen:
            return  # duplicate delivery guard
        rec._seen.add(packet.seq)
        rx_time = now if now is not None else packet.created_at
        delay = rx_time - packet.created_at
        rec.received += 1
        rec.bytes_received += packet.payload_bytes
        rec.delay_sum += delay
        rec.delay_sq_sum += delay * delay
        rec.delays.append(delay)
        rec.delay_max = max(rec.delay_max, delay)
        rec.hops_sum += packet.hops
        rec.first_rx = min(rec.first_rx, rx_time)
        rec.last_rx = max(rec.last_rx, rx_time)

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def total_sent(self) -> int:
        """Packets originated in the window, all flows."""
        return sum(r.sent for r in self.flows.values())

    @property
    def total_received(self) -> int:
        """Packets delivered (originated in the window), all flows."""
        return sum(r.received for r in self.flows.values())

    def overall_pdr(self) -> float:
        """Aggregate packet delivery ratio."""
        sent = self.total_sent
        return self.total_received / sent if sent else 0.0

    def mean_delay_s(self) -> float:
        """Delivery-weighted mean end-to-end delay (NaN if none)."""
        rx = self.total_received
        if rx == 0:
            return math.nan
        return sum(r.delay_sum for r in self.flows.values()) / rx

    def delay_percentile_s(self, percentile: float) -> float:
        """Delay percentile pooled over every flow's deliveries."""
        pooled: list[float] = []
        for r in self.flows.values():
            pooled.extend(r.delays)
        if not pooled:
            return math.nan
        if not 0.0 <= percentile <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {percentile!r}")
        return float(np.percentile(pooled, percentile))

    def aggregate_throughput_bps(self, span_s: float) -> float:
        """Total received application bits over ``span_s`` seconds."""
        if span_s <= 0:
            raise ValueError(f"span must be positive, got {span_s!r}")
        return sum(r.bytes_received for r in self.flows.values()) * 8 / span_s

    def mean_hops(self) -> float:
        """Delivery-weighted mean hop count (NaN if none)."""
        rx = self.total_received
        if rx == 0:
            return math.nan
        return sum(r.hops_sum for r in self.flows.values()) / rx
