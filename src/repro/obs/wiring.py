"""Registers the standard network metric namespace on a built network.

One call — :func:`register_network_metrics` — gives every run the same
queryable namespace, pulled from the live simulation objects at snapshot
time via the registry's collect hooks.  Pull-style wiring keeps the
protocol/MAC/PHY hot paths untouched (their existing attribute counters
remain the source of truth) while presenting one canonical,
deterministic view: the ``repro_*`` series below.

Namespace convention: ``repro_<layer>_<quantity>[_total]``, with
``{label="value"}`` children for enumerable dimensions (packet kind,
drop reason).  Everything in the snapshot is simulation state — never
wall-clock — so snapshots are byte-identical across processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.scenario import Network

__all__ = ["TOTALS_SERIES", "register_network_metrics", "totals_from_snapshot"]

#: Busy-ratio histogram bounds: the [0, 1] interval in 0.1 steps.
BUSY_BUCKETS = tuple(round(0.1 * k, 1) for k in range(1, 11))

#: End-to-end delay histogram bounds (seconds).
DELAY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


#: ``ScenarioResult.totals`` counter → the ``repro_*`` series it reads.
#: :func:`totals_from_snapshot` adds the two derived totals
#: (``control_packets``, ``normalized_routing_load``).
TOTALS_SERIES = {
    "rreq_tx": 'repro_net_control_tx_total{kind="rreq"}',
    "rrep_tx": 'repro_net_control_tx_total{kind="rrep"}',
    "rerr_tx": 'repro_net_control_tx_total{kind="rerr"}',
    "hello_tx": 'repro_net_control_tx_total{kind="hello"}',
    "control_bytes": "repro_net_control_bytes_total",
    "data_forwarded": "repro_net_data_forwarded_total",
    "data_originated": "repro_net_data_originated_total",
    "drops_no_route": 'repro_net_data_dropped_total{reason="no_route"}',
    "drops_ttl": 'repro_net_data_dropped_total{reason="ttl"}',
    "mac_data_tx": 'repro_mac_tx_total{kind="data"}',
    "mac_retries": "repro_mac_retries_total",
    "mac_retry_drops": 'repro_mac_drops_total{reason="retry"}',
    "mac_queue_drops": 'repro_mac_drops_total{reason="queue"}',
}


def totals_from_snapshot(snapshot: dict[str, float]) -> dict[str, float]:
    """The flat counter dump a run reports, read off its metrics snapshot.

    Keys are those of :data:`TOTALS_SERIES` plus ``control_packets`` (all
    control transmissions) and ``normalized_routing_load`` (control
    packets per DATA transmission, ``control / max(1, forwarded +
    originated)``).  A series missing from ``snapshot`` raises ``KeyError``.
    """
    totals = {key: snapshot[series] for key, series in TOTALS_SERIES.items()}
    totals["control_packets"] = (
        totals["rreq_tx"] + totals["rrep_tx"] + totals["rerr_tx"]
        + totals["hello_tx"]
    )
    denom = max(1.0, totals["data_forwarded"] + totals["data_originated"])
    totals["normalized_routing_load"] = totals["control_packets"] / denom
    return totals


def register_network_metrics(net: "Network") -> MetricsRegistry:
    """Wire the standard ``repro_*`` namespace into ``net.metrics``."""
    reg = net.metrics

    # Callback gauges resolve lazily, so registering before stacks/traffic
    # exist is fine — they read whatever the network holds at snapshot.
    reg.gauge(
        "repro_sim_events_executed_total",
        "engine callbacks executed",
        fn=lambda: net.sim.events_executed,
    )
    reg.gauge(
        "repro_sim_now_seconds",
        "simulation clock at snapshot",
        fn=lambda: net.sim.now,
    )
    reg.gauge(
        "repro_trace_recorded_total",
        "trace records accepted by the tracer",
        fn=lambda: net.tracer.recorded,
    )
    reg.gauge(
        "repro_trace_dropped_total",
        "trace records dropped from in-memory retention",
        fn=lambda: net.tracer.dropped,
    )

    reg.on_collect(lambda r: _collect(net, r))
    return reg


def _collect(net: "Network", reg: MetricsRegistry) -> None:
    """Pull hook: refresh every gauge/histogram from the live network."""
    stacks = net.stacks

    # --- net layer ----------------------------------------------------- #
    control = reg.gauge(
        "repro_net_control_tx_total", "control transmissions by packet kind"
    )
    for kind in ("rreq", "rrep", "rerr", "hello"):
        control.labels(kind=kind).set(
            sum(s.routing.control_tx[kind] for s in stacks)
        )
    reg.gauge("repro_net_control_bytes_total", "control bytes sent").set(
        sum(s.routing.control_bytes_tx for s in stacks)
    )
    reg.gauge("repro_net_data_originated_total", "DATA packets originated").set(
        sum(s.routing.data_originated for s in stacks)
    )
    reg.gauge("repro_net_data_forwarded_total", "DATA packets forwarded").set(
        sum(s.routing.data_forwarded for s in stacks)
    )
    drops = reg.gauge(
        "repro_net_data_dropped_total", "routing-layer DATA drops by reason"
    )
    drops.labels(reason="no_route").set(
        sum(s.routing.data_dropped_no_route for s in stacks)
    )
    drops.labels(reason="ttl").set(
        sum(s.routing.data_dropped_ttl for s in stacks)
    )
    drops.labels(reason="link").set(
        sum(s.routing.data_dropped_link for s in stacks)
    )
    drops.labels(reason="buffer").set(
        sum(s.routing.data_dropped_buffer for s in stacks)
    )
    reg.gauge(
        "repro_net_rreq_forwarded_total", "RREQ rebroadcasts (storm size)"
    ).set(sum(s.routing.rreq_forwarded for s in stacks))
    reg.gauge(
        "repro_net_rerr_suppressed_total",
        "RERRs suppressed by RFC 3561 rate limiting",
    ).set(sum(s.routing.rerr_suppressed for s in stacks))
    reg.gauge(
        "repro_net_discoveries_failed_total", "route discoveries given up"
    ).set(sum(s.routing.discoveries_failed for s in stacks))

    # --- mac layer ------------------------------------------------------ #
    mac_tx = reg.gauge(
        "repro_mac_tx_total", "MAC frame transmissions by kind"
    )
    mac_tx.labels(kind="data").set(sum(s.mac.data_tx for s in stacks))
    mac_tx.labels(kind="ack").set(sum(s.mac.ack_tx for s in stacks))
    mac_tx.labels(kind="rts").set(sum(s.mac.rts_tx for s in stacks))
    mac_tx.labels(kind="cts").set(sum(s.mac.cts_tx for s in stacks))
    reg.gauge("repro_mac_retries_total", "MAC retransmissions").set(
        sum(s.mac.retries_total for s in stacks)
    )
    mac_drops = reg.gauge("repro_mac_drops_total", "MAC drops by reason")
    mac_drops.labels(reason="retry").set(
        sum(s.mac.drops_retry for s in stacks)
    )
    mac_drops.labels(reason="queue").set(
        sum(s.mac.queue_drops for s in stacks)
    )
    busy = reg.histogram(
        "repro_mac_busy_ratio",
        "per-node channel busy ratio at snapshot",
        buckets=BUSY_BUCKETS,
    )
    busy.reset()
    for s in stacks:
        busy.observe(s.mac.channel_busy_ratio())

    # --- phy layer ------------------------------------------------------ #
    if net.channel is not None:
        frames = reg.gauge(
            "repro_phy_frames_total", "radio frame outcomes by kind"
        )
        radios = net.channel.radios()
        frames.labels(kind="sent").set(sum(r.frames_sent for r in radios))
        frames.labels(kind="received").set(
            sum(r.frames_received for r in radios)
        )
        frames.labels(kind="corrupted").set(
            sum(r.frames_corrupted for r in radios)
        )
        frames.labels(kind="captured").set(
            sum(r.frames_captured for r in radios)
        )

    # --- flows (application) -------------------------------------------- #
    collector = net.collector
    reg.gauge("repro_flows_sent_total", "in-window originated packets").set(
        collector.total_sent
    )
    reg.gauge("repro_flows_received_total", "in-window delivered packets").set(
        collector.total_received
    )
    reg.gauge("repro_flows_pdr", "aggregate packet delivery ratio").set(
        collector.overall_pdr()
    )
    delay = reg.histogram(
        "repro_flows_delay_seconds",
        "end-to-end delay of in-window deliveries",
        buckets=DELAY_BUCKETS,
    )
    delay.reset()
    for record in collector.flows.values():
        for d in record.delays:
            delay.observe(d)
