"""The canonical metrics snapshot of a run: the flat ``repro_*`` series.

:func:`network_metrics` reads a live network's own counters — routing
stacks, MACs, radios, the flow collector, the engine and the tracer —
straight into one flat ``{series_name: value}`` dict.  The protocol, MAC
and PHY hot paths keep their attribute counters as the source of truth;
nothing is registered or updated while the simulation runs.

Naming convention: ``repro_<layer>_<quantity>[_total]``, with
``{label="value"}`` children for enumerable dimensions (packet kind, drop
reason).  A histogram expands into cumulative ``_bucket{le="..."}``
series, a ``+Inf`` bucket, ``_sum`` and ``_count``.  Series families come
in name order, labelled children in label order.  Everything in the
snapshot is simulation state — never wall-clock — so the snapshot of a
run is byte-identical no matter which process executed it; campaign
cells serialise it alongside results.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.scenario import Network

__all__ = [
    "BUSY_BUCKETS",
    "DELAY_BUCKETS",
    "TOTALS_SERIES",
    "network_metrics",
    "totals_from_snapshot",
]

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


def _histogram(
    out: dict[str, float],
    name: str,
    buckets: tuple[float, ...],
    values: Iterable[float],
) -> None:
    """Add histogram ``name`` over ``values`` to ``out`` (NaN skipped)."""
    counts = [0] * (len(buckets) + 1)  # +Inf overflow bucket last
    total = 0.0
    for value in values:
        if math.isnan(value):
            continue
        counts[bisect.bisect_left(buckets, value)] += 1
        total += value
    cumulative = 0
    for bound, n in zip(buckets, counts):
        cumulative += n
        out[f'{name}_bucket{{le="{bound:g}"}}'] = float(cumulative)
    count = float(sum(counts))
    out[f'{name}_bucket{{le="+Inf"}}'] = count
    out[f"{name}_sum"] = total
    out[f"{name}_count"] = count


def network_metrics(net: "Network") -> dict[str, float]:
    """The ``repro_*`` snapshot of ``net``, read from its live counters.

    The ``repro_phy_*`` series exist only when the network has a radio
    channel (not under ``mac="perfect"``).
    """
    routing = [s.routing for s in net.stacks]
    macs = [s.mac for s in net.stacks]
    collector = net.collector
    out: dict[str, float] = {}

    # --- flows (application) -------------------------------------------- #
    _histogram(
        out, "repro_flows_delay_seconds", DELAY_BUCKETS,
        (d for record in collector.flows.values() for d in record.delays),
    )
    out["repro_flows_pdr"] = float(collector.overall_pdr())
    out["repro_flows_received_total"] = float(collector.total_received)
    out["repro_flows_sent_total"] = float(collector.total_sent)

    # --- mac layer ------------------------------------------------------ #
    _histogram(
        out, "repro_mac_busy_ratio", BUSY_BUCKETS,
        (m.channel_busy_ratio() for m in macs),
    )
    out['repro_mac_drops_total{reason="queue"}'] = float(
        sum(m.queue_drops for m in macs)
    )
    out['repro_mac_drops_total{reason="retry"}'] = float(
        sum(m.drops_retry for m in macs)
    )
    out["repro_mac_retries_total"] = float(sum(m.retries_total for m in macs))
    for kind in ("ack", "cts", "data", "rts"):
        out[f'repro_mac_tx_total{{kind="{kind}"}}'] = float(
            sum(getattr(m, f"{kind}_tx") for m in macs)
        )

    # --- net layer ------------------------------------------------------ #
    out["repro_net_control_bytes_total"] = float(
        sum(r.control_bytes_tx for r in routing)
    )
    for kind in ("hello", "rerr", "rrep", "rreq"):
        out[f'repro_net_control_tx_total{{kind="{kind}"}}'] = float(
            sum(r.control_tx[kind] for r in routing)
        )
    for reason in ("buffer", "link", "no_route", "ttl"):
        out[f'repro_net_data_dropped_total{{reason="{reason}"}}'] = float(
            sum(getattr(r, f"data_dropped_{reason}") for r in routing)
        )
    for counter in (
        "data_forwarded", "data_originated", "discoveries_failed",
        "rerr_suppressed", "rreq_forwarded",
    ):
        out[f"repro_net_{counter}_total"] = float(
            sum(getattr(r, counter) for r in routing)
        )

    # --- phy layer ------------------------------------------------------ #
    if net.channel is not None:
        radios = net.channel.radios()
        for kind in ("captured", "corrupted", "received", "sent"):
            out[f'repro_phy_frames_total{{kind="{kind}"}}'] = float(
                sum(getattr(r, f"frames_{kind}") for r in radios)
            )

    # --- engine and tracer ---------------------------------------------- #
    out["repro_sim_events_executed_total"] = float(net.sim.events_executed)
    out["repro_sim_now_seconds"] = float(net.sim.now)
    ring = net.trace_ring
    out["repro_trace_dropped_total"] = float(0 if ring is None else ring.dropped)
    out["repro_trace_recorded_total"] = float(net.tracer.recorded)
    return out
