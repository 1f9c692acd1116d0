"""MAC substrate validation: simulated vs analytical saturation throughput.

``run_saturation`` puts ``n`` stations in one collision domain (a 10 m
circle, so every station senses every other and near-equal powers deny
capture), saturates each with closed-loop unicast traffic to its ring
neighbour, and measures aggregate delivered application throughput.  The
validation figure compares this against Bianchi's closed form
(:mod:`repro.analysis.bianchi`) — if the DCF implementation is right, the
two curves lie within a few percent across station counts.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.bianchi import saturation_throughput_bps
from repro.experiments.runner import frees_simulation
from repro.mac.csma import CsmaMac, MacConfig
from repro.phy.channel import Channel
from repro.phy.propagation import TwoRayGround
from repro.phy.radio import PhyConfig, Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

__all__ = ["run_saturation", "saturation_comparison"]


@frees_simulation
def run_saturation(
    n: int,
    duration_s: float = 5.0,
    payload_bytes: int = 512,
    seed: int = 1,
    mac_config: MacConfig | None = None,
) -> float:
    """Measured aggregate saturation throughput (bits/s) for ``n`` stations.

    Bianchi's star topology: ``n`` saturated senders sit equidistant on a
    10 m circle around one sink (node ``n``) and refill their MAC queues on
    every completion, so queues never empty.  Equidistance matters: every
    collision at the sink is between equal-power frames (SINR ≈ 0 dB),
    destroying all colliders exactly as the model assumes.  Capture is
    disabled for the same reason (a late stronger frame could otherwise
    steal the lock at sender-side receptions).
    """
    if n < 2:
        raise ValueError(f"need ≥ 2 stations, got {n}")
    sim = Simulator()
    channel = Channel(sim, TwoRayGround(), propagation_delay=False)
    streams = RandomStreams(seed)
    macs: list[CsmaMac] = []
    received_bytes = [0]

    phy = PhyConfig(capture_enabled=False)
    for i in range(n):
        angle = 2.0 * math.pi * i / n
        pos = (10.0 * math.cos(angle), 10.0 * math.sin(angle))
        radio = Radio(sim, i, phy)
        channel.register(radio, pos)
        macs.append(
            CsmaMac(
                sim, radio, mac_config or MacConfig(),
                streams.stream(f"mac.{i}"),
            )
        )
    sink_radio = Radio(sim, n, phy)
    channel.register(sink_radio, (0.0, 0.0))
    sink = CsmaMac(
        sim, sink_radio, mac_config or MacConfig(), streams.stream("mac.sink")
    )
    sink.rx_upper_callback = (
        lambda pkt, src, info: received_bytes.__setitem__(
            0, received_bytes[0] + payload_bytes
        )
    )

    def refill(mac: CsmaMac) -> None:
        mac.send(None, n, payload_bytes)

    for mac in macs:
        # Closed loop: every completion immediately queues the next frame.
        mac.send_done_callback = (
            lambda pkt, d, ok, _mac=mac: refill(_mac)
        )
        # Prime with two frames so the queue never drains between the
        # completion callback and the next dequeue.
        refill(mac)
        refill(mac)

    sim.run(until=duration_s)
    return received_bytes[0] * 8 / duration_s


def saturation_comparison(
    station_counts: list[int] | None = None,
    duration_s: float = 5.0,
    payload_bytes: int = 512,
    seed: int = 1,
) -> list[dict[str, float]]:
    """Rows of {n, simulated_bps, bianchi_bps, error_pct} per station count."""
    station_counts = station_counts or [2, 5, 10, 15]
    rows = []
    for n in station_counts:
        sim_bps = run_saturation(
            n, duration_s=duration_s, payload_bytes=payload_bytes, seed=seed
        )
        model_bps = saturation_throughput_bps(n, payload_bytes=payload_bytes)
        rows.append(
            {
                "n": float(n),
                "simulated_bps": sim_bps,
                "bianchi_bps": model_bps,
                "error_pct": 100.0 * (sim_bps - model_bps) / model_bps,
            }
        )
    return rows
