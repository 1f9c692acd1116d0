"""Micro-benchmarks of the simulator substrate itself.

These are conventional pytest-benchmark measurements (many rounds) of the
hot paths the figure sweeps stress: event-heap throughput, timer churn,
channel dispatch, a full DCF unicast exchange, and a small end-to-end
scenario per protocol.
"""

import pytest

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.mac.csma import CsmaMac, MacConfig
from repro.phy.channel import Channel
from repro.phy.propagation import TwoRayGround
from repro.phy.radio import PhyConfig, Radio
from repro.sim.engine import Simulator
from repro.sim.process import Timer
from repro.sim.rng import RandomStreams


def bench_engine_event_throughput(benchmark):
    """Schedule + execute 50k no-op events."""

    def run():
        sim = Simulator()
        fn = lambda: None  # noqa: E731
        for k in range(50_000):
            sim.schedule(k * 1e-6, fn)
        sim.run()
        return sim.events_executed

    assert benchmark(run) == 50_000


def bench_engine_cancel_heavy(benchmark):
    """Half the scheduled events are cancelled before running."""

    def run():
        sim = Simulator()
        fn = lambda: None  # noqa: E731
        handles = [sim.schedule(k * 1e-6, fn) for k in range(20_000)]
        for h in handles[::2]:
            h.cancel()
        sim.run()
        return sim.events_executed

    assert benchmark(run) == 10_000


def bench_timer_restart_churn(benchmark):
    """Restart a timer 20k times (the MAC's dominant timer pattern)."""

    def run():
        sim = Simulator()
        t = Timer(sim, lambda: None)
        for _ in range(20_000):
            t.restart(1.0)
        t.cancel()
        return sim.pending

    benchmark(run)


def bench_engine_schedule_cb_fanout(benchmark):
    """Handle-less fan-out scheduling (the channel's rx event pattern).

    ``schedule_cb`` reuses pooled entry lists and skips handle
    allocation — the scalar-engine micro-fix this rides against the
    plain ``schedule`` fan-out measured by ``bench_engine_event_throughput``.
    """

    def run():
        sim = Simulator()
        fn = lambda: None  # noqa: E731
        for k in range(50_000):
            sim.schedule_cb(k * 1e-6, fn)
        sim.run()
        return sim.events_executed

    assert benchmark(run) == 50_000


def bench_engine_block_fanout(benchmark):
    """50k logical events delivered as 1k 50-receiver block events."""

    def run():
        sim = Simulator()
        sim.enable_batching()
        fn = lambda: None  # noqa: E731
        for k in range(1_000):
            sim.schedule_block(k * 1e-6, 50, fn)
        sim.run()
        return sim.events_executed

    assert benchmark(run) == 50_000


def bench_engine_sequence_fanout(benchmark):
    """50k logical events delivered as 1k 50-event sequence entries.

    The default channel fan-out: one frame's 25 ``rx_start``/``rx_end``
    pairs become one ``schedule_sequence`` entry drained in place, with
    the same ordering as the 50 ``schedule_cb`` calls it replaces.
    """

    def run():
        sim = Simulator()
        fn = lambda *a: None  # noqa: E731
        for k in range(1_000):
            t = k * 1e-3
            events = []
            for j in range(25):
                t0 = t + j * 1e-8
                events.append((t0, fn, (j,)))
                events.append((t0 + 3e-4, fn, ()))
            sim.schedule_sequence(events)
        sim.run()
        return sim.events_executed

    assert benchmark(run) == 50_000


def bench_channel_dispatch(benchmark):
    """1k broadcast dispatches across a 49-node mesh (cached plan path)."""
    from repro.phy.frame import PhyFrame

    sim = Simulator()
    ch = Channel(sim, TwoRayGround(), propagation_delay=False)
    rs = RandomStreams(1)
    for i in range(49):
        r = Radio(sim, i, PhyConfig(), rs.stream(f"p{i}"))
        ch.register(r, (230.0 * (i % 7), 230.0 * (i // 7)))

    def run():
        for _ in range(1_000):
            frame = PhyFrame(
                payload=None, bits=4096, rate_bps=11e6, preamble_s=192e-6,
                tx_power_w=PhyConfig().tx_power_w, tx_node=24,
            )
            ch.transmit(24, frame)
        # drain the generated rx events
        sim.run()
        return ch.transmissions

    benchmark(run)


def _mesh_channel(nx: int, spacing_m: float, spatial: bool) -> Channel:
    sim = Simulator()
    ch = Channel(sim, TwoRayGround(), propagation_delay=False,
                 spatial_index=spatial)
    rs = RandomStreams(1)
    for i in range(nx * nx):
        r = Radio(sim, i, PhyConfig(), rs.stream(f"p{i}"))
        ch.register(r, (spacing_m * (i % nx), spacing_m * (i // nx)))
    return ch


@pytest.mark.parametrize("spatial", [True, False],
                         ids=["spatial", "exhaustive"])
def bench_channel_dispatch_cold_n400(benchmark, spatial):
    """Fresh dispatch plans for all 400 nodes (the post-invalidation cost)."""
    ch = _mesh_channel(20, 300.0, spatial)
    power = PhyConfig().tx_power_w

    def run():
        ch._invalidate_all()
        for tx in range(400):
            ch._dispatch_plan(tx, power)
        return len(ch._dispatch_cache)

    assert benchmark(run) == 400


@pytest.mark.parametrize("spatial", [True, False],
                         ids=["spatial", "exhaustive"])
def bench_channel_dispatch_mobile_n400(benchmark, spatial):
    """One node roams a 400-node mesh; every node re-plans each step.

    The spatial path's incremental invalidation keeps plans outside the
    mover's neighbourhood cached; the exhaustive path rebuilds all 400.
    """
    import numpy as np

    ch = _mesh_channel(20, 300.0, spatial)
    power = PhyConfig().tx_power_w
    rng = np.random.default_rng(5)
    for tx in range(400):
        ch._dispatch_plan(tx, power)

    def run():
        mover = int(rng.integers(400))
        ch.set_position(mover, tuple(rng.uniform(0.0, 300.0 * 19, 2)))
        for tx in range(400):
            ch._dispatch_plan(tx, power)
        return len(ch._dispatch_cache)

    assert benchmark(run) == 400


def bench_dcf_unicast_exchange(benchmark):
    """100 acknowledged unicast frames between two DCF MACs."""

    def run():
        sim = Simulator()
        ch = Channel(sim, TwoRayGround(), propagation_delay=False)
        rs = RandomStreams(2)
        macs = []
        for i, pos in enumerate([(0.0, 0.0), (150.0, 0.0)]):
            radio = Radio(sim, i, PhyConfig(), rs.stream(f"p{i}"))
            ch.register(radio, pos)
            # queue must hold the whole burst (default drop-tail is 50)
            macs.append(
                CsmaMac(
                    sim, radio, MacConfig(queue_capacity=128),
                    rs.stream(f"m{i}"),
                )
            )
        delivered = []
        macs[1].rx_upper_callback = lambda p, s, i: delivered.append(p)
        for k in range(100):
            macs[0].send(k, 1, 512)
        sim.run()
        return len(delivered)

    assert benchmark(run) == 100


@pytest.mark.parametrize("protocol", ["aodv", "nlr", "oracle"])
def bench_small_scenario(benchmark, protocol):
    """End-to-end 3×3 scenario (8 s simulated) per protocol."""
    config = ScenarioConfig(
        protocol=protocol, grid_nx=3, grid_ny=3, n_flows=2,
        flow_rate_pps=5.0, sim_time_s=8.0, warmup_s=1.0, seed=3,
    )

    def run():
        return run_scenario(config).pdr

    pdr = benchmark.pedantic(run, rounds=2, iterations=1)
    assert pdr > 0.9
