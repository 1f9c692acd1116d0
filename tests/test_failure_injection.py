"""Failure-injection tests: node crashes and network self-healing."""

import pytest

from repro.experiments.scenario import ScenarioConfig, build_network
from repro.phy.channel import Channel
from repro.phy.frame import PhyFrame
from repro.phy.propagation import TwoRayGround
from repro.phy.radio import PhyConfig, Radio, RadioState
from repro.sim.engine import Simulator
from repro.sim.errors import SimulationError

#: The whole module is part of the CI chaos suite (seed-swept).
pytestmark = pytest.mark.chaos


def build(protocol="aodv", **kw):
    defaults = dict(
        protocol=protocol, grid_nx=4, grid_ny=1, spacing_m=200.0,
        n_flows=1, sim_time_s=30.0, warmup_s=1.0, seed=9,
    )
    defaults.update(kw)
    config = ScenarioConfig(**defaults)
    net = build_network(config)
    # Replace the random flow with a deterministic end-to-end one.
    from repro.traffic.flows import FlowSpec
    from repro.traffic.generators import CbrSource

    net.sources.clear()
    flow = FlowSpec(flow_id=0, src=0, dst=3, rate_pps=10.0,
                    start_s=1.0, stop_s=config.sim_time_s)
    net.flows = [flow]
    net.sources.append(
        CbrSource(net.sim, net.stacks[0], flow,
                  on_send=net.collector.on_send)
    )
    return net


class TestRadioPowerState:
    def test_powered_off_radio_is_deaf_and_mute(self):
        net = build()
        net.start()
        net.sim.run(until=3.0)
        radio = net.stacks[1].mac.radio
        radio.set_power_state(False)
        with pytest.raises(SimulationError):
            radio.transmit(None)  # type: ignore[arg-type]
        assert radio.state is RadioState.IDLE
        # signals in flight toward the dead radio must not crash the sim
        net.sim.run(until=5.0)

    def test_power_cycle_restores_reception(self):
        net = build()
        net.start()
        net.sim.run(until=2.0)
        radio = net.stacks[1].mac.radio
        radio.set_power_state(False)
        net.sim.run(until=4.0)
        radio.set_power_state(True)
        before = radio.frames_received
        net.sim.run(until=8.0)
        assert radio.frames_received > before

    def test_double_toggle_idempotent(self):
        net = build()
        radio = net.stacks[1].mac.radio
        radio.set_power_state(False)
        radio.set_power_state(False)
        radio.set_power_state(True)
        radio.set_power_state(True)
        assert radio.powered


class TestMidFlightPowerOff:
    """Regression: powering off mid-reception/transmission must abort the
    in-flight frame cleanly — no stale ``tx_end``, no MAC deadlock."""

    def _pair(self):
        sim = Simulator()
        channel = Channel(sim, TwoRayGround())
        radios = []
        for i in range(2):
            r = Radio(sim, i, PhyConfig())
            channel.register(r, (i * 100.0, 0.0))
            radios.append(r)
        return sim, radios

    @staticmethod
    def _frame(payload, node):
        # 8000 bits at 1 Mb/s, no preamble: exactly 8 ms of airtime.
        return PhyFrame(payload=payload, bits=8000, rate_bps=1e6,
                        preamble_s=0.0, tx_power_w=0.28, tx_node=node)

    def test_power_off_mid_tx_aborts_cleanly(self):
        sim, (tx, _rx) = self._pair()
        done, aborted = [], []
        tx.tx_done_callback = lambda: done.append(sim.now)
        tx.tx_abort_callback = lambda: aborted.append(sim.now)
        sim.schedule(1.0, tx.transmit, self._frame("x", 0))
        sim.schedule(1.004, tx.set_power_state, False)  # mid-air
        sim.run(until=1.1)
        assert aborted == [1.004]
        assert done == []  # tx_done must never fire for the torn-down frame
        assert tx.state is RadioState.IDLE
        assert tx._tx_frame is None and tx._tx_end_handle is None

    def test_stale_tx_end_cannot_complete_new_frame(self):
        # Power-cycle mid-TX, then start a NEW 8 ms frame.  The aborted
        # frame's tx_end (1.008, were it not cancelled) must not complete
        # the new frame 4 ms early.
        sim, (tx, _rx) = self._pair()
        done = []
        tx.tx_done_callback = lambda: done.append(sim.now)
        sim.schedule(1.0, tx.transmit, self._frame("a", 0))

        def cycle():
            tx.set_power_state(False)
            tx.set_power_state(True)
            tx.transmit(self._frame("b", 0))  # ends at 1.012

        sim.schedule(1.004, cycle)
        sim.run(until=1.1)
        assert done == [pytest.approx(1.012)]

    def test_power_off_mid_rx_aborts_reception(self):
        sim, (tx, rx) = self._pair()
        got = []
        rx.rx_callback = lambda payload, info: got.append(payload)
        sim.schedule(1.0, tx.transmit, self._frame("x", 0))
        sim.schedule(1.004, rx.set_power_state, False)  # mid-reception
        sim.run(until=1.1)
        assert got == []
        assert rx.state is RadioState.IDLE and rx._current is None
        # power back on: the next frame decodes normally
        rx.set_power_state(True)
        sim.schedule(2.0, tx.transmit, self._frame("y", 0))
        sim.run(until=2.1)
        assert got == ["y"]

    def test_mac_survives_power_off_during_own_tx(self):
        # Catch the source MAC mid-transmission, kill the radio under it,
        # restore it, and require the flow to keep delivering — the old
        # bug left the MAC waiting forever on a tx_done that never came.
        net = build()
        net.start()
        mac = net.stacks[0].mac
        caught = []

        def poll():
            if caught:
                return
            if mac.radio.state is RadioState.TX:
                caught.append(net.sim.now)
                mac.radio.set_power_state(False)
                net.sim.schedule_in(0.5, mac.radio.set_power_state, True)
            else:
                net.sim.schedule_in(0.0005, poll)

        net.sim.schedule(2.0, poll)
        net.sim.run(until=30.0)
        net.stop()
        assert caught, "poller never saw an active transmission"
        rec = net.collector.flows[0]
        assert rec.last_rx > caught[0] + 1.0  # traffic resumed afterwards


class TestNodeCrashOnChain:
    def test_relay_crash_kills_chain_flow(self):
        # On a chain there is no alternate path: the flow must die while
        # node 1 is down and the origin must start failing discoveries.
        net = build()
        net.start()
        net.sim.schedule(5.0, net.stacks[1].fail)
        net.sim.run(until=20.0)
        net.stop()
        r0 = net.stacks[0].routing
        assert r0.discoveries_failed > 0 or r0.data_dropped_link > 0
        rec = net.collector.flows[0]
        assert rec.received < rec.sent  # packets were lost after the crash

    def test_crash_and_recovery_heals_flow(self):
        net = build()
        net.start()
        net.sim.schedule(5.0, net.stacks[1].fail)
        net.sim.schedule(12.0, net.stacks[1].recover)
        net.sim.run(until=30.0)
        net.stop()
        # deliveries resumed after recovery: count arrivals created late
        late = [
            p_seq for p_seq in net.collector.flows[0]._seen
        ]
        rec = net.collector.flows[0]
        assert rec.received > 0
        # the last delivered packet was originated well after recovery
        assert rec.last_rx > 14.0


class TestCrashWithAlternatePath:
    def test_grid_routes_around_dead_router(self):
        # 3×3 grid, flow corner-to-corner: killing one on-path relay must
        # not kill delivery — AODV reroutes via the other side.
        config = ScenarioConfig(
            protocol="aodv", grid_nx=3, grid_ny=3, n_flows=1,
            sim_time_s=30.0, warmup_s=1.0, seed=11,
        )
        net = build_network(config)
        from repro.traffic.flows import FlowSpec
        from repro.traffic.generators import CbrSource

        net.sources.clear()
        flow = FlowSpec(flow_id=0, src=0, dst=8, rate_pps=10.0,
                        start_s=1.0, stop_s=30.0)
        net.flows = [flow]
        net.sources.append(
            CbrSource(net.sim, net.stacks[0], flow,
                      on_send=net.collector.on_send)
        )
        net.start()
        net.sim.run(until=5.0)
        # find the relay actually carrying the flow and kill it
        loads = [(s.routing.data_forwarded, s.node_id) for s in net.stacks]
        _, busiest = max(loads)
        assert busiest not in (0, 8)
        net.stacks[busiest].fail()
        net.sim.run(until=30.0)
        net.stop()
        rec = net.collector.flows[0]
        # the large majority of packets still arrive (short outage only)
        assert rec.received / rec.sent > 0.85
        # and someone other than the dead node carried them afterwards
        others = sum(
            s.routing.data_forwarded
            for s in net.stacks
            if s.node_id not in (0, 8, busiest)
        )
        assert others > 0
