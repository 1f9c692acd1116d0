"""Unit tests for the radio state machine and the shared channel."""

import numpy as np
import pytest

from repro.phy.channel import Channel
from repro.phy.frame import PhyFrame, RxInfo
from repro.phy.propagation import TwoRayGround
from repro.phy.radio import PhyConfig, Radio, RadioState
from repro.sim.engine import Simulator
from repro.sim.errors import SimulationError


def make_net(positions, sim=None, capture=True, prop_delay=False):
    sim = sim or Simulator()
    ch = Channel(sim, TwoRayGround(), propagation_delay=prop_delay)
    radios = []
    for i, pos in enumerate(positions):
        r = Radio(sim, i, PhyConfig(capture_enabled=capture))
        ch.register(r, pos)
        radios.append(r)
    return sim, ch, radios


def frame(tx_node, bits=8000, rate=11e6):
    return PhyFrame(
        payload=f"payload-{tx_node}",
        bits=bits,
        rate_bps=rate,
        preamble_s=192e-6,
        tx_power_w=PhyConfig().tx_power_w,
        tx_node=tx_node,
    )


class TestBasicReception:
    def test_in_range_delivery(self):
        sim, ch, radios = make_net([(0, 0), (200, 0)])
        got = []
        radios[1].rx_callback = lambda p, info: got.append((p, info))
        radios[0].transmit(frame(0))
        sim.run()
        assert len(got) == 1
        assert got[0][0] == "payload-0"
        assert isinstance(got[0][1], RxInfo)
        assert got[0][1].tx_node == 0

    def test_out_of_range_not_locked(self):
        sim, ch, radios = make_net([(0, 0), (400, 0)])
        got = []
        radios[1].rx_callback = lambda p, info: got.append(p)
        radios[0].transmit(frame(0))
        sim.run()
        assert got == []

    def test_rx_info_timing(self):
        sim, ch, radios = make_net([(0, 0), (100, 0)])
        infos = []
        radios[1].rx_callback = lambda p, info: infos.append(info)
        f = frame(0)
        radios[0].transmit(f)
        sim.run()
        assert infos[0].end_time - infos[0].start_time == pytest.approx(
            f.duration_s
        )

    def test_half_duplex_no_self_reception(self):
        sim, ch, radios = make_net([(0, 0), (200, 0)])
        got0 = []
        radios[0].rx_callback = lambda p, info: got0.append(p)
        radios[0].transmit(frame(0))
        sim.run()
        assert got0 == []

    def test_transmit_while_tx_raises(self):
        sim, ch, radios = make_net([(0, 0), (200, 0)])
        radios[0].transmit(frame(0))
        with pytest.raises(SimulationError):
            radios[0].transmit(frame(0))

    def test_tx_done_callback(self):
        sim, ch, radios = make_net([(0, 0), (200, 0)])
        done = []
        radios[0].tx_done_callback = lambda: done.append(sim.now)
        f = frame(0)
        radios[0].transmit(f)
        sim.run()
        assert done == [pytest.approx(f.duration_s)]

    def test_unattached_radio_rejects_tx(self):
        sim = Simulator()
        r = Radio(sim, 0, PhyConfig())
        with pytest.raises(SimulationError):
            r.transmit(frame(0))


class TestCollisions:
    def test_simultaneous_equal_power_collision(self):
        # Two senders equidistant from the receiver, same instant: SINR ≈ 1
        # (0 dB) at the receiver → both corrupted under a 10 dB threshold.
        sim, ch, radios = make_net([(0, 0), (200, 100), (200, -100)])
        got = []
        radios[0].rx_callback = lambda p, info: got.append(p)
        sim.schedule(0.0, radios[1].transmit, frame(1))
        sim.schedule(0.0, radios[2].transmit, frame(2))
        sim.run()
        assert got == []
        assert radios[0].frames_corrupted >= 1

    def test_capture_by_much_stronger_late_frame(self):
        # Weak frame locks first; a far stronger one arrives and captures.
        sim, ch, radios = make_net([(0, 0), (240, 0), (20, 0)])
        got = []
        radios[0].rx_callback = lambda p, info: got.append(p)
        sim.schedule(0.0, radios[1].transmit, frame(1))
        sim.schedule(0.0001, radios[2].transmit, frame(2))
        sim.run()
        assert got == ["payload-2"]
        assert radios[0].frames_captured == 1

    def test_no_capture_when_disabled(self):
        sim, ch, radios = make_net([(0, 0), (240, 0), (20, 0)], capture=False)
        got = []
        radios[0].rx_callback = lambda p, info: got.append(p)
        sim.schedule(0.0, radios[1].transmit, frame(1))
        sim.schedule(0.0001, radios[2].transmit, frame(2))
        sim.run()
        assert got == []  # first ruined by interference, second never locked

    def test_weak_interferer_does_not_break_strong_frame(self):
        # Interferer is far: SINR stays above 10 dB → frame survives.
        sim, ch, radios = make_net([(0, 0), (100, 0), (900, 0)])
        got = []
        radios[0].rx_callback = lambda p, info: got.append(p)
        sim.schedule(0.0, radios[1].transmit, frame(1))
        sim.schedule(0.0001, radios[2].transmit, frame(2))
        sim.run()
        assert got == ["payload-1"]

    def test_tx_preempts_reception(self):
        sim, ch, radios = make_net([(0, 0), (200, 0)])
        got = []
        radios[1].rx_callback = lambda p, info: got.append(p)
        sim.schedule(0.0, radios[0].transmit, frame(0))
        # Receiver starts its own transmission mid-reception.
        sim.schedule(0.0002, radios[1].transmit, frame(1))
        sim.run()
        assert got == []
        assert radios[1].frames_corrupted == 1


class TestCarrierSense:
    def test_cca_busy_within_cs_range(self):
        # 400 m: beyond rx range (250) but inside cs range (550).
        sim, ch, radios = make_net([(0, 0), (400, 0)])
        transitions = []
        radios[1].cca_callback = lambda busy: transitions.append((sim.now, busy))
        f = frame(0)
        radios[0].transmit(f)
        sim.run()
        assert transitions[0][1] is True
        assert transitions[-1][1] is False
        busy_span = transitions[-1][0] - transitions[0][0]
        assert busy_span == pytest.approx(f.duration_s)

    def test_cca_idle_beyond_cull(self):
        sim, ch, radios = make_net([(0, 0), (3000, 0)])
        transitions = []
        radios[1].cca_callback = lambda busy: transitions.append(busy)
        radios[0].transmit(frame(0))
        sim.run()
        assert transitions == []

    def test_own_tx_is_busy(self):
        sim, ch, radios = make_net([(0, 0), (200, 0)])
        assert not radios[0].cca_busy
        radios[0].transmit(frame(0))
        assert radios[0].cca_busy
        sim.run()
        assert not radios[0].cca_busy


class TestChannel:
    def test_register_duplicate_rejected(self):
        sim, ch, radios = make_net([(0, 0)])
        extra = Radio(sim, 0, PhyConfig())
        with pytest.raises(SimulationError):
            ch.register(extra, (1, 1))

    def test_positions_update(self):
        sim, ch, radios = make_net([(0, 0), (100, 0)])
        ch.set_position(1, (500, 500))
        assert np.allclose(ch.position_of(1), [500, 500])

    def test_unknown_node_rejected(self):
        sim, ch, radios = make_net([(0, 0)])
        with pytest.raises(SimulationError):
            ch.position_of(42)

    def test_propagation_delay_defers_arrival(self):
        sim, ch, radios = make_net([(0, 0), (200, 0)], prop_delay=True)
        infos = []
        radios[1].rx_callback = lambda p, info: infos.append(info)
        radios[0].transmit(frame(0))
        sim.run()
        assert infos[0].start_time == pytest.approx(200 / 299_792_458.0)

    def test_transmission_counter(self):
        sim, ch, radios = make_net([(0, 0), (200, 0)])
        radios[0].transmit(frame(0))
        sim.run()
        assert ch.transmissions == 1
