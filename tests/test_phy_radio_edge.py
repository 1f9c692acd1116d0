"""Edge-case tests for radio reception internals: the SINR the radio
reports and the one reception rule (decoded iff min SINR >= 10 dB)."""

import numpy as np
import pytest

from repro.experiments.serialization import config_from_dict
from repro.phy.channel import Channel
from repro.phy.frame import PhyFrame
from repro.phy.propagation import TwoRayGround
from repro.phy.radio import (
    SINR_THRESHOLD,
    PhyConfig,
    Radio,
    RadioState,
    rx_end_block,
)
from repro.sim.engine import Simulator


def make(positions, capture=True):
    sim = Simulator()
    ch = Channel(sim, TwoRayGround(), propagation_delay=False)
    radios = []
    for i, pos in enumerate(positions):
        r = Radio(sim, i, PhyConfig(capture_enabled=capture))
        ch.register(r, pos)
        radios.append(r)
    return sim, ch, radios


def frame(tx, bits=8000):
    cfg = PhyConfig()
    return PhyFrame(
        payload=f"p{tx}", bits=bits, rate_bps=11e6, preamble_s=192e-6,
        tx_power_w=cfg.tx_power_w, tx_node=tx,
    )


def power_at(ch, tx, rx):
    """Received power of ``tx``'s frames at ``rx`` (the channel's model)."""
    return ch.propagation.rx_power(
        PhyConfig().tx_power_w, ch.position_of(tx), ch.position_of(rx)
    )


def interfered_reception(interferer_bits):
    """Node 1 sends to node 0; node 2 (900 m away) starts a frame of
    ``interferer_bits`` a quarter of the way in.  Returns what node 0
    reports and the powers involved."""
    sim, ch, radios = make([(0, 0), (150, 0), (900, 0)])
    got = []
    radios[0].rx_callback = lambda p, info: got.append(info)
    f1 = frame(1)
    sim.schedule(0.0, radios[1].transmit, f1)
    sim.schedule(f1.duration_s / 4, radios[2].transmit, frame(2, interferer_bits))
    sim.run()
    assert len(got) == 1
    return got[0], power_at(ch, 1, 0), power_at(ch, 2, 0), f1


class TestSinrSegmentation:
    def test_clean_reception_single_segment(self):
        sim, ch, radios = make([(0, 0), (150, 0)])
        got = []
        radios[1].rx_callback = lambda p, info: got.append(info)
        radios[0].transmit(frame(0))
        sim.run()
        assert len(got) == 1
        # No interference: the one segment's SINR is rx power over noise.
        assert got[0].min_sinr == got[0].rx_power_w / PhyConfig().noise_floor_w

    def test_partial_overlap_creates_segments(self):
        # The interferer is still on the air when the frame ends, so the
        # frame's last segment is the interfered one.
        info, rx, interference, _ = interfered_reception(8000)
        noise = PhyConfig().noise_floor_w
        assert info.rx_power_w == rx
        assert info.min_sinr == pytest.approx(rx / (interference + noise), rel=1e-12)
        assert info.min_sinr < rx / noise

    def test_min_sinr_reported(self):
        # A short interferer ends mid-frame: the clean tail segment does
        # not hide the interfered one — min SINR reports the overlap.
        info, rx, interference, f1 = interfered_reception(800)
        assert f1.duration_s / 4 + frame(2, 800).duration_s < f1.duration_s
        noise = PhyConfig().noise_floor_w
        assert info.min_sinr == pytest.approx(rx / (interference + noise), rel=1e-12)
        assert info.min_sinr < rx / noise


class TestReceptionRule:
    """A frame is decoded iff its minimum SINR is at least 10 (10 dB).

    The powers are exact binary fractions, so the SINR of a clean frame
    at 2.5 W over a 0.25 W noise floor is exactly 10.0.
    """

    CFG = dict(rx_threshold_w=1.0, cs_threshold_w=0.5, noise_floor_w=0.25)

    def _receive(self, power_w, block):
        sim = Simulator()
        radio = Radio(sim, 0, PhyConfig(**self.CFG))
        got = []
        radio.rx_callback = lambda p, info: got.append(info)
        f = frame(1)
        radio.on_rx_start(f, power_w)
        sim._now = f.duration_s
        if block:
            rx_end_block([radio], f)
        else:
            radio.on_rx_end(f)
        return radio, got

    def test_min_sinr_at_threshold_is_decoded(self):
        assert SINR_THRESHOLD == 10.0
        for block in (False, True):
            radio, got = self._receive(2.5, block)
            assert [i.min_sinr for i in got] == [10.0]
            assert (radio.frames_received, radio.frames_corrupted) == (1, 0)

    def test_min_sinr_below_threshold_is_dropped(self):
        for block in (False, True):
            radio, got = self._receive(float(np.nextafter(2.5, 0.0)), block)
            assert got == []
            assert (radio.frames_received, radio.frames_corrupted) == (0, 1)


class TestRadioStateMachine:
    def test_state_transitions_clean_exchange(self):
        sim, ch, radios = make([(0, 0), (150, 0)])
        assert radios[0].state is RadioState.IDLE
        radios[0].transmit(frame(0))
        assert radios[0].state is RadioState.TX
        sim.run()
        assert radios[0].state is RadioState.IDLE
        assert radios[1].state is RadioState.IDLE

    def test_counters(self):
        sim, ch, radios = make([(0, 0), (150, 0)])
        radios[0].transmit(frame(0))
        sim.run()
        assert radios[0].frames_sent == 1
        assert radios[1].frames_received == 1
        assert radios[1].frames_corrupted == 0

    def test_frame_validation(self):
        with pytest.raises(ValueError):
            PhyFrame(payload=None, bits=0, rate_bps=1e6, preamble_s=0.0,
                     tx_power_w=1.0, tx_node=0)
        with pytest.raises(ValueError):
            PhyFrame(payload=None, bits=100, rate_bps=0.0, preamble_s=0.0,
                     tx_power_w=1.0, tx_node=0)
        with pytest.raises(ValueError):
            PhyFrame(payload=None, bits=100, rate_bps=1e6, preamble_s=-1.0,
                     tx_power_w=1.0, tx_node=0)
        with pytest.raises(ValueError):
            PhyFrame(payload=None, bits=100, rate_bps=1e6, preamble_s=0.0,
                     tx_power_w=0.0, tx_node=0)

    def test_phy_config_validation(self):
        with pytest.raises(ValueError):
            PhyConfig(tx_power_w=0.0)
        with pytest.raises(ValueError):
            PhyConfig(cs_threshold_w=1.0, rx_threshold_w=0.5)
        with pytest.raises(ValueError):
            PhyConfig(capture_ratio=0.5)
        with pytest.raises(ValueError):
            PhyConfig(noise_floor_w=0.0)

    # Values that used to pass construction and only fail inside a run
    # (e.g. "rate must be positive" from the first frame's airtime).
    BAD_PHY = [
        {"data_rate_bps": 0.0},
        {"basic_rate_bps": -1.0},
        {"rx_threshold_w": 0.0, "cs_threshold_w": 0.0},
        {"tx_power_w": float("nan")},
        {"noise_floor_w": float("inf")},
        {"preamble_s": -1e-3},
    ]

    @pytest.mark.parametrize("bad", BAD_PHY, ids=lambda b: ",".join(b))
    def test_phy_config_rejects_values_that_fail_mid_run(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            PhyConfig(**bad)
        # The DSE and campaign workers build configs through here.
        with pytest.raises(ValueError, match=next(iter(bad))):
            config_from_dict({"phy": bad})

    def test_frame_duration(self):
        f = PhyFrame(payload=None, bits=11_000, rate_bps=11e6,
                     preamble_s=192e-6, tx_power_w=1.0, tx_node=0)
        assert f.duration_s == pytest.approx(192e-6 + 1e-3)
