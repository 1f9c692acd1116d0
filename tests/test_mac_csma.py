"""Unit/behavioural tests for the DCF MAC over the real PHY."""

import pytest

from repro.mac.csma import CsmaMac, MacConfig
from repro.mac.mac_types import BROADCAST_MAC, MacFrame, MacFrameKind
from repro.phy.channel import Channel
from repro.phy.propagation import TwoRayGround
from repro.phy.radio import PhyConfig, Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def make_macs(positions, mac_config=None, seed=1, phy_config=None):
    sim = Simulator()
    ch = Channel(sim, TwoRayGround(), propagation_delay=False)
    rs = RandomStreams(seed)
    macs = []
    for i, pos in enumerate(positions):
        radio = Radio(sim, i, phy_config or PhyConfig())
        ch.register(radio, pos)
        macs.append(
            CsmaMac(sim, radio, mac_config or MacConfig(), rs.stream(f"mac{i}"))
        )
    return sim, macs


class TestUnicast:
    def test_delivery_with_ack(self):
        sim, macs = make_macs([(0, 0), (150, 0)])
        got, results = [], []
        macs[1].rx_upper_callback = lambda p, s, i: got.append((p, s))
        macs[0].send_done_callback = lambda p, d, ok: results.append(ok)
        macs[0].send("pkt", 1, 512)
        sim.run(until=0.5)
        assert got == [("pkt", 0)]
        assert results == [True]
        assert macs[1].ack_tx == 1

    def test_out_of_range_fails_after_retries(self):
        cfg = MacConfig(retry_limit=2)
        sim, macs = make_macs([(0, 0), (2000, 0)], mac_config=cfg)
        results = []
        macs[0].send_done_callback = lambda p, d, ok: results.append(ok)
        macs[0].send("pkt", 1, 512)
        sim.run(until=2.0)
        assert results == [False]
        assert macs[0].drops_retry == 1
        assert macs[0].retries_total == 3  # initial + 2 retries, all timed out

    def test_queue_serves_in_order(self):
        sim, macs = make_macs([(0, 0), (150, 0)])
        got = []
        macs[1].rx_upper_callback = lambda p, s, i: got.append(p)
        for k in range(5):
            macs[0].send(k, 1, 100)
        sim.run(until=1.0)
        assert got == [0, 1, 2, 3, 4]

    def test_queue_overflow_drops(self):
        cfg = MacConfig(queue_capacity=2)
        sim, macs = make_macs([(0, 0), (150, 0)], mac_config=cfg)
        accepted = [macs[0].send(k, 1, 100) for k in range(5)]
        # one frame is immediately pulled into service, two are queued
        assert accepted.count(False) >= 1
        assert macs[0].queue.dropped >= 1

    def test_duplicate_suppressed_but_acked(self):
        # Force an ACK loss by parking the receiver out of ACK range?
        # Simpler: deliver the same MAC frame twice via the dedupe path.
        sim, macs = make_macs([(0, 0), (150, 0)])
        got = []
        macs[1].rx_upper_callback = lambda p, s, i: got.append(p)
        frame = MacFrame(
            kind=MacFrameKind.DATA, src=0, dst=1, seq=7, payload="x",
            payload_bytes=64,
        )
        from repro.phy.frame import RxInfo

        info = RxInfo(1e-9, 100.0, 0.0, 0.0, 0)
        macs[1]._on_phy_rx(frame, info)
        macs[1]._on_phy_rx(frame, info)
        assert got == ["x"]
        assert macs[1].duplicates_rx == 1

    def test_cross_layer_signals_exposed(self):
        sim, macs = make_macs([(0, 0), (150, 0)])
        assert macs[0].queue_occupancy == 0.0
        assert 0.0 <= macs[0].channel_busy_ratio() <= 1.0


class TestBroadcast:
    def test_broadcast_reaches_all_in_range(self):
        sim, macs = make_macs([(0, 0), (150, 0), (0, 150), (2000, 2000)])
        got = {i: [] for i in range(4)}
        for i, m in enumerate(macs):
            m.rx_upper_callback = (
                lambda p, s, info, _i=i: got[_i].append(p)
            )
        macs[0].send("bc", BROADCAST_MAC, 64)
        sim.run(until=0.5)
        assert got[1] == ["bc"] and got[2] == ["bc"]
        assert got[3] == []  # out of range

    def test_broadcast_no_ack_no_retry(self):
        sim, macs = make_macs([(0, 0), (150, 0)])
        results = []
        macs[0].send_done_callback = lambda p, d, ok: results.append(ok)
        macs[0].send("bc", BROADCAST_MAC, 64)
        sim.run(until=0.5)
        assert results == [True]
        assert macs[0].retries_total == 0
        assert macs[1].ack_tx == 0


class TestContention:
    def test_two_senders_share_medium(self):
        # Both flood 20 frames at one receiver; with working
        # carrier-sense + backoff essentially everything is delivered.
        sim, macs = make_macs([(0, 0), (100, 0), (50, 90)], seed=3)
        got = []
        macs[1].rx_upper_callback = lambda p, s, i: got.append((s, p))
        for k in range(20):
            macs[0].send(f"a{k}", 1, 512)
            macs[2].send(f"c{k}", 1, 512)
        sim.run(until=5.0)
        froms = {s for s, _ in got}
        assert froms == {0, 2}
        assert len(got) >= 38  # ≥95 % delivery

    def test_hidden_terminal_losses_recovered_by_retries(self):
        # With the default thresholds the 550 m carrier-sense range covers
        # every pair of nodes within mutual unicast reach — by design.  To
        # manufacture hidden terminals, shrink carrier sense to the rx
        # range: senders 400 m apart (mutually deaf), receiver centred.
        hidden_phy = PhyConfig(cs_threshold_w=PhyConfig().rx_threshold_w)
        sim, macs = make_macs(
            [(0, 0), (200, 0), (400, 0)], seed=4, phy_config=hidden_phy
        )
        got = []
        macs[1].rx_upper_callback = lambda p, s, i: got.append(p)
        ok = []
        macs[0].send_done_callback = lambda p, d, s: ok.append(s)
        macs[2].send_done_callback = lambda p, d, s: ok.append(s)
        for k in range(10):
            macs[0].send(f"a{k}", 1, 512)
            macs[2].send(f"c{k}", 1, 512)
        sim.run(until=5.0)
        assert macs[0].retries_total + macs[2].retries_total > 0
        assert len(got) >= 16  # most frames eventually get through

    def test_backoff_consumes_rng(self):
        sim, macs = make_macs([(0, 0), (150, 0)])
        macs[0].send("p", 1, 128)
        sim.run(until=0.2)
        # deterministic engine: rerunning the same seed reproduces exactly
        sim2, macs2 = make_macs([(0, 0), (150, 0)])
        macs2[0].send("p", 1, 128)
        sim2.run(until=0.2)
        assert sim.events_executed == sim2.events_executed


class TestMacConfigValidation:
    def test_sifs_must_be_less_than_difs(self):
        with pytest.raises(ValueError):
            MacConfig(sifs_s=60e-6, difs_s=50e-6)

    def test_cw_ordering(self):
        with pytest.raises(ValueError):
            MacConfig(cw_min=100, cw_max=50)

    def test_negative_retry_limit(self):
        with pytest.raises(ValueError):
            MacConfig(retry_limit=-1)

    def test_frame_validation(self):
        with pytest.raises(ValueError):
            MacFrame(kind=MacFrameKind.ACK, src=0, dst=BROADCAST_MAC, seq=0)
        with pytest.raises(ValueError):
            MacFrame(kind=MacFrameKind.DATA, src=0, dst=1, seq=0,
                     payload_bytes=-1)

    def test_frame_sizes(self):
        data = MacFrame(kind=MacFrameKind.DATA, src=0, dst=1, seq=0,
                        payload_bytes=512)
        ack = MacFrame(kind=MacFrameKind.ACK, src=1, dst=0, seq=0)
        assert data.size_bytes == 512 + 34
        assert ack.size_bytes == 14
        assert data.size_bits == data.size_bytes * 8
