"""Tests for RTS/CTS virtual carrier sense (NAV)."""

import pytest

from repro.mac.csma import CsmaMac, MacConfig
from repro.mac.mac_types import BROADCAST_MAC, MacFrame, MacFrameKind
from repro.phy.channel import Channel
from repro.phy.propagation import TwoRayGround
from repro.phy.radio import PhyConfig, Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def make_macs(positions, mac_config, seed=1, phy_config=None):
    sim = Simulator()
    ch = Channel(sim, TwoRayGround(), propagation_delay=False)
    rs = RandomStreams(seed)
    macs = []
    for i, pos in enumerate(positions):
        radio = Radio(sim, i, phy_config or PhyConfig())
        ch.register(radio, pos)
        macs.append(CsmaMac(sim, radio, mac_config, rs.stream(f"mac{i}")))
    return sim, macs


RTS_ON = dict(rts_cts_enabled=True, queue_capacity=100)


class TestHandshake:
    def test_unicast_uses_rts_cts(self):
        sim, macs = make_macs([(0, 0), (150, 0)], MacConfig(**RTS_ON))
        got = []
        macs[1].rx_upper_callback = lambda p, s, i: got.append(p)
        ok = []
        macs[0].send_done_callback = lambda p, d, s: ok.append(s)
        macs[0].send("pkt", 1, 512)
        sim.run(until=0.5)
        assert got == ["pkt"] and ok == [True]
        assert macs[0].rts_tx == 1
        assert macs[1].cts_tx == 1
        assert macs[1].ack_tx == 1

    def test_broadcast_skips_rts(self):
        sim, macs = make_macs([(0, 0), (150, 0)], MacConfig(**RTS_ON))
        macs[0].send("bc", BROADCAST_MAC, 256)
        sim.run(until=0.5)
        assert macs[0].rts_tx == 0

    def test_threshold_bypasses_small_frames(self):
        cfg = MacConfig(rts_cts_enabled=True, rts_threshold_bytes=256)
        sim, macs = make_macs([(0, 0), (150, 0)], cfg)
        macs[0].send("small", 1, 64)
        macs[0].send("big", 1, 512)
        sim.run(until=0.5)
        assert macs[0].rts_tx == 1  # only the 512 B frame

    def test_cts_timeout_retries_then_drops(self):
        cfg = MacConfig(rts_cts_enabled=True, retry_limit=2)
        sim, macs = make_macs([(0, 0), (2000, 0)], cfg)  # out of range
        ok = []
        macs[0].send_done_callback = lambda p, d, s: ok.append(s)
        macs[0].send("pkt", 1, 512)
        sim.run(until=2.0)
        assert ok == [False]
        assert macs[0].rts_tx == 3  # initial + 2 retries
        assert macs[0].data_tx == 0  # data never went out without CTS

    def test_disabled_by_default(self):
        sim, macs = make_macs([(0, 0), (150, 0)], MacConfig())
        macs[0].send("pkt", 1, 512)
        sim.run(until=0.5)
        assert macs[0].rts_tx == 0 and macs[1].cts_tx == 0


class TestNav:
    def test_overhearer_sets_nav_from_rts(self):
        sim, macs = make_macs(
            [(0, 0), (150, 0), (80, 100)], MacConfig(**RTS_ON)
        )
        macs[0].send("pkt", 1, 512)
        # run until just after the RTS lands at the overhearer
        sim.run(until=0.02)
        assert macs[2].nav_defers >= 1

    def test_nav_blocks_contention_until_exchange_ends(self):
        sim, macs = make_macs(
            [(0, 0), (150, 0), (80, 100)], MacConfig(**RTS_ON)
        )
        got = []
        macs[1].rx_upper_callback = lambda p, s, i: got.append((s, p))
        macs[0].send("a", 1, 512)
        macs[2].send("c", 1, 512)
        sim.run(until=1.0)
        # both exchanges complete despite contention
        assert {s for s, _ in got} == {0, 2}

    def test_receiver_with_active_nav_stays_silent(self):
        sim, macs = make_macs([(0, 0), (150, 0)], MacConfig(**RTS_ON))
        # Artificially arm the receiver's NAV for a long period.
        macs[1]._set_nav(0.05)
        rts = MacFrame(kind=MacFrameKind.RTS, src=0, dst=1, seq=0,
                       duration_s=0.002)
        from repro.phy.frame import RxInfo

        macs[1]._on_phy_rx(rts, RxInfo(1e-9, 100.0, 0.0, 0.0, 0))
        sim.run(until=0.01)
        assert macs[1].cts_tx == 0

    def test_hidden_terminal_collisions_hit_rts_not_data(self):
        # Senders mutually deaf (CS shrunk to RX range), shared receiver.
        # The textbook RTS/CTS benefit: a collision costs a 20-byte RTS
        # instead of a 546-byte DATA frame, so DATA frames go on air
        # exactly once per delivered packet while retries burn RTSes.
        hidden_phy = PhyConfig(cs_threshold_w=PhyConfig().rx_threshold_w)

        def run(rts):
            cfg = MacConfig(rts_cts_enabled=rts, queue_capacity=100)
            sim, macs = make_macs(
                [(0, 0), (200, 0), (400, 0)], cfg, seed=4,
                phy_config=hidden_phy,
            )
            got = []
            macs[1].rx_upper_callback = lambda p, s, i: got.append(p)
            for k in range(25):
                macs[0].send(f"a{k}", 1, 512)
                macs[2].send(f"c{k}", 1, 512)
            sim.run(until=6.0)
            data_tx = macs[0].data_tx + macs[2].data_tx
            retries = macs[0].retries_total + macs[2].retries_total
            return len(got), data_tx, retries

        delivered_off, data_off, retries_off = run(False)
        delivered_on, data_on, retries_on = run(True)
        assert delivered_on >= delivered_off - 1
        # without RTS every retry re-airs the full DATA frame ...
        assert data_off == 50 + retries_off
        # ... with RTS the DATA is sent only after a granted CTS.
        assert data_on == 50

    def test_frame_validation(self):
        with pytest.raises(ValueError):
            MacFrame(kind=MacFrameKind.RTS, src=0, dst=BROADCAST_MAC, seq=0)
        with pytest.raises(ValueError):
            MacFrame(kind=MacFrameKind.DATA, src=0, dst=1, seq=0,
                     duration_s=-1.0)

    def test_rts_cts_sizes(self):
        rts = MacFrame(kind=MacFrameKind.RTS, src=0, dst=1, seq=0)
        cts = MacFrame(kind=MacFrameKind.CTS, src=1, dst=0, seq=0)
        assert rts.size_bytes == 20
        assert cts.size_bytes == 14


class TestEndToEndWithRouting:
    def test_scenario_runs_with_rts(self):
        from repro.experiments.runner import run_scenario
        from repro.experiments.scenario import ScenarioConfig

        r = run_scenario(
            ScenarioConfig(
                protocol="aodv", grid_nx=3, grid_ny=3, n_flows=2,
                mac_config=MacConfig(rts_cts_enabled=True),
                sim_time_s=10.0, warmup_s=2.0, seed=3,
            )
        )
        assert r.pdr > 0.95
