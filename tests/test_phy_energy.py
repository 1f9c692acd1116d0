"""Tests for the radio energy model."""

import math

import pytest

from repro.experiments.scenario import ScenarioConfig, build_network
from repro.phy.energy import EnergyConfig, EnergyMeter, attach_energy_meters
from repro.phy.radio import RadioState


def run_metered(rate=20.0, energy=None, kill=False, sim_time=10.0, **kw):
    config = ScenarioConfig(
        protocol="aodv", grid_nx=3, grid_ny=3, n_flows=2,
        flow_rate_pps=rate, sim_time_s=sim_time, warmup_s=1.0, seed=5, **kw,
    )
    net = build_network(config)
    meters = attach_energy_meters(net, energy, kill_on_depletion=kill)
    net.start()
    net.sim.run(until=config.sim_time_s)
    net.stop()
    return net, meters


class TestEnergyConfig:
    def test_draws(self):
        c = EnergyConfig(tx_w=2.0, rx_w=1.0, idle_w=0.5)
        assert c.draw_w(RadioState.TX) == 2.0
        assert c.draw_w(RadioState.RX) == 1.0
        assert c.draw_w(RadioState.IDLE) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyConfig(tx_w=-1.0)


class TestAccounting:
    def test_idle_only_node_burns_idle_power(self):
        # A meter on a radio that never transmits integrates idle draw.
        from repro.phy.channel import Channel
        from repro.phy.propagation import TwoRayGround
        from repro.phy.radio import PhyConfig, Radio
        from repro.sim.engine import Simulator

        sim = Simulator()
        ch = Channel(sim, TwoRayGround())
        radio = Radio(sim, 0, PhyConfig())
        ch.register(radio, (0, 0))
        meter = EnergyMeter(sim, radio, EnergyConfig(idle_w=0.5))
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert meter.consumed_j() == pytest.approx(5.0)

    def test_total_is_sum_of_states(self):
        net, meters = run_metered()
        for meter in meters.values():
            split = meter.consumed_by_state()
            assert sum(split.values()) == pytest.approx(meter.consumed_j())

    def test_active_nodes_burn_more_than_idle_profile(self):
        net, meters = run_metered()
        idle_only = 0.74 * 10.0
        assert max(m.consumed_j() for m in meters.values()) > idle_only
        # every node is at least idle-draining (same sim duration)
        assert min(m.consumed_j() for m in meters.values()) >= idle_only * 0.99

    def test_comm_only_profile(self):
        cfg = EnergyConfig(idle_w=0.0)
        net, meters = run_metered(energy=cfg)
        # with idle zeroed, totals reflect activity: forwarding-heavy nodes
        # burn more than leaf nodes
        totals = sorted(m.consumed_j() for m in meters.values())
        assert totals[-1] > totals[0]
        assert totals[0] < 2.0  # a quiet corner node does little comm

    def test_infinite_battery_never_depletes(self):
        net, meters = run_metered()
        assert all(m.alive for m in meters.values())
        assert all(m.remaining_j() == math.inf for m in meters.values())


class TestDepletion:
    def test_battery_depletes_and_reports_time(self):
        cfg = EnergyConfig(idle_w=0.5, capacity_j=2.0)
        net, meters = run_metered(energy=cfg, sim_time=10.0)
        # idle draw alone (0.5 W) empties 2 J in ≈4 s
        m = meters[0]
        assert not m.alive
        assert m.depleted_at == pytest.approx(4.0, abs=1.5)
        assert m.remaining_j() == 0.0

    def test_kill_on_depletion_crashes_node(self):
        cfg = EnergyConfig(idle_w=0.0, capacity_j=0.4)  # comm-only, tiny
        net, meters = run_metered(energy=cfg, kill=True, rate=40.0,
                                  sim_time=15.0)
        dead = [nid for nid, m in meters.items() if not m.alive]
        assert dead, "no node depleted its battery"
        for nid in dead:
            assert not net.stacks[nid].mac.radio.powered

    def test_depletion_callback_fires_once(self):
        from repro.phy.channel import Channel
        from repro.phy.propagation import TwoRayGround
        from repro.phy.radio import PhyConfig, Radio
        from repro.sim.engine import Simulator

        sim = Simulator()
        ch = Channel(sim, TwoRayGround())
        radio = Radio(sim, 0, PhyConfig())
        ch.register(radio, (0, 0))
        fired = []
        EnergyMeter(
            sim, radio, EnergyConfig(idle_w=1.0, capacity_j=3.0),
            on_depleted=lambda: fired.append(sim.now),
        )
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert fired == [pytest.approx(3.0)]


class TestAttachment:
    def test_perfect_mac_rejected(self):
        config = ScenarioConfig(
            protocol="aodv", grid_nx=3, grid_ny=3, n_flows=2,
            sim_time_s=5.0, warmup_s=1.0, mac="perfect",
        )
        net = build_network(config)
        with pytest.raises(ValueError):
            attach_energy_meters(net)
