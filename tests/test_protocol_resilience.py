"""Protocol hardening under failures: RERR storms, HELLO expiry, NLR state.

Satellite suite of the fault-injection PR: the routing layer must stay
well-behaved when the PHY/MAC beneath it is being actively broken.
"""

import pytest

from repro.experiments.scenario import ScenarioConfig, build_network
from repro.net.aodv import AodvConfig
from repro.net.packet import Packet, PacketKind
from repro.traffic.flows import FlowSpec
from repro.traffic.generators import CbrSource


def chain_net(n_nodes=5, flows=((0, 4), (1, 4)), rate_pps=10.0, **kw):
    """Chain network with deterministic end-to-end CBR flows."""
    defaults = dict(
        protocol="aodv", grid_nx=n_nodes, grid_ny=1, spacing_m=200.0,
        n_flows=1, sim_time_s=30.0, warmup_s=1.0, seed=13,
    )
    defaults.update(kw)
    net = build_network(ScenarioConfig(**defaults))
    net.sources.clear()
    net.flows = []
    for fid, (src, dst) in enumerate(flows):
        flow = FlowSpec(flow_id=fid, src=src, dst=dst, rate_pps=rate_pps,
                        start_s=1.0, stop_s=defaults["sim_time_s"])
        net.flows.append(flow)
        net.sources.append(
            CbrSource(net.sim, net.stacks[src], flow,
                      on_send=net.collector.on_send)
        )
    return net


class TestRerrRateLimit:
    def test_limiter_caps_originations_per_second(self):
        net = chain_net()
        routing = net.stacks[0].routing
        assert routing.config.rerr_rate_limit_per_s == 10  # RFC 3561 default
        for i in range(15):
            routing._send_rerr([(40 + i, 1)])
        assert routing.control_tx["rerr"] == 10
        assert routing.rerr_suppressed == 5

    def test_window_drains_after_one_second(self):
        net = chain_net()
        routing = net.stacks[0].routing
        for i in range(12):
            routing._send_rerr([(40 + i, 1)])
        assert routing.control_tx["rerr"] == 10
        net.sim.run(until=1.5)  # the 1 s sliding window empties
        routing._send_rerr([(99, 1)])
        assert routing.control_tx["rerr"] == 11
        assert routing.rerr_suppressed == 2

    def test_limit_zero_disables(self):
        net = chain_net(aodv=AodvConfig(rerr_rate_limit_per_s=0))
        routing = net.stacks[0].routing
        for i in range(25):
            routing._send_rerr([(40 + i, 1)])
        assert routing.control_tx["rerr"] == 25
        assert routing.rerr_suppressed == 0


class TestRerrPropagationOnChain:
    def test_multi_flow_chain_failure_bounded_rerrs(self):
        # Two flows share the 0-1-2-3-4 chain; node 3 dies mid-run.  Node 2
        # must originate a RERR, node 1 must propagate it back toward the
        # precursors — and the per-failure RERR count must stay bounded
        # (one invalidation wave, not one RERR per queued data packet).
        net = chain_net()
        net.start()
        net.sim.run(until=8.0)
        net.stacks[3].fail()
        net.sim.run(until=20.0)
        net.stop()
        rerr_total = sum(
            s.routing.control_tx["rerr"] for s in net.stacks
        )
        assert rerr_total >= 2  # origination + upstream propagation
        # A storm regression (RERR per undeliverable packet at 2×10 pps
        # over 12 s) would blow far past this even with the rate limiter.
        assert rerr_total <= 40
        # Upstream state reacted: the origins lost their routes and their
        # re-discoveries toward the now-partitioned destination fail.
        r0 = net.stacks[0].routing
        assert r0.discoveries_failed > 0 or r0.data_dropped_no_route > 0

    def test_discovery_racing_crashed_destination_is_safe(self):
        # Crash the destination while the origin is mid-discovery; the
        # timeout/RREP race must not raise (regression for the
        # _discovery_timeout identity guard).
        net = chain_net(flows=((0, 4),))
        net.start()
        net.sim.schedule(1.05, net.stacks[4].fail)  # just as RREQs fly
        net.sim.run(until=15.0)
        net.stop()
        r0 = net.stacks[0].routing
        assert r0.discoveries_failed > 0


class TestHelloUnderCrash:
    def test_neighbour_expires_while_down_and_returns(self):
        # Node 4 is down from t=6 to t=15: neighbours must expire it after
        # their 2.5 s lifetime, then re-learn it from post-recovery HELLOs.
        net = build_network(ScenarioConfig(
            protocol="nlr", grid_nx=3, grid_ny=3, spacing_m=200.0,
            n_flows=1, sim_time_s=20.0, warmup_s=1.0, seed=17,
            fault_spec={"kind": "events", "events": [
                {"kind": "node_crash", "node": 4, "at_s": 6.0},
                {"kind": "node_recover", "node": 4, "at_s": 15.0},
            ]},
        ))
        net.start()
        table = net.stacks[1].routing.neighbour_table
        assert table is not None
        net.sim.run(until=5.5)
        assert table.get(4) is not None  # healthy: heard recently
        net.sim.run(until=12.0)          # down since 6.0 > lifetime 2.5 s
        assert table.get(4) is None
        net.sim.run(until=19.0)          # recovered at 15.0
        assert table.get(4) is not None
        net.stop()
        assert net.injector is not None and net.injector.errors == 0


class TestNlrLinkFailureState:
    def test_link_failure_drops_neighbour_load_entry(self):
        # A MAC-reported link failure must purge the dead neighbour from
        # the neighbourhood-load table immediately — not leave its stale
        # advertised load biasing RREQ costs until lifetime expiry.
        net = build_network(ScenarioConfig(
            protocol="nlr", grid_nx=3, grid_ny=3, spacing_m=200.0,
            n_flows=2, sim_time_s=20.0, warmup_s=1.0, seed=19,
        ))
        net.start()
        net.sim.run(until=5.0)
        routing = net.stacks[0].routing
        table = routing.neighbour_table
        assert table is not None and table.get(1) is not None
        dummy = Packet(kind=PacketKind.DATA, src=0, dst=8, ttl=5)
        routing._handle_link_failure(1, dummy)
        assert table.get(1) is None  # gone now, not in 2.5 s
        # and the route through it is invalidated (engine behaviour kept)
        route = routing.table.lookup(1)
        assert route is None
        net.sim.run(until=8.0)
        net.stop()
