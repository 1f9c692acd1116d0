"""Tests for flow statistics, fairness, and summaries."""

import math

import numpy as np
import pytest

from repro.metrics.fairness import forwarding_load, jain_index, load_concentration
from repro.metrics.flowstats import FlowStatsCollector
from repro.metrics.summary import format_table, format_value
from repro.net.packet import Packet, PacketKind


def data_packet(flow=0, seq=0, created=1.0, hops=0, payload=512):
    return Packet(
        kind=PacketKind.DATA, src=0, dst=1, ttl=16, payload_bytes=payload,
        flow_id=flow, seq=seq, created_at=created, hops=hops,
    )


class TestFlowStats:
    def test_pdr_and_delay(self):
        c = FlowStatsCollector()
        for k in range(4):
            c.on_send(data_packet(seq=k, created=1.0 + k))
        for k in range(3):
            p = data_packet(seq=k, created=1.0 + k, hops=3)
            c.on_receive(p, now=p.created_at + 0.05)
        rec = c.flows[0]
        assert rec.pdr == pytest.approx(0.75)
        assert rec.mean_delay_s == pytest.approx(0.05)
        assert rec.mean_hops == pytest.approx(3.0)
        assert c.overall_pdr() == pytest.approx(0.75)

    def test_duplicate_deliveries_ignored(self):
        c = FlowStatsCollector()
        c.on_send(data_packet(seq=0))
        p = data_packet(seq=0)
        c.on_receive(p, now=2.0)
        c.on_receive(p, now=3.0)
        assert c.flows[0].received == 1

    def test_measurement_window_excludes_warmup(self):
        c = FlowStatsCollector(measure_from_s=5.0, measure_until_s=20.0)
        early = data_packet(seq=0, created=1.0)
        inside = data_packet(seq=1, created=10.0)
        late = data_packet(seq=2, created=25.0)
        for p in (early, inside, late):
            c.on_send(p)
            c.on_receive(p, now=p.created_at + 0.1)
        assert c.total_sent == 1
        assert c.total_received == 1

    def test_delay_stats(self):
        c = FlowStatsCollector()
        delays = [0.1, 0.2, 0.3]
        for k, d in enumerate(delays):
            p = data_packet(seq=k)
            c.on_send(p)
            c.on_receive(p, now=p.created_at + d)
        rec = c.flows[0]
        assert rec.delay_max == pytest.approx(0.3)
        assert rec.delay_std_s == pytest.approx(np.std(delays), abs=1e-9)

    def test_throughput(self):
        c = FlowStatsCollector()
        for k in range(11):
            p = data_packet(seq=k, created=1.0 + 0.1 * k, payload=1000)
            c.on_send(p)
            c.on_receive(p, now=p.created_at)  # zero delay
        # 11 kB over the 1.0 s receive span
        assert c.flows[0].throughput_bps() == pytest.approx(88_000, rel=1e-6)
        assert c.aggregate_throughput_bps(span_s=10.0) == pytest.approx(8_800)

    def test_empty_collector(self):
        c = FlowStatsCollector()
        assert c.overall_pdr() == 0.0
        assert math.isnan(c.mean_delay_s())
        assert math.isnan(c.mean_hops())

    def test_control_packets_not_counted(self):
        c = FlowStatsCollector()
        hello = Packet(kind=PacketKind.HELLO, src=0, dst=-1, ttl=1,
                       flow_id=-1, created_at=1.0)
        c.on_receive(hello, now=1.0)
        assert c.total_received == 0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            FlowStatsCollector(measure_from_s=5.0, measure_until_s=5.0)

    def test_aggregate_throughput_validation(self):
        with pytest.raises(ValueError):
            FlowStatsCollector().aggregate_throughput_bps(0.0)


class TestFairness:
    def test_jain_uniform_is_one(self):
        assert jain_index([3, 3, 3]) == pytest.approx(1.0)

    def test_jain_single_carrier(self):
        assert jain_index([10, 0, 0, 0, 0]) == pytest.approx(0.2)

    def test_jain_empty_and_zero(self):
        assert jain_index([]) == 1.0
        assert jain_index([0, 0]) == 1.0

    def test_jain_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_index([1, -1])

    def test_jain_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(0, 10, size=8)
            j = jain_index(x)
            assert 1 / 8 <= j <= 1.0 + 1e-12

    def test_load_concentration(self):
        assert load_concentration([10, 1, 1, 1, 1], top_k=1) == pytest.approx(
            10 / 14
        )
        assert load_concentration([0, 0], top_k=1) == 0.0

    def test_forwarding_load_reads_protocols(self):
        class P:
            def __init__(self, n):
                self.data_forwarded = n

        loads = forwarding_load([P(3), P(7)])
        assert loads.tolist() == [3.0, 7.0]


class TestSummary:
    def test_format_value(self):
        assert format_value(1.23456789, precision=3) == "1.23"
        assert format_value(float("nan")) == "nan"
        assert format_value(True) == "True"
        assert format_value("abc") == "abc"

    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2], [10, 20]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "-+-" in lines[1]
        assert len(lines) == 4

    def test_format_table_title(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


class TestNetworkTotals:
    @staticmethod
    def _finished_net():
        from repro.experiments.scenario import ScenarioConfig, build_network

        net = build_network(
            ScenarioConfig(protocol="aodv", grid_nx=3, grid_ny=3,
                           n_flows=2, sim_time_s=10.0, warmup_s=1.0, seed=2)
        )
        net.start()
        net.sim.run(until=10.0)
        net.stop()
        return net

    def test_totals_over_scenario(self):
        from repro.experiments.runner import collect_result

        result = collect_result(self._finished_net())
        totals = result.totals
        assert len(totals) == 15
        assert totals["rreq_tx"] >= 2
        assert totals["control_packets"] >= totals["rreq_tx"]
        assert totals["control_bytes"] > 0
        assert totals["normalized_routing_load"] > 0
        assert totals["rreq_tx"] == result.metrics_snapshot[
            'repro_net_control_tx_total{kind="rreq"}'
        ]

    def test_missing_counter_raises(self):
        from repro.experiments.runner import collect_result

        net = self._finished_net()
        del net.stacks[0].routing.rreq_forwarded
        with pytest.raises(AttributeError):
            collect_result(net)
