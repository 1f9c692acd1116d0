"""Unit tests for RNG streams, frame airtime, and tracing."""

import numpy as np
import pytest

from repro.sim.rng import RandomStreams
from repro.obs.sinks import RingSink
from repro.sim.trace import Tracer
from repro.sim import units


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(7).stream("x").integers(0, 1000, size=10)
        b = RandomStreams(7).stream("x").integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_different_names_independent(self):
        rs = RandomStreams(7)
        a = rs.stream("x").integers(0, 10**9, size=8)
        b = rs.stream("y").integers(0, 10**9, size=8)
        assert not np.array_equal(a, b)

    def test_stream_memoised(self):
        rs = RandomStreams(1)
        assert rs.stream("a") is rs.stream("a")

    def test_order_independent(self):
        rs1 = RandomStreams(3)
        rs1.stream("a")
        v1 = rs1.stream("b").random()
        rs2 = RandomStreams(3)
        v2 = rs2.stream("b").random()  # created first this time
        assert v1 == v2

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(-1)

    def test_names_listing(self):
        rs = RandomStreams(0)
        rs.stream("b")
        rs.stream("a")
        assert rs.names() == ["a", "b"]


class TestUnits:
    def test_airtime(self):
        assert units.airtime(11_000_000, 11e6) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            units.airtime(100, 0.0)
        with pytest.raises(ValueError):
            units.airtime(-1, 1e6)


class TestTracer:
    def test_disabled_records_nothing(self):
        ring = RingSink()
        t = Tracer(enabled=False, sink=ring)
        t.record(0.0, "mac", 1, "tx")
        assert t.recorded == 0 and len(ring) == 0

    def test_enabled_records(self):
        ring = RingSink()
        t = Tracer(enabled=True, sink=ring)
        t.record(1.0, "mac", 1, "tx", dst=2)
        t.record(2.0, "phy", 1, "rx")
        assert t.recorded == 2 and len(ring) == 2
        assert ring.filter(category="mac")[0].details == {"dst": 2}

    def test_category_filtering_at_record_time(self):
        ring = RingSink()
        t = Tracer(enabled=True, categories={"mac"}, sink=ring)
        t.record(0.0, "phy", 1, "x")
        t.record(0.0, "mac", 1, "y")
        assert t.recorded == 1 and len(ring) == 1

    def test_filter_and_count(self):
        ring = RingSink()
        t = Tracer(enabled=True, sink=ring)
        for node in (1, 1, 2):
            t.record(0.0, "net", node, "fwd")
        assert ring.count(node=1) == 2
        assert ring.count(event="fwd", node=2) == 1
        assert ring.count(category="nope") == 0

    def test_max_records_drops(self):
        ring = RingSink(capacity=2)
        t = Tracer(enabled=True, sink=ring)
        for i in range(5):
            t.record(float(i), "x", 0, "e")
        assert [r.time for r in ring] == [3.0, 4.0]
        assert ring.dropped == 3

    def test_sink_invoked(self):
        got = []
        t = Tracer(enabled=True, sink=got.append)
        t.record(0.0, "mac", 3, "tx")
        assert len(got) == 1
        assert got[0].node == 3

    def test_str_rendering(self):
        ring = RingSink()
        t = Tracer(enabled=True, sink=ring)
        t.record(1.5, "mac", 2, "tx", dst=7)
        s = str(ring.records()[0])
        assert "mac" in s and "tx" in s and "dst=7" in s
