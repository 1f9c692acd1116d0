"""Unit tests for the observability subsystem (repro.obs).

Covers the JSONL schema, streaming/ring/composite sinks, the metrics
registry, the engine profiler, the tracer's sink pass-through and the
ring's eviction accounting.
"""

from __future__ import annotations

import gzip
import json
import math

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profiler import EngineProfiler
from repro.obs.schema import (
    TRACE_SCHEMA_VERSION,
    record_to_dict,
    trace_footer,
    trace_header,
    validate_trace_line,
)
from repro.obs.sinks import BUFFER_LINES, CompositeSink, JsonlTraceSink, RingSink
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecord, Tracer


def rec(t=1.0, cat="net", node=0, ev="x", **details) -> TraceRecord:
    return TraceRecord(t, cat, node, ev, details)


# ---------------------------------------------------------------------- #
# Schema
# ---------------------------------------------------------------------- #
class TestSchema:
    def test_record_layout(self):
        d = record_to_dict(rec(2.5, "mac", 3, "data_tx", dst=7))
        assert d == {"t": 2.5, "cat": "mac", "node": 3, "ev": "data_tx", "dst": 7}

    def test_reserved_detail_keys_prefixed(self):
        d = record_to_dict(rec(cat="app", ev="deliver", t=9.0, kind="odd"))
        assert d["ev"] == "deliver"
        assert d["x_kind"] == "odd"
        assert d["t"] == 9.0

    def test_header_and_footer_versioned(self):
        assert trace_header()["schema"] == TRACE_SCHEMA_VERSION
        assert trace_header({"seed": 3})["seed"] == 3
        f = trace_footer(10, 2, {"net": 10})
        assert f["kind"] == "footer" and f["recorded"] == 10

    def test_header_meta_cannot_shadow_envelope(self):
        h = trace_header({"schema": 99, "kind": "evil", "protocol": "nlr"})
        assert h["schema"] == TRACE_SCHEMA_VERSION
        assert h["kind"] == "header"
        assert h["protocol"] == "nlr"

    def test_validate_good_lines(self):
        assert validate_trace_line(trace_header()) == []
        assert validate_trace_line(trace_footer(1, 0, {})) == []
        assert validate_trace_line(record_to_dict(rec())) == []

    @pytest.mark.parametrize(
        "bad",
        [
            {"t": 1.0, "cat": "net", "node": 0},                  # no ev
            {"t": "x", "cat": "net", "node": 0, "ev": "e"},       # t not num
            {"t": math.inf, "cat": "net", "node": 0, "ev": "e"},  # t not finite
            {"t": 1.0, "cat": 5, "node": 0, "ev": "e"},           # cat not str
            {"t": 1.0, "cat": "net", "node": True, "ev": "e"},    # node bool
            {"kind": "header", "schema": 999},                    # bad version
            ["not", "an", "object"],
        ],
    )
    def test_validate_rejects(self, bad):
        assert validate_trace_line(bad) != []


# ---------------------------------------------------------------------- #
# Sinks
# ---------------------------------------------------------------------- #
class TestJsonlTraceSink:
    def read(self, path):
        opener = gzip.open if path.suffix == ".gz" else open
        with opener(path, "rt") as fh:
            return [json.loads(line) for line in fh]

    def test_header_records_footer(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTraceSink(path, meta={"seed": 7}) as sink:
            sink(rec(1.0, "net", 0, "a"))
            sink(rec(2.0, "mac", 1, "b"))
        lines = self.read(path)
        assert lines[0]["kind"] == "header" and lines[0]["seed"] == 7
        assert [ln["ev"] for ln in lines[1:3]] == ["a", "b"]
        assert lines[-1]["kind"] == "footer"
        assert lines[-1]["recorded"] == 2
        assert lines[-1]["by_category"] == {"mac": 1, "net": 1}
        assert all(validate_trace_line(ln) == [] for ln in lines)

    def test_gzip_inferred_from_suffix(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        with JsonlTraceSink(path) as sink:
            assert sink.compressed
            sink(rec())
        assert self.read(path)[1]["ev"] == "x"

    def test_bounded_memory_buffer(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "t.jsonl")
        for i in range(3 * BUFFER_LINES):
            sink(rec(t=float(i)))
        assert len(sink._buffer) < BUFFER_LINES  # drained, not accumulated
        sink.close()
        assert sink.recorded == 3 * BUFFER_LINES
        assert len(self.read(tmp_path / "t.jsonl")) == 3 * BUFFER_LINES + 2

    def test_close_idempotent_and_emit_after_close(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "t.jsonl")
        sink(rec())
        sink.close()
        sink.close()
        sink(rec())  # silently ignored
        assert sink.recorded == 1

    @pytest.mark.parametrize("name", ["t.jsonl", "t.jsonl.gz"])
    def test_close_fsyncs_a_complete_file(self, tmp_path, monkeypatch, name):
        import os

        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            synced.append(os.fstat(fd).st_size)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        path = tmp_path / name
        sink = JsonlTraceSink(path)
        sink(rec())
        sink.close()
        # One fsync, after the footer (and gzip trailer) reached the file.
        assert synced == [path.stat().st_size]
        assert self.read(path)[-1]["kind"] == "footer"


class TestRingSink:
    def test_keeps_last_n(self):
        ring = RingSink(capacity=3)
        for i in range(10):
            ring(rec(t=float(i)))
        assert ring.seen == 10
        assert len(ring) == 3
        assert [r.time for r in ring.records()] == [7.0, 8.0, 9.0]
        assert "last 3 of 10" in ring.dump()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RingSink(capacity=0)


class TestCompositeSink:
    def test_fans_out(self, tmp_path):
        ring = RingSink(5)
        jsonl = JsonlTraceSink(tmp_path / "t.jsonl")
        combo = CompositeSink(jsonl, ring)
        combo(rec())
        combo.close()
        assert ring.seen == 1 and jsonl.recorded == 1

    def test_needs_a_sink(self):
        with pytest.raises(ValueError):
            CompositeSink()


# ---------------------------------------------------------------------- #
# Tracer pass-through; retention is a RingSink
# ---------------------------------------------------------------------- #
class TestTracerAccounting:
    def test_sink_receives_past_retention_bound(self):
        ring = RingSink(2)
        tr = Tracer(enabled=True, sink=ring)
        for i in range(50):
            tr.record(float(i), "net", 0, "e")
        assert tr.recorded == 50
        assert len(ring) == 2      # memory bounded
        assert ring.seen == 50     # stream complete
        assert ring.dropped == 48  # evictions are the dropped count

    def test_disabled_records_nothing(self):
        ring = RingSink(10)
        tr = Tracer(sink=ring)
        tr.record(0.0, "net", 0, "e")
        assert tr.recorded == 0 and ring.seen == 0


# ---------------------------------------------------------------------- #
# Metrics registry
# ---------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", "help")
        c.inc()
        c.labels(kind="a").inc(2)
        c.labels(kind="a").inc()  # same child
        out = reg.metrics_json()
        assert out["repro_x_total"] == 1.0
        assert out['repro_x_total{kind="a"}'] == 3.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c", "h").inc(-1)

    def test_gauge_set_and_fn(self):
        reg = MetricsRegistry()
        reg.gauge("repro_g", "h").set(4.5)
        state = {"v": 7.0}
        reg.gauge("repro_fn", "h", fn=lambda: state["v"])
        out = reg.metrics_json()
        assert out["repro_g"] == 4.5 and out["repro_fn"] == 7.0
        state["v"] = 8.0
        assert reg.metrics_json()["repro_fn"] == 8.0

    def test_histogram_cumulative_buckets(self):
        h = Histogram("repro_h", "h", buckets=(1.0, 5.0))
        for v in (0.5, 0.7, 3.0, 100.0):
            h.observe(v)
        h.observe(math.nan)  # skipped
        series = dict(h.series())
        assert series['repro_h_bucket{le="1"}'] == 2.0
        assert series['repro_h_bucket{le="5"}'] == 3.0
        assert series['repro_h_bucket{le="+Inf"}'] == 4.0
        assert series["repro_h_count"] == 4.0
        assert series["repro_h_sum"] == pytest.approx(104.2)
        h.reset()
        assert dict(h.series())["repro_h_count"] == 0.0

    def test_registry_get_or_create_and_type_clash(self):
        reg = MetricsRegistry()
        c1 = reg.counter("repro_c", "h")
        assert reg.counter("repro_c", "h") is c1
        with pytest.raises(ValueError):
            reg.gauge("repro_c", "h")
        assert "repro_c" in reg
        assert reg.get("repro_c") is c1

    def test_collect_hooks_run_on_snapshot(self):
        reg = MetricsRegistry()
        reg.on_collect(lambda r: r.gauge("repro_hooked", "h").set(1.0))
        assert reg.metrics_json()["repro_hooked"] == 1.0

    def test_snapshot_sorted_and_deterministic(self):
        reg = MetricsRegistry()
        reg.gauge("repro_b", "h").set(2)
        reg.gauge("repro_a", "h").set(1)
        out = reg.metrics_json()
        assert list(out) == sorted(out)
        assert json.dumps(out) == json.dumps(reg.metrics_json())

    def test_render_is_text(self):
        reg = MetricsRegistry()
        reg.counter("repro_r_total", "things").inc(3)
        text = reg.render()
        assert "repro_r_total" in text and "3" in text


# ---------------------------------------------------------------------- #
# Engine profiler
# ---------------------------------------------------------------------- #
class TestProfiler:
    def test_attribution_by_layer_and_callback(self):
        prof = EngineProfiler()
        sim = Simulator()
        sim.set_profiler(prof)
        hits = []
        sim.schedule(1.0, hits.append, 1)
        sim.schedule(2.0, hits.append, 2)
        sim.run(until=3.0)
        assert hits == [1, 2]
        assert prof.events == 2
        data = prof.as_dict()
        assert data["events"] == 2
        assert sum(c["events"] for c in data["callbacks"]) == 2
        assert data["total_time_s"] >= 0.0

    def test_disabled_by_default(self):
        sim = Simulator()
        assert sim.profiler is None
        sim.schedule(1.0, lambda: None)
        sim.run(until=2.0)  # plain path still works

    def test_sampling_keeps_counts_exact(self):
        prof = EngineProfiler(sample_every=3)
        sim = Simulator()
        sim.set_profiler(prof)
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(until=20.0)
        assert prof.events == 10  # counts exact even when sampled

    def test_report_renders(self):
        prof = EngineProfiler()
        prof.record(self.test_report_renders, 0.001)
        out = prof.report()
        assert "engine profile" in out and "test_report_renders" in out

    def test_sample_every_validated(self):
        with pytest.raises(ValueError):
            EngineProfiler(sample_every=0)
