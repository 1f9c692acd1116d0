"""Unit tests for the observability subsystem (repro.obs).

Covers the JSONL schema, streaming/ring/composite sinks, the metrics
snapshot, the engine profiler, the tracer's sink pass-through and the
ring's eviction accounting.
"""

from __future__ import annotations

import gzip
import json
import math

import pytest

from repro.experiments.scenario import ScenarioConfig, build_network
from repro.obs.metrics import _histogram, network_metrics
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
# Metrics snapshot
# ---------------------------------------------------------------------- #
def _buckets(name: str, bounds: tuple[str, ...]) -> list[str]:
    return [f'{name}_bucket{{le="{b}"}}' for b in bounds + ("+Inf",)] + [
        f"{name}_count", f"{name}_sum",
    ]


#: Every series of a CSMA run, sorted: the snapshot contract that
#: ``ScenarioResult.totals``, the golden digests and DSE objectives read.
CSMA_SERIES = sorted(
    _buckets("repro_flows_delay_seconds", (
        "0.001", "0.0025", "0.005", "0.01", "0.025", "0.05", "0.1", "0.25",
        "0.5", "1", "2.5", "5",
    ))
    + ["repro_flows_pdr", "repro_flows_received_total", "repro_flows_sent_total"]
    + _buckets("repro_mac_busy_ratio", (
        "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9", "1",
    ))
    + [
        'repro_mac_drops_total{reason="queue"}',
        'repro_mac_drops_total{reason="retry"}',
        "repro_mac_retries_total",
    ]
    + [f'repro_mac_tx_total{{kind="{k}"}}' for k in ("ack", "cts", "data", "rts")]
    + ["repro_net_control_bytes_total"]
    + [
        f'repro_net_control_tx_total{{kind="{k}"}}'
        for k in ("hello", "rerr", "rrep", "rreq")
    ]
    + [
        f'repro_net_data_dropped_total{{reason="{r}"}}'
        for r in ("buffer", "link", "no_route", "ttl")
    ]
    + [
        "repro_net_data_forwarded_total",
        "repro_net_data_originated_total",
        "repro_net_discoveries_failed_total",
        "repro_net_rerr_suppressed_total",
        "repro_net_rreq_forwarded_total",
    ]
    + [
        f'repro_phy_frames_total{{kind="{k}"}}'
        for k in ("captured", "corrupted", "received", "sent")
    ]
    + [
        "repro_sim_events_executed_total",
        "repro_sim_now_seconds",
        "repro_trace_dropped_total",
        "repro_trace_recorded_total",
    ]
)


def _run_network(**overrides):
    config = ScenarioConfig(
        protocol="nlr", grid_nx=3, grid_ny=3, n_flows=2, flow_rate_pps=10.0,
        sim_time_s=4.0, warmup_s=1.0, seed=3, **overrides,
    )
    net = build_network(config)
    net.start()
    net.sim.run(until=config.sim_time_s)
    net.stop()
    return net


def _family(series: str) -> str:
    name = series.split("{")[0]
    for suffix in ("_bucket", "_count", "_sum"):
        name = name.removesuffix(suffix)
    return name


class TestMetrics:
    def test_series_names_of_a_csma_run(self):
        snapshot = network_metrics(_run_network())
        assert len(CSMA_SERIES) == 60
        assert sorted(snapshot) == CSMA_SERIES
        assert all(type(v) is float for v in snapshot.values())

    def test_perfect_mac_run_has_no_phy_series(self):
        snapshot = network_metrics(_run_network(mac="perfect"))
        assert sorted(snapshot) == [
            s for s in CSMA_SERIES if not s.startswith("repro_phy_")
        ]

    def test_snapshot_reads_live_counters(self):
        net = _run_network()
        snapshot = network_metrics(net)
        assert snapshot["repro_sim_now_seconds"] == net.sim.now == 4.0
        assert snapshot["repro_sim_events_executed_total"] == (
            net.sim.events_executed
        )
        assert snapshot["repro_flows_sent_total"] == net.collector.total_sent > 0
        assert snapshot['repro_net_control_tx_total{kind="rreq"}'] == sum(
            s.routing.control_tx["rreq"] for s in net.stacks
        ) > 0
        # One observation per in-window delivery, one per node.
        assert snapshot["repro_flows_delay_seconds_count"] == (
            net.collector.total_received
        )
        assert snapshot["repro_mac_busy_ratio_count"] == len(net.stacks)

    def test_histogram_cumulative_buckets(self):
        out: dict[str, float] = {}
        _histogram(out, "repro_h", (1.0, 5.0), [0.5, 0.7, math.nan, 3.0, 100.0])
        assert list(out) == [
            'repro_h_bucket{le="1"}', 'repro_h_bucket{le="5"}',
            'repro_h_bucket{le="+Inf"}', "repro_h_sum", "repro_h_count",
        ]
        assert out['repro_h_bucket{le="1"}'] == 2.0
        assert out['repro_h_bucket{le="5"}'] == 3.0  # a bound is inclusive
        assert out['repro_h_bucket{le="+Inf"}'] == out["repro_h_count"] == 4.0
        assert out["repro_h_sum"] == pytest.approx(104.2)  # NaN skipped
        empty: dict[str, float] = {}
        _histogram(empty, "repro_h", (1.0,), [math.nan])
        assert empty == {
            'repro_h_bucket{le="1"}': 0.0, 'repro_h_bucket{le="+Inf"}': 0.0,
            "repro_h_sum": 0.0, "repro_h_count": 0.0,
        }

    def test_snapshot_sorted_and_deterministic(self):
        first = network_metrics(_run_network())
        families = list(dict.fromkeys(_family(s) for s in first))
        assert families == sorted(families)
        assert json.dumps(first) == json.dumps(network_metrics(_run_network()))


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
