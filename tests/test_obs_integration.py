"""End-to-end observability tests: traced runs, artifacts, CLI, campaigns.

The acceptance criteria for the obs subsystem live here:

* a 50-node NLR run with ``trace_spec=`` produces a schema-valid JSONL
  artifact plus a metrics snapshot;
* ``repro-trace summary`` reproduces the run's RREQ and PDR counters
  exactly from the artifact alone;
* a ``workers=2`` campaign yields byte-identical per-cell metrics
  snapshots to the same campaign run serially.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import replace

import pytest

from repro.exec import ExecPolicy, run_configs
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import ScenarioConfig, build_network
from repro.experiments.serialization import result_from_dict, result_to_dict
from repro.obs.schema import validate_trace_line
from repro.obs.spec import DEFAULT_RING, TraceSpec, artifact_root
from repro.obs import trace_cli

#: Pool workers keep the environment they were forked with, and these
#: tests set ``REPRO_*`` variables per test: fork a fresh pool each time.
pytestmark = pytest.mark.usefixtures("fresh_shared_pool")


def small_config(**overrides) -> ScenarioConfig:
    base = dict(
        protocol="nlr", seed=5, grid_nx=3, grid_ny=3,
        sim_time_s=10.0, warmup_s=2.0, n_flows=3, flow_rate_pps=2.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def read_jsonl(path):
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt") as fh:
        return [json.loads(line) for line in fh]


# ---------------------------------------------------------------------- #
# TraceSpec parsing
# ---------------------------------------------------------------------- #
class TestTraceSpec:
    def test_unknown_keys_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="unknown trace_spec"):
            small_config(trace_spec={"pth": "x.jsonl"})

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            TraceSpec.from_dict({"ring": 0})
        with pytest.raises(ValueError):
            TraceSpec.from_dict({"categories": []})
        with pytest.raises(ValueError):
            TraceSpec.from_dict("not a dict")

    @pytest.mark.parametrize("spec", [
        {"path": 5},
        {"ring": True},
        {"max_records": 10},
        {"retain": True},
        {"buffer_lines": 64},
    ])
    def test_bad_spec_rejected_at_config_time(self, spec):
        # A non-string path used to crash build_network; ring=True built
        # a one-record ring; the retention knobs are gone.
        with pytest.raises(ValueError, match="trace_spec"):
            small_config(trace_spec=spec)

    def test_ring_defaults_only_without_path(self):
        assert TraceSpec.from_dict({}).ring == DEFAULT_RING
        assert TraceSpec.from_dict({"ring": 8}).ring == 8
        assert TraceSpec.from_dict({"path": "t.jsonl"}).ring is None

    def test_placeholders_and_root_anchoring(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        spec = TraceSpec.from_dict({"path": "{protocol}-s{seed}/t.jsonl"})
        path = spec.resolve_path(small_config(seed=9))
        assert path == tmp_path / "nlr-s9" / "t.jsonl"
        assert artifact_root() == tmp_path

    def test_task_id_placeholder(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        spec = TraceSpec.from_dict({"path": "{task_id}/t.jsonl"})
        cfg = small_config()
        p1, p2 = spec.resolve_path(cfg), spec.resolve_path(replace(cfg))
        assert p1 == p2  # content-addressed: same config, same cell path
        assert p1 != spec.resolve_path(replace(cfg, seed=6))


# ---------------------------------------------------------------------- #
# Traced run end-to-end
# ---------------------------------------------------------------------- #
class TestTracedRun:
    @pytest.fixture()
    def artifacts(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        cfg = small_config(
            trace_spec={"path": "run/trace.jsonl.gz", "ring": 64},
            profile=True,
        )
        result = run_scenario(cfg)
        return tmp_path / "run", result

    def test_every_line_schema_valid(self, artifacts):
        root, _ = artifacts
        lines = read_jsonl(root / "trace.jsonl.gz")
        assert lines[0]["kind"] == "header"
        assert lines[-1]["kind"] == "footer"
        for i, obj in enumerate(lines):
            assert validate_trace_line(obj, i + 1) == []

    def test_metrics_snapshot_written_and_matches_result(self, artifacts):
        root, result = artifacts
        on_disk = json.loads((root / "trace.metrics.json").read_text())
        assert on_disk == result.metrics_snapshot
        assert on_disk["repro_flows_pdr"] == pytest.approx(result.pdr)
        # RREQ accounting: originations + forwards == the headline counter.
        originated = (
            on_disk['repro_net_control_tx_total{kind="rreq"}']
        )
        assert originated == result.rreq_tx

    def test_profile_artifacts_written(self, artifacts):
        root, _ = artifacts
        profile = json.loads((root / "trace.profile.json").read_text())
        assert profile["events"] > 0
        assert profile["callbacks"]
        assert "engine profile" in (root / "trace.profile.txt").read_text()

    def test_ring_holds_recent_records(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        net = build_network(small_config(trace_spec={"ring": 32}))
        net.start()
        net.sim.run(until=5.0)
        net.stop()
        assert net.trace_ring is not None
        assert len(net.trace_ring) == 32
        assert net.trace_ring.seen > 32

    def test_category_filter_respected(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        cfg = small_config(
            trace_spec={"path": "f/trace.jsonl", "categories": ["app"]}
        )
        run_scenario(cfg)
        cats = {
            ln["cat"] for ln in read_jsonl(tmp_path / "f" / "trace.jsonl")
            if "kind" not in ln
        }
        assert cats == {"app"}

    def test_streaming_run_keeps_memory_bounded(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        cfg = small_config(trace_spec={"path": "b/trace.jsonl"})
        net = build_network(cfg)
        net.start()
        net.sim.run(until=cfg.sim_time_s)
        net.stop()
        # Default for streaming runs: no in-memory ring, every record on
        # disk.
        assert net.trace_ring is None
        assert net.tracer.recorded > 0
        net.trace_sink.close()
        records = [
            ln for ln in read_jsonl(tmp_path / "b" / "trace.jsonl")
            if "kind" not in ln
        ]
        assert len(records) == net.tracer.recorded

    def test_plain_trace_flag_unchanged(self):
        result = run_scenario(small_config(trace_spec={}))
        assert result.metrics_snapshot["repro_flows_pdr"] >= 0.0

    def test_snapshot_round_trips_serialization(self):
        result = run_scenario(small_config())
        back = result_from_dict(result_to_dict(result))
        assert back.metrics_snapshot == result.metrics_snapshot
        # Legacy payloads (pre-obs) default to an empty snapshot.
        payload = result_to_dict(result)
        del payload["metrics_snapshot"]
        assert result_from_dict(payload).metrics_snapshot == {}


# ---------------------------------------------------------------------- #
# Acceptance: 50-node traced NLR run + CLI reproduction
# ---------------------------------------------------------------------- #
class TestAcceptance50Node:
    @pytest.fixture(scope="class")
    def run50(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("obs50")
        cfg = ScenarioConfig(
            protocol="nlr", seed=11, topology="grid",
            grid_nx=10, grid_ny=5, spacing_m=200.0,
            sim_time_s=12.0, warmup_s=2.0, n_flows=5, flow_rate_pps=2.0,
            trace_spec={
                "path": str(tmp / "nlr50" / "trace.jsonl.gz"), "ring": 128
            },
        )
        result = run_scenario(cfg)
        return tmp / "nlr50", result

    def test_schema_valid_jsonl_and_metrics(self, run50):
        root, result = run50
        assert result.config.node_count == 50
        lines = read_jsonl(root / "trace.jsonl.gz")
        for i, obj in enumerate(lines):
            assert validate_trace_line(obj, i + 1) == []
        assert lines[-1]["kind"] == "footer"
        snapshot = json.loads((root / "trace.metrics.json").read_text())
        assert snapshot == result.metrics_snapshot

    def test_cli_summary_reproduces_counters(self, run50, capsys):
        root, result = run50
        path = root / "trace.jsonl.gz"
        header, records, _ = trace_cli.load_trace(path)
        # RREQ tx from the artifact alone == the run's headline counter.
        assert trace_cli.rreq_tx_count(records) == result.rreq_tx
        # PDR window logic from the artifact alone == the collector's.
        sent, received, pdr = trace_cli.pdr_from_trace(
            records, trace_cli.window_of(header)
        )
        assert sent == result.packets_sent
        assert received == result.packets_received
        assert pdr == pytest.approx(result.pdr)
        # And the console command agrees.
        assert trace_cli.main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"rreq tx           | {int(result.rreq_tx)}" in out

    def test_cli_validate_strict_passes(self, run50, capsys):
        root, _ = run50
        code = trace_cli.main(
            ["validate", "--strict", str(root / "trace.jsonl.gz")]
        )
        assert code == 0
        assert "ok:" in capsys.readouterr().out


# ---------------------------------------------------------------------- #
# repro-trace CLI behaviours
# ---------------------------------------------------------------------- #
class TestTraceCli:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cli")
        cfg = ScenarioConfig(
            protocol="nlr", seed=5, grid_nx=3, grid_ny=3,
            sim_time_s=10.0, warmup_s=2.0, n_flows=3, flow_rate_pps=2.0,
            trace_spec={"path": str(tmp / "trace.jsonl")},
        )
        run_scenario(cfg)
        return tmp / "trace.jsonl"

    def test_timeline(self, trace_path, capsys):
        assert trace_cli.main(
            ["timeline", str(trace_path), "--bin", "1", "--category", "net"]
        ) == 0
        assert "o=net" in capsys.readouterr().out

    def test_nodes(self, trace_path, capsys):
        assert trace_cli.main(["nodes", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "records per node" in out and "app" in out

    def test_storms(self, trace_path, capsys):
        assert trace_cli.main(["storms", str(trace_path)]) == 0
        assert "discovery storms" in capsys.readouterr().out

    def test_csv(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "out.csv"
        assert trace_cli.main(
            ["csv", str(trace_path), "-o", str(out_path)]
        ) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("t,cat,node,ev")
        header, records, _ = trace_cli.load_trace(trace_path)
        assert len(lines) == len(records) + 1

    def test_validate_flags_corruption(self, trace_path, tmp_path, capsys):
        corrupted = tmp_path / "bad.jsonl"
        lines = trace_path.read_text().splitlines()
        lines[3] = '{"t": "not-a-number", "cat": 5}'
        corrupted.write_text("\n".join(lines) + "\n")
        assert trace_cli.main(["validate", str(corrupted)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_rejects_foreign_jsonl(self, tmp_path, capsys):
        foreign = tmp_path / "foreign.jsonl"
        foreign.write_text('{"hello": "world"}\n')
        assert trace_cli.main(["summary", str(foreign)]) == 2
        assert "not a v1 trace artifact" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert trace_cli.main(["summary", str(tmp_path / "nope.jsonl")]) == 2


# ---------------------------------------------------------------------- #
# Campaigns: per-cell artifacts, parallel == serial snapshots
# ---------------------------------------------------------------------- #
class TestCampaignObservability:
    def test_workers2_metrics_byte_identical_to_serial(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        configs = [
            small_config(
                seed=s,
                sim_time_s=6.0, warmup_s=1.0,
                trace_spec={"path": "{task_id}/trace.jsonl"},
            )
            for s in (5, 6, 7)
        ]
        serial = run_configs(
            "obs-serial", configs, ExecPolicy(workers=1, checkpoint=False)
        )
        parallel = run_configs(
            "obs-parallel", configs, ExecPolicy(workers=2, checkpoint=False)
        )
        for a, b in zip(serial, parallel):
            assert json.dumps(a.metrics_snapshot, sort_keys=True) == \
                json.dumps(b.metrics_snapshot, sort_keys=True)

    def test_worker_cells_write_artifacts(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        configs = [
            small_config(
                seed=s, sim_time_s=6.0, warmup_s=1.0,
                trace_spec={"path": "{task_id}/trace.jsonl.gz"},
            )
            for s in (5, 6)
        ]
        results = run_configs(
            "obs-cells", configs, ExecPolicy(workers=2, checkpoint=False)
        )
        cell_dirs = sorted((tmp_path / "obs").iterdir())
        assert len(cell_dirs) == 2  # one artifact tree per cell
        for d in cell_dirs:
            lines = read_jsonl(d / "trace.jsonl.gz")
            assert lines[-1]["kind"] == "footer"
            snapshot = json.loads((d / "trace.metrics.json").read_text())
            assert snapshot in [r.metrics_snapshot for r in results]
