"""Durability of the campaign run log.

The log is the campaign's post-mortem record: after *any* crash —
including a hard ``os._exit`` mid-campaign — it must re-parse as whole
JSON lines covering every event logged before death, pass ``repro-trace
validate`` and fail ``validate --strict`` (no footer).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exec.policy import ExecPolicy
from repro.exec.progress import ProgressReporter
from repro.exec.task import Campaign, Task
from repro.experiments.scenario import ScenarioConfig
from repro.obs.trace_cli import load_trace
from repro.obs.trace_cli import main as trace_main


REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


class _Outcome:
    """Minimal TaskOutcome stand-in for driving the reporter directly."""

    def __init__(self, task, status="ok", source="run"):
        self.task = task
        self.status = status
        self.source = source
        self.kind = "error" if status != "ok" else None
        self.attempts = 1
        self.duration_s = 0.01
        self.result = None
        self.error = None


def make_campaign(n=3):
    configs = [
        ScenarioConfig(seed=s, sim_time_s=2.0, warmup_s=0.5, n_flows=1)
        for s in range(1, n + 1)
    ]
    return Campaign("durability", [Task(c) for c in configs])


class TestLogDurability:
    def test_every_event_flushed_immediately(self, tmp_path):
        """Events are readable from disk *before* campaign_end closes the log."""
        reporter = ProgressReporter(stream=open(os.devnull, "w"))
        campaign = make_campaign(2)
        reporter.campaign_started(campaign, ExecPolicy(log_dir=tmp_path))
        [log] = tmp_path.glob("durability-*.jsonl")
        reporter.task_finished(_Outcome(campaign.tasks[0]))
        # No campaign_end yet: per-event flush means the lines are on disk.
        lines = [json.loads(ln) for ln in log.read_text().splitlines()]
        assert lines[0]["kind"] == "header"
        assert [ln["ev"] for ln in lines[1:]] == ["task_done"]
        reporter.task_finished(_Outcome(campaign.tasks[1], status="error"))
        reporter.campaign_finished(None)
        header, records, footer = load_trace(log)
        assert header["campaign"] == "durability" and header["tasks"] == 2
        assert records[-1]["ev"] == "campaign_end"
        assert footer["recorded"] == 3  # closed (and fsynced) at the end

    def test_reporter_reusable_after_campaign_end(self, tmp_path):
        reporter = ProgressReporter(stream=open(os.devnull, "w"))
        for _ in range(2):
            campaign = make_campaign(1)
            reporter.campaign_started(campaign, ExecPolicy(log_dir=tmp_path))
            reporter.task_finished(_Outcome(campaign.tasks[0]))
            reporter.campaign_finished(None)
        # One complete artifact per campaign.
        logs = sorted(tmp_path.glob("durability-*.jsonl"))
        assert len(logs) == 2
        for log in logs:
            _, records, footer = load_trace(log)
            assert [r["ev"] for r in records] == ["task_done", "campaign_end"]
            assert records[-1]["ok"] == 1
            assert footer is not None

    def test_log_survives_hard_kill_mid_campaign(self, tmp_path):
        """Kill the campaign process mid-write; the log must re-parse whole.

        ``REPRO_EXEC_FAULT=exit:<seed>`` makes the (serial, in-process)
        worker die with ``os._exit`` when it reaches that seed's cell —
        after earlier cells logged their ``task_done`` events.
        """
        log_dir = tmp_path / "runs"
        script = f"""
import sys
from pathlib import Path
sys.path.insert(0, {REPO_SRC!r})
from repro.exec import ExecPolicy, ProgressReporter, run_configs
from repro.experiments.scenario import ScenarioConfig

configs = [
    ScenarioConfig(seed=s, sim_time_s=2.0, warmup_s=0.5, n_flows=1)
    for s in (1, 2, 3)
]
reporter = ProgressReporter(min_interval_s=0.0)
run_configs("kill-test", configs,
            ExecPolicy(workers=1, checkpoint=False, retries=0,
                       log_dir=Path({str(log_dir)!r})),
            reporter=reporter)
"""
        env = dict(os.environ, REPRO_EXEC_FAULT="exit:3", PYTHONPATH=REPO_SRC)
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0  # the fault killed the process

        # The log must exist and re-parse line-by-line: only whole JSON
        # objects, never a torn tail.
        [log] = log_dir.glob("kill-test-*.jsonl")
        raw = log.read_text()
        assert raw.endswith("\n")
        for line in raw.splitlines():
            json.loads(line)
        header, records, footer = load_trace(log)
        assert header["campaign"] == "kill-test"
        # Cells for seeds 1 and 2 completed (and were flushed) before the
        # seed-3 cell killed the process; campaign_end never happened.
        assert [r["ev"] for r in records] == ["task_done", "task_done"]
        assert all(r["status"] == "ok" for r in records)
        assert footer is None
        # Valid line protocol, but a truncated artifact.
        assert trace_main(["validate", str(log)]) == 0
        assert trace_main(["validate", "--strict", str(log)]) == 1
