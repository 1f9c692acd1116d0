"""Tests for where campaign cells run (repro.exec.backends).

Covers the byte-identity contract the shared process pool owes the
serial reference, the pool itself (reuse across campaigns, crash
attribution, replacement of a pool broken while idle), and the
scheduler's retry/timeout paths and failure records (the run log's
``task_done`` records) serially and under ``--workers 4``.
"""

import json
import multiprocessing as mp
import os
import signal
import time

import pytest

from repro.exec import (
    Campaign,
    CampaignExecutor,
    ExecPolicy,
    run_configs,
    shutdown_shared_pools,
)
from repro.exec.worker import FAULT_ENV
from repro.experiments.scenario import ScenarioConfig
from repro.obs.trace_cli import load_trace
from repro.obs.trace_cli import main as trace_main

#: Pool workers keep the environment they were forked with, and these
#: tests set ``REPRO_*`` variables per test: fork a fresh pool each time.
pytestmark = pytest.mark.usefixtures("fresh_shared_pool")


def tiny(protocol="aodv", **kw):
    defaults = dict(
        protocol=protocol, grid_nx=3, grid_ny=3, n_flows=2,
        sim_time_s=8.0, warmup_s=1.0, seed=3,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def metric_dump(results):
    return json.dumps([r.as_dict() for r in results], sort_keys=True)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    yield tmp_path


def failure_record(log_dir, campaign):
    """The one failed ``task_done`` record of ``campaign``'s run log, after
    checking the log is a complete, schema-valid artifact."""
    [log] = log_dir.glob(f"{campaign.name}-*.jsonl")
    assert trace_main(["validate", "--strict", str(log)]) == 0
    _, records, _ = load_trace(log)
    [record] = [r for r in records if r.get("status") == "failed"]
    return record


def pool_pids() -> set[int]:
    """PIDs of this process's live worker processes."""
    return {proc.pid for proc in mp.active_children()}


class TestBackendIdentity:
    def test_reused_pool_matches_serial(self):
        configs = [tiny(p, seed=s) for p in ("aodv", "nlr") for s in (3, 4)]
        serial = run_configs("id-serial", configs, ExecPolicy())
        policy = ExecPolicy(workers=2, checkpoint=False)
        first = run_configs("id-pool-a", configs, policy)
        second = run_configs("id-pool-b", configs, policy)  # same workers
        assert metric_dump(serial) == metric_dump(first)
        assert metric_dump(serial) == metric_dump(second)


class TestSharedPool:
    POLICY = ExecPolicy(workers=2, retries=0, backoff_s=0.0, checkpoint=False)

    def test_workers_persist_across_campaigns(self):
        run_configs("pool-a", [tiny(seed=s) for s in (3, 4, 5)], self.POLICY)
        pids = pool_pids()
        assert len(pids) == 2
        run_configs("pool-b", [tiny(seed=6)], self.POLICY)
        assert pool_pids() == pids
        shutdown_shared_pools()
        assert pool_pids() == set()

    def test_crash_attributed_to_exact_cell(self, monkeypatch):
        crash_seed = 777
        monkeypatch.setenv(FAULT_ENV, f"exit:{crash_seed}")
        campaign = Campaign.from_configs(
            "pool-crashy", [tiny(seed=3), tiny(seed=4), tiny(seed=crash_seed)]
        )
        result = CampaignExecutor(self.POLICY).run(campaign)
        by_seed = {o.task.config.seed: o for o in result.outcomes}
        assert by_seed[3].ok and by_seed[4].ok
        assert by_seed[crash_seed].status == "failed"
        assert by_seed[crash_seed].kind == "crash"
        # A pool forked for the solo re-runs may still carry the fault in
        # its environment: clear it, fork fresh workers, and the next
        # campaign succeeds.
        monkeypatch.delenv(FAULT_ENV)
        shutdown_shared_pools()
        again = CampaignExecutor(self.POLICY).run(campaign)
        assert again.ok == 3

    def test_idle_worker_killed_between_campaigns(self):
        configs = [tiny(seed=s) for s in (3, 4, 5)]
        run_configs("pool-before", configs, self.POLICY)
        pids = pool_pids()
        os.kill(min(pids), signal.SIGKILL)
        # The executor notices the corpse, marks itself broken and reaps
        # the survivors; the next submit must then hit a broken pool.
        deadline = time.monotonic() + 10.0
        while pool_pids() & pids and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not pool_pids() & pids
        result = CampaignExecutor(self.POLICY).run(
            Campaign.from_configs("pool-after", configs)
        )
        assert [(o.status, o.attempts) for o in result.outcomes] == [
            ("ok", 1)
        ] * 3
        assert len(pool_pids()) == 2


class TestRetryTimeoutQuarantine:
    """Scheduler failure paths, serial (in-process ``run_serial``) and
    under ``--workers 4``; both run through the same retry rounds.  The
    crash case stays parallel-only: a hard exit in-process would take the
    test runner down with it."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_error_retry_then_success_and_identity(
        self, tmp_path, monkeypatch, workers
    ):
        fault_seed = 4
        monkeypatch.setenv(
            FAULT_ENV, f"error_once:{fault_seed}:{tmp_path}"
        )
        configs = [tiny(seed=s) for s in (3, 4, 5, 6)]
        campaign = Campaign.from_configs("retry-err", configs)
        policy = ExecPolicy(workers=workers, retries=1, backoff_s=0.0)
        result = CampaignExecutor(policy).run(campaign)
        assert result.ok == 4
        by_seed = {o.task.config.seed: o for o in result.outcomes}
        assert by_seed[fault_seed].attempts == 2  # failed once, retried
        assert (tmp_path / f"fault-error_once-{fault_seed}.fired").exists()
        monkeypatch.delenv(FAULT_ENV)
        serial = run_configs("retry-err-ref", configs, ExecPolicy())
        assert metric_dump(serial) == metric_dump(
            [o.result for o in result.outcomes]
        )

    @pytest.mark.parametrize("workers", [1, 4])
    def test_timeout_retry_then_success(self, tmp_path, monkeypatch, workers):
        fault_seed = 5
        monkeypatch.setenv(
            FAULT_ENV, f"hang_once:{fault_seed}:{tmp_path}"
        )
        configs = [tiny(seed=s) for s in (3, 5)]
        campaign = Campaign.from_configs("retry-hang", configs)
        policy = ExecPolicy(
            workers=workers, retries=1, backoff_s=0.0, task_timeout_s=2.0
        )
        result = CampaignExecutor(policy).run(campaign)
        assert result.ok == 2
        by_seed = {o.task.config.seed: o for o in result.outcomes}
        # First attempt hung into the timeout, second ran clean.
        assert by_seed[fault_seed].attempts == 2
        assert by_seed[3].attempts == 1

    @pytest.mark.parametrize("workers", [1, 4])
    def test_terminal_failure_writes_quarantine_record(
        self, tmp_path, monkeypatch, workers
    ):
        fault_seed = 6
        monkeypatch.setenv(
            FAULT_ENV, f"error_once:{fault_seed}:{tmp_path}"
        )
        configs = [tiny(seed=s) for s in (3, 6)]
        campaign = Campaign.from_configs("quarantine-me", configs)
        policy = ExecPolicy(
            workers=workers, retries=0, backoff_s=0.0, log_dir=tmp_path / "runs"
        )
        result = CampaignExecutor(policy).run(campaign)
        by_seed = {o.task.config.seed: o for o in result.outcomes}
        assert by_seed[3].ok
        assert by_seed[fault_seed].status == "failed"
        # The quarantine record is the failed cell's run-log record.
        record = failure_record(tmp_path / "runs", campaign)
        assert record["campaign"] == "quarantine-me"
        assert record["task_id"] == campaign.tasks[1].task_id
        assert record["seed"] == fault_seed
        assert record["protocol"] == "aodv"
        assert record["attempts"] == 1
        assert record["x_kind"] == "error"  # the schema reserves "kind"
        assert "injected one-shot error" in record["error"]

    def test_crash_quarantine_record(self, tmp_path, monkeypatch):
        crash_seed = 888
        monkeypatch.setenv(FAULT_ENV, f"exit:{crash_seed}")
        configs = [tiny(seed=3), tiny(seed=crash_seed)]
        campaign = Campaign.from_configs("quarantine-crash", configs)
        policy = ExecPolicy(
            workers=4, retries=0, backoff_s=0.0, log_dir=tmp_path / "runs"
        )
        result = CampaignExecutor(policy).run(campaign)
        by_seed = {o.task.config.seed: o for o in result.outcomes}
        assert by_seed[crash_seed].kind == "crash"
        record = failure_record(tmp_path / "runs", campaign)
        assert record["seed"] == crash_seed
        assert record["x_kind"] == "crash"
        assert "died repeatedly" in record["error"]
