"""Tests for the pluggable execution backends (repro.exec.backends).

Covers the byte-identity contract every backend owes the serial
reference, the shared process pool (reuse across campaigns, crash
attribution, replacement of a pool broken while idle), the filestore
backend's claim protocol (including the stale-lock sweep and
kill-mid-claim resume), and the scheduler's retry/timeout paths and
failure records (the run log's ``task_done`` records) serially and under
``--workers 4``.
"""

import json
import multiprocessing as mp
import os
import signal
import subprocess
import threading
import time

import pytest

from repro.exec import (
    Campaign,
    CampaignExecutor,
    CheckpointStore,
    ClaimStore,
    ExecPolicy,
    FileStoreBackend,
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
        policy = ExecPolicy(workers=2, backend="pool", checkpoint=False)
        first = run_configs("id-pool-a", configs, policy)
        second = run_configs("id-pool-b", configs, policy)  # same workers
        assert metric_dump(serial) == metric_dump(first)
        assert metric_dump(serial) == metric_dump(second)

    def test_filestore_matches_serial(self):
        configs = [tiny(seed=s) for s in (3, 4, 5)]
        serial = run_configs("id-serial", configs, ExecPolicy())
        fs = run_configs(
            "id-fs", configs, ExecPolicy(workers=2, backend="filestore")
        )
        assert metric_dump(serial) == metric_dump(fs)

    def test_explicit_pool_matches_serial(self):
        configs = [tiny(seed=s) for s in (3, 4)]
        serial = run_configs("id-serial", configs, ExecPolicy())
        pool = run_configs(
            "id-pool", configs,
            ExecPolicy(workers=2, backend="pool", checkpoint=False),
        )
        assert metric_dump(serial) == metric_dump(pool)

    def test_unknown_backend_rejected(self):
        for name in ("carrier-pigeon", "warm"):
            with pytest.raises(ValueError, match="backend"):
                ExecPolicy(backend=name)


class TestSharedPool:
    POLICY = ExecPolicy(
        workers=2, backend="pool", retries=0, backoff_s=0.0,
        checkpoint=False,
    )

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


class TestClaimStore:
    def test_claim_is_exclusive_until_released(self, tmp_path):
        claims = ClaimStore(tmp_path / "claims")
        assert claims.try_claim("t1")
        assert not claims.try_claim("t1")
        claims.release("t1")
        assert claims.try_claim("t1")

    def test_live_same_host_claim_not_stale(self, tmp_path):
        claims = ClaimStore(tmp_path / "claims")
        claims.try_claim("t1")  # our own live PID
        assert not claims.is_stale("t1", ttl_s=0.0)

    def test_dead_pid_claim_is_stale_immediately(self, tmp_path):
        claims = ClaimStore(tmp_path / "claims")
        proc = subprocess.Popen(["sleep", "0"])
        proc.wait()  # reaped: the PID is provably gone
        claims.path("t1").write_text(json.dumps(
            {"pid": proc.pid, "host": claims.host, "t": time.time()}
        ))
        assert claims.is_stale("t1", ttl_s=3600.0)
        assert claims.sweep_stale(["t1"], ttl_s=3600.0) == ["t1"]
        assert not claims.path("t1").exists()

    def test_foreign_host_claim_needs_ttl(self, tmp_path):
        claims = ClaimStore(tmp_path / "claims")
        path = claims.path("t1")
        path.write_text(json.dumps(
            {"pid": 1, "host": "some-other-host", "t": time.time()}
        ))
        assert not claims.is_stale("t1", ttl_s=3600.0)
        old = time.time() - 100.0
        os.utime(path, (old, old))
        assert claims.is_stale("t1", ttl_s=60.0)

    def test_torn_claim_gets_grace_then_reaped(self, tmp_path):
        claims = ClaimStore(tmp_path / "claims")
        path = claims.path("t1")
        path.write_text('{"pid": 12')  # claimant died mid-write
        assert not claims.is_stale("t1", ttl_s=3600.0)  # within grace
        old = time.time() - 10.0
        os.utime(path, (old, old))
        assert claims.is_stale("t1", ttl_s=3600.0)

    def test_released_claim_not_stale(self, tmp_path):
        claims = ClaimStore(tmp_path / "claims")
        assert not claims.is_stale("never-claimed", ttl_s=0.0)


class TestFileStoreResume:
    def test_killed_launcher_claim_swept_and_cell_finished(self):
        """SIGKILL-mid-claim shape: a dead peer's claim must not wedge us."""
        configs = [tiny(seed=s) for s in (3, 4, 5)]
        campaign = Campaign.from_configs("fs-resume", configs)
        store = CheckpointStore()
        backend = FileStoreBackend(store=store, poll_s=0.05)
        proc = subprocess.Popen(["sleep", "0"])
        proc.wait()
        wedged = campaign.tasks[1].task_id
        backend.claims.path(wedged).write_text(json.dumps(
            {"pid": proc.pid, "host": backend.claims.host, "t": time.time()}
        ))
        policy = ExecPolicy(workers=2, backend="filestore", backoff_s=0.0)
        result = CampaignExecutor(policy, backend=backend).run(campaign)
        assert result.ok == 3
        assert not backend.claims.path(wedged).exists()
        serial = run_configs("fs-resume-ref", configs, ExecPolicy())
        assert metric_dump(serial) == metric_dump(
            [o.result for o in result.outcomes]
        )

    def test_peer_checkpoint_absorbed_without_local_run(self):
        """A cell claimed by a live peer is awaited, not recomputed."""
        configs = [tiny(seed=s) for s in (3, 4)]
        campaign = Campaign.from_configs("fs-peer", configs)
        store = CheckpointStore()
        backend = FileStoreBackend(store=store, poll_s=0.05)
        peer_task = campaign.tasks[0]
        assert backend.claims.try_claim(peer_task.task_id)  # live peer: us

        def peer_finishes():
            from repro.exec.worker import execute_payload, payload_for_config
            from repro.experiments.serialization import result_to_dict  # noqa: F401

            out = execute_payload(payload_for_config(peer_task.config, None))
            store.store(peer_task.task_id, out["result"])
            backend.claims.release(peer_task.task_id)

        t = threading.Thread(target=peer_finishes)
        t.start()
        policy = ExecPolicy(workers=2, backend="filestore", backoff_s=0.0)
        result = CampaignExecutor(policy, backend=backend).run(campaign)
        t.join()
        assert result.ok == 2
        by_seed = {o.task.config.seed: o for o in result.outcomes}
        # Peer-delivered cells carry no local compute time.
        assert by_seed[3].duration_s == 0.0
        assert by_seed[4].duration_s > 0.0


class TestRetryTimeoutQuarantine:
    """Scheduler failure paths, serial (in-process ``SerialBackend``) and
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
