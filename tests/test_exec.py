"""Tests for the parallel campaign executor (repro.exec)."""

import json
import os
import time

import pytest

from repro.exec import (
    Campaign,
    CampaignExecutor,
    CheckpointStore,
    ExecPolicy,
    Task,
    configure,
    current_policy,
    replicate_cells,
    run_configs,
    using,
)
from repro.exec.worker import FAULT_ENV, execute_payload, payload_for_config
from repro.experiments.runner import replicate, run_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.serialization import result_from_dict, result_to_dict
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


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Keep checkpoints/cache out of the repo's results/ directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    yield tmp_path


class TestTaskModel:
    def test_task_id_stable(self):
        assert Task(tiny()).task_id == Task(tiny()).task_id

    def test_task_id_seed_sensitive(self):
        assert Task(tiny(seed=1)).task_id != Task(tiny(seed=2)).task_id

    def test_task_id_config_sensitive(self):
        assert Task(tiny("aodv")).task_id != Task(tiny("nlr")).task_id

    def test_tag_not_in_id(self):
        assert Task(tiny(), tag="a").task_id == Task(tiny(), tag="b").task_id

    def test_replication_seed_ladder(self):
        calls = []

        def run_fn(name, configs, policy=None, tags=None):
            calls.append((name, [c.seed for c in configs], tags))
            return list(configs)

        report = replicate_cells("r", [("a", tiny(seed=10))], 3, run_fn=run_fn)
        assert calls == [("r", [10, 11, 12], ["a", "a", "a"])]
        assert [c.seed for c in report.results["a"]] == [10, 11, 12]

    def test_duplicate_tasks_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Campaign("dup", [Task(tiny()), Task(tiny())])

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError, match="no tasks"):
            Campaign("empty", [])


class TestCheckpointStore:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "cells")
        result = run_scenario(tiny())
        store.store("abc", result_to_dict(result))
        assert "abc" in store
        loaded = result_from_dict(store.load("abc"))
        assert loaded.as_dict() == result.as_dict()
        assert loaded.config.seed == result.config.seed

    def test_corrupt_entry_deleted_and_missed(self, tmp_path):
        store = CheckpointStore(tmp_path / "cells")
        store.path("bad").write_text('{"schema": 1, "result": {tru')
        assert store.load("bad") is None
        assert not store.path("bad").exists()

    def test_stale_schema_invalidated(self, tmp_path):
        store = CheckpointStore(tmp_path / "cells")
        store.path("old").write_text(json.dumps({"schema": 0, "result": {}}))
        assert store.load("old") is None
        assert not store.path("old").exists()

    def test_clear(self, tmp_path):
        store = CheckpointStore(tmp_path / "cells")
        store.store("a", {"x": 1})
        store.store("b", {"x": 2})
        assert store.clear() == 2
        assert store.load("a") is None


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExecPolicy(workers=0)
        with pytest.raises(ValueError):
            ExecPolicy(retries=-1)
        with pytest.raises(ValueError):
            ExecPolicy(task_timeout_s=0.0)

    @pytest.mark.parametrize("timeout", [float("inf"), float("nan")])
    def test_non_finite_timeout_rejected(self, timeout):
        # An infinite budget overflowed setitimer and failed every cell.
        with pytest.raises(ValueError, match="finite"):
            ExecPolicy(task_timeout_s=timeout)

    def test_checkpoint_auto(self):
        assert not ExecPolicy().wants_checkpoint
        assert ExecPolicy(workers=2).wants_checkpoint
        assert ExecPolicy(resume=True).wants_checkpoint
        assert not ExecPolicy(workers=2, checkpoint=False).wants_checkpoint

    def test_using_restores(self):
        before = current_policy()
        with using(workers=7) as active:
            assert active.workers == 7
            assert current_policy().workers == 7
        assert current_policy() == before

    def test_configure_replaces(self):
        saved = current_policy()
        try:
            assert configure(retries=5).retries == 5
            assert current_policy().retries == 5
        finally:
            configure(**{f: getattr(saved, f) for f in (
                "workers", "task_timeout_s", "retries", "backoff_s",
                "resume", "checkpoint", "progress", "log_dir")})


class TestSerialExecutor:
    def test_matches_direct_run(self):
        campaign = Campaign.from_configs("s", [tiny(seed=3), tiny(seed=4)])
        result = CampaignExecutor(ExecPolicy()).run(campaign)
        assert result.ok == 2 and result.failed == 0
        direct = [run_scenario(t.config) for t in campaign.tasks]
        assert [r.as_dict() for r in result.results()] == [
            r.as_dict() for r in direct
        ]

    def test_checkpoint_and_resume_skip_recompute(self, monkeypatch):
        campaign = Campaign.from_configs("ck", [tiny(seed=3), tiny(seed=4)])
        policy = ExecPolicy(checkpoint=True)
        CampaignExecutor(policy).run(campaign)

        calls = []
        import repro.exec.backends as backends_mod

        real = backends_mod.execute_payload
        monkeypatch.setattr(
            backends_mod, "execute_payload",
            lambda payload: calls.append(1) or real(payload),
        )
        resumed = CampaignExecutor(ExecPolicy(resume=True)).run(campaign)
        assert calls == []  # nothing recomputed
        assert all(o.source == "checkpoint" for o in resumed.outcomes)
        assert [r.as_dict() for r in resumed.results()]

    def test_retry_then_success(self, monkeypatch):
        import repro.exec.backends as backends_mod

        real = backends_mod.execute_payload
        attempts = []

        def flaky(payload):
            attempts.append(1)
            if len(attempts) == 1:
                return {"ok": False, "kind": "error", "error": "boom",
                        "duration_s": 0.0}
            return real(payload)

        monkeypatch.setattr(backends_mod, "execute_payload", flaky)
        campaign = Campaign.from_configs("flaky", [tiny()])
        result = CampaignExecutor(
            ExecPolicy(retries=1, backoff_s=0.0)
        ).run(campaign)
        assert result.ok == 1
        assert result.outcomes[0].attempts == 2

    def test_failure_recorded_and_strict_raises(self, monkeypatch):
        import repro.exec.backends as backends_mod

        monkeypatch.setattr(
            backends_mod, "execute_payload",
            lambda payload: {"ok": False, "kind": "error", "error": "boom",
                             "duration_s": 0.0},
        )
        campaign = Campaign.from_configs("dead", [tiny()])
        result = CampaignExecutor(ExecPolicy(retries=0)).run(campaign)
        assert result.failed == 1
        assert result.outcomes[0].kind == "error"
        with pytest.raises(RuntimeError, match="1 of 1 tasks failed"):
            result.results()
        assert result.results(strict=False) == []


class TestWorker:
    def test_execute_payload_ok(self):
        out = execute_payload(payload_for_config(tiny(), None))
        assert out["ok"]
        assert result_from_dict(out["result"]).packets_sent > 0

    def test_execute_payload_error_contained(self):
        payload = payload_for_config(tiny(), None)
        payload["config"]["protocol"] = "ospf"  # invalid at reconstruction
        out = execute_payload(payload)
        assert not out["ok"] and out["kind"] == "error"
        assert "ospf" in out["error"]

    def test_timeout_enforced(self):
        heavy = tiny(grid_nx=5, grid_ny=5, n_flows=10, flow_rate_pps=50.0,
                     sim_time_s=120.0, warmup_s=1.0)
        out = execute_payload(payload_for_config(heavy, 0.1))
        assert not out["ok"] and out["kind"] == "timeout"

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnraisableExceptionWarning"
    )
    def test_timeout_survives_alarm_in_finalizer(self, monkeypatch):
        import repro.exec.worker as worker_mod

        class SlowFinalizer:
            def __del__(self):
                time.sleep(0.5)  # the 0.1 s alarm fires in here

        real = worker_mod.run_scenario

        def run_after_finalizer(config):
            SlowFinalizer()  # collected at once: __del__ runs right here
            return real(config)

        monkeypatch.setattr(worker_mod, "run_scenario", run_after_finalizer)
        out = execute_payload(payload_for_config(tiny(sim_time_s=2.0), 0.1))
        assert not out["ok"] and out["kind"] == "timeout"


class TestParallelExecutor:
    def test_parallel_matches_serial_byte_identical(self):
        configs = [tiny(p, seed=s) for p in ("aodv", "nlr") for s in (3, 4)]
        serial = run_configs("grid-serial", configs, ExecPolicy())
        parallel = run_configs(
            "grid-parallel", configs, ExecPolicy(workers=2)
        )
        a = json.dumps([r.as_dict() for r in serial], sort_keys=True)
        b = json.dumps([r.as_dict() for r in parallel], sort_keys=True)
        assert a == b

    def test_timeout_isolated_from_siblings(self):
        heavy = tiny(grid_nx=5, grid_ny=5, n_flows=10, flow_rate_pps=50.0,
                     sim_time_s=120.0, warmup_s=1.0, seed=50)
        campaign = Campaign.from_configs("mix", [tiny(seed=3), heavy])
        result = CampaignExecutor(
            ExecPolicy(workers=2, task_timeout_s=0.5, retries=0,
                       backoff_s=0.0)
        ).run(campaign)
        by_seed = {o.task.config.seed: o for o in result.outcomes}
        assert by_seed[3].ok
        assert by_seed[50].kind == "timeout"

    def test_worker_crash_isolated_and_resumable(self, monkeypatch):
        crash_seed = 777
        configs = [tiny(seed=3), tiny(seed=4), tiny(seed=crash_seed)]
        campaign = Campaign.from_configs("crashy", configs)
        monkeypatch.setenv(FAULT_ENV, f"exit:{crash_seed}")
        policy = ExecPolicy(workers=2, retries=0, backoff_s=0.0)
        result = CampaignExecutor(policy).run(campaign)
        by_seed = {o.task.config.seed: o for o in result.outcomes}
        assert by_seed[3].ok and by_seed[4].ok
        assert by_seed[crash_seed].status == "failed"
        assert by_seed[crash_seed].kind == "crash"

        # The survivors' cells are checkpointed: fixing the fault and
        # resuming completes the campaign without recomputing them.
        monkeypatch.delenv(FAULT_ENV)
        resumed = CampaignExecutor(
            ExecPolicy(workers=2, resume=True, retries=0, backoff_s=0.0)
        ).run(campaign)
        sources = {
            o.task.config.seed: o.source for o in resumed.outcomes
        }
        assert sources[3] == "checkpoint" and sources[4] == "checkpoint"
        assert sources[crash_seed] == "run"
        assert resumed.ok == 3


class TestReplicateIntegration:
    def test_replicate_parallel_summary_identical(self):
        cfg = tiny()
        runs_s, summary_s = replicate(cfg, n_runs=2)
        runs_p, summary_p = replicate(
            cfg, n_runs=2, policy=ExecPolicy(workers=2)
        )
        assert [r.as_dict() for r in runs_s] == [r.as_dict() for r in runs_p]
        assert {k: (ci.mean, ci.half_width) for k, ci in summary_s.items()} \
            == {k: (ci.mean, ci.half_width) for k, ci in summary_p.items()}

    def test_run_configs_order_is_input_order(self):
        configs = [tiny(seed=s) for s in (9, 7, 8)]
        results = run_configs("order", configs, ExecPolicy(workers=2))
        assert [r.config.seed for r in results] == [9, 7, 8]


class TestProgress:
    def test_jsonl_run_log(self, tmp_path):
        from repro.exec import ProgressReporter

        reporter = ProgressReporter(
            stream=open(os.devnull, "w"), min_interval_s=0.0
        )
        campaign = Campaign.from_configs(
            "logged", [tiny(seed=3), tiny(seed=4)]
        )
        CampaignExecutor(ExecPolicy(log_dir=tmp_path), reporter=reporter).run(
            campaign
        )
        [log] = tmp_path.glob("logged-*.jsonl")
        header, records, footer = load_trace(log)
        assert header["campaign"] == "logged" and header["tasks"] == 2
        kinds = [r["ev"] for r in records]
        assert kinds == ["task_done", "task_done", "campaign_end"]
        assert all(r["cat"] == "exec" and r["node"] == -1 for r in records)
        done = records[:2]
        assert all(r["status"] == "ok" for r in done)
        assert all(r["events_executed"] > 0 for r in done)
        assert [r["seed"] for r in done] == [3, 4]
        assert records[-1]["ok"] == 2 and records[-1]["failed"] == 0
        assert footer["recorded"] == 3

    def test_run_log_written_without_progress(self, tmp_path):
        campaign = Campaign.from_configs("quiet", [tiny(seed=3)])
        CampaignExecutor(ExecPolicy(log_dir=tmp_path)).run(campaign)
        [log] = tmp_path.glob("quiet-*.jsonl")
        header, records, _ = load_trace(log)
        assert header["workers"] == 1 and "backend" not in header
        assert header["pid"] == os.getpid() and header["host"]
        assert header["start_time"] == pytest.approx(time.time(), abs=60)
        assert [r["ev"] for r in records] == ["task_done", "campaign_end"]
        assert trace_main(["validate", "--strict", str(log)]) == 0

    def test_unwritable_log_dir_does_not_fail_the_campaign(
        self, tmp_path, monkeypatch
    ):
        # A regular file where the cache dir should be: every mkdir under
        # it fails, for root too (a chmod'ed dir would not stop root).
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker))
        runs, _ = replicate(tiny(), n_runs=1)
        assert len(runs) == 1
        # Nor an explicit log dir the reporter cannot create.
        campaign = Campaign.from_configs("unlogged", [tiny(seed=4)])
        result = CampaignExecutor(ExecPolicy(log_dir=blocker / "runs")).run(
            campaign
        )
        assert result.ok == 1

    def test_final_status_line_printed_once(self, tmp_path):
        import io

        from repro.exec import ProgressReporter

        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, min_interval_s=0.0)
        campaign = Campaign.from_configs("once", [tiny(seed=3), tiny(seed=4)])
        CampaignExecutor(ExecPolicy(log_dir=tmp_path), reporter=reporter).run(
            campaign
        )
        lines = stream.getvalue().splitlines()
        assert [ln.split(" | ")[0] for ln in lines] == [
            "[once] 1/2 done", "[once] 2/2 done",
        ]
