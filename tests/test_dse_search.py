"""Screening: determinism, kill-and-re-run, parallelism, the state file.

These are the acceptance tests for the DSE reproducibility guarantees:

* a fixed-seed Latin-hypercube screening is deterministic across fresh
  runs, and its population hash is pinned;
* ``workers=2`` produces the same bytes as serial execution;
* re-running a killed screening (state file and some cell checkpoints
  lost) reproduces the uninterrupted hash and simulates only the lost
  cells;
* a screening simulates every distinct cell it designs, once.

The base scenario is deliberately tiny (3×3 grid, 6 simulated seconds,
~60 ms per cell) so dozens of real simulations stay cheap.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.dse import (
    ContinuousDim,
    IntegerDim,
    ParameterSpace,
    ScreenSettings,
    load_state,
    population_hash,
    run_screening,
)
from repro.exec.policy import ExecPolicy
from repro.experiments.scenario import ScenarioConfig

#: Pool workers keep the environment they were forked with, and these
#: tests set ``REPRO_*`` variables per test: fork a fresh pool each time.
pytestmark = pytest.mark.usefixtures("fresh_shared_pool")


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    yield tmp_path


def tiny_base() -> ScenarioConfig:
    return ScenarioConfig(
        protocol="nlr", grid_nx=3, grid_ny=3, n_flows=2,
        sim_time_s=6.0, warmup_s=1.0, seed=3,
    )


def tiny_space() -> ParameterSpace:
    return ParameterSpace(
        "tiny",
        [
            ContinuousDim("gamma", "nlr.gamma", 0.0, 1.0),
            ContinuousDim("p_min", "nlr.p_min", 0.1, 0.8),
            IntegerDim("rerr", "aodv.rerr_rate_limit_per_s", 2, 20),
        ],
    )


def run_lhs(out_dir: Path | None = None, policy=None, seed: int = 5):
    return run_screening(
        tiny_space(), tiny_base(), ScreenSettings(lhs_n=8, seed=seed),
        out_dir=out_dir, policy=policy,
    )


class TestDeterminism:
    def test_final_population_hash_is_pinned(self, isolated_cache):
        # The Latin-hypercube draw is keyed on (seed, stage, 1) and every
        # cell is simulated; a change to the design stream, the dedupe or
        # the simulation shows up here.
        assert run_lhs().final_population_hash == (
            "f63455f54ce34a9cf70917045e9ec983ceeb3262755ef9d341a96d9345be3c22"
        )

    def test_fresh_runs_byte_identical(self, tmp_path, monkeypatch):
        hashes = []
        for d in ("a", "b"):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / d))
            hashes.append(run_lhs().final_population_hash)
        assert hashes[0] == hashes[1]

    def test_different_seed_differs(self, isolated_cache):
        a = run_lhs()
        b = run_lhs(seed=6)
        assert a.final_population_hash != b.final_population_hash

    def test_workers_two_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        serial = run_lhs()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "par"))
        parallel = run_lhs(policy=ExecPolicy(workers=2))
        assert parallel.final_population_hash == serial.final_population_hash

    def test_result_views(self, isolated_cache):
        res = run_lhs()
        assert res.simulations_run == 8
        assert res.best in res.archive
        front = res.pareto()
        assert front and set(map(id, front)) <= set(map(id, res.archive))
        assert res.design_size == len(res.archive) == 8


class TestStateFile:
    """A run returns exactly the state ``load_state`` reads back."""

    def test_screening_returns_what_it_wrote(self, isolated_cache, tmp_path):
        out = tmp_path / "screen"
        res = run_screening(
            tiny_space(), tiny_base(), ScreenSettings(levels=3, seed=5),
            out_dir=out,
        )
        loaded = load_state(out)
        assert loaded == res
        assert loaded.simulations_run == 0 < res.simulations_run
        assert res.design_size == 27 and len(res.archive) == 27
        assert res.final_population_hash == population_hash(res.archive)

    def test_load_rejects_an_evolve_state(self, isolated_cache, tmp_path):
        out = tmp_path / "screen"
        run_screening(
            tiny_space(), tiny_base(), ScreenSettings(levels=1), out_dir=out
        )
        path = out / "state.json"
        data = json.loads(path.read_text())
        data["kind"] = "evolve"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="not a screening state"):
            load_state(out)


class TestResume:
    def test_kill_mid_screening_rerun(self, isolated_cache, tmp_path):
        out = tmp_path / "run"
        straight = run_lhs(out_dir=out)

        # Emulate a kill before the screening finished: no state file yet,
        # and some of the in-flight cells' checkpoints are missing.
        (out / "state.json").unlink()
        cells = sorted((tmp_path / "cache" / "cells").glob("*.json"))
        assert len(cells) == 8, "expected one checkpoint per cell"
        lost = cells[::3]
        for ckpt in lost:
            ckpt.unlink()

        rerun = run_lhs(out_dir=out)
        assert rerun.final_population_hash == straight.final_population_hash
        assert rerun.simulations_run == len(lost)
        assert load_state(out) == straight

    def test_fully_recorded_resume_runs_nothing(self, isolated_cache, tmp_path):
        out = tmp_path / "run"
        straight = run_lhs(out_dir=out)
        rerun = run_lhs(out_dir=out)
        assert rerun.simulations_run == 0
        assert rerun.final_population_hash == straight.final_population_hash


class TestScreening:
    def space2(self) -> ParameterSpace:
        return ParameterSpace(
            "screen2",
            [
                ContinuousDim("gamma", "nlr.gamma", 0.0, 1.0),
                ContinuousDim("qw", "nlr.queue_weight", 0.0, 1.0),
            ],
        )

    def test_lhs_screening_simulates_every_cell(self, isolated_cache):
        res = run_screening(
            self.space2(), tiny_base(), ScreenSettings(lhs_n=10, seed=5)
        )
        assert res.design_size == 10
        assert len({e.key for e in res.archive}) == 10
        assert res.simulations_run == 10

    def test_lhs_wider_than_an_integer_range_dedupes(self, isolated_cache):
        # Ten strata over four integer values: the design repeats points,
        # and each distinct point is simulated once.
        space = ParameterSpace(
            "ints", [IntegerDim("rerr", "aodv.rerr_rate_limit_per_s", 2, 5)]
        )
        res = run_screening(
            space, tiny_base(), ScreenSettings(lhs_n=10, seed=5)
        )
        assert res.design_size == 10
        assert sorted(e.point["rerr"] for e in res.archive) == [2, 3, 4, 5]
        assert res.simulations_run == 4

    def test_screening_writes_state(self, isolated_cache, tmp_path):
        out = tmp_path / "screen"
        res = run_screening(
            self.space2(), tiny_base(),
            ScreenSettings(levels=3), out_dir=out,
        )
        state = json.loads((out / "state.json").read_text())
        assert state["kind"] == "screen"
        assert state["design_size"] == 9
        assert len(state["generations"]) == 1
        assert len(state["generations"][0]["population"]) == len(res.archive)
