"""Evolutionary search + screening: determinism, resume, parallelism.

These are the acceptance tests for the DSE reproducibility guarantees:

* a fixed-seed search is deterministic across fresh runs;
* killing a search mid-generation and resuming yields a byte-identical
  final population (``population_hash``), including when some cell
  checkpoints were lost;
* ``workers=2`` produces the same bytes as serial execution;
* surrogate pruning is fully audited (pruned ⇔ predicted < threshold,
  pruned candidates are never simulated) and does not change the
  reported best on a screened design.

The base scenario is deliberately tiny (3×3 grid, 6 simulated seconds,
~60 ms per cell) so dozens of real simulations stay cheap.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.dse import (
    ContinuousDim,
    EvolutionarySearch,
    IntegerDim,
    ParameterSpace,
    ScreenSettings,
    SearchSettings,
    load_state,
    point_key,
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


def loaded_base() -> ScenarioConfig:
    # Enough offered load that different parameter points actually score
    # differently (the unloaded grid delivers everything everywhere).
    return ScenarioConfig(
        protocol="nlr", grid_nx=3, grid_ny=3, n_flows=4,
        flow_rate_pps=20.0, sim_time_s=6.0, warmup_s=1.0, seed=3,
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


def tiny_settings(**over) -> SearchSettings:
    kw = dict(
        population=6, generations=3, seed=5, elites=2,
        surrogate_min_train=6,
    )
    kw.update(over)
    return SearchSettings(**kw)


def run_search(out_dir: Path | None = None, resume: bool = False, **over):
    search = EvolutionarySearch(
        tiny_space(), tiny_base(), tiny_settings(**over), out_dir=out_dir
    )
    return search.run(resume=resume)


class TestDeterminism:
    def test_fresh_runs_byte_identical(self, tmp_path, monkeypatch):
        hashes = []
        for d in ("a", "b"):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / d))
            hashes.append(run_search().final_population_hash)
        assert hashes[0] == hashes[1]

    def test_different_seed_differs(self, isolated_cache):
        a = run_search()
        b = run_search(seed=6)
        assert a.final_population_hash != b.final_population_hash

    def test_workers_two_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        serial = run_search()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "par"))
        search = EvolutionarySearch(
            tiny_space(), tiny_base(), tiny_settings(),
            policy=ExecPolicy(workers=2),
        )
        parallel = search.run()
        assert parallel.final_population_hash == serial.final_population_hash

    def test_result_views(self, isolated_cache):
        res = run_search()
        assert res.simulations_run > 0
        assert res.best in res.archive
        front = res.pareto()
        assert front and set(map(id, front)) <= set(map(id, res.archive))
        assert len(res.generations[-1].population) == 6


class TestStateFile:
    """A run returns exactly the state ``load_state`` reads back."""

    def test_search_returns_what_it_wrote(self, isolated_cache, tmp_path):
        res = run_search(out_dir=tmp_path / "run", prune_quantile=0.4)
        loaded = load_state(tmp_path / "run")
        assert loaded == res
        assert loaded.simulations_run == 0 < res.simulations_run
        assert loaded.final_population_hash == res.final_population_hash
        assert loaded.best == res.best and loaded.pareto() == res.pareto()
        assert loaded.evaluations_pruned == res.evaluations_pruned > 0

    def test_screening_returns_what_it_wrote(self, isolated_cache, tmp_path):
        out = tmp_path / "screen"
        res = run_screening(
            tiny_space(), tiny_base(), ScreenSettings(levels=3, seed=5),
            out_dir=out,
        )
        loaded = load_state(out)
        assert loaded == res
        assert res.design_size == 27 and res.evaluations_pruned > 0
        # One generation: its population is the archive.
        assert res.final_population_hash == population_hash(res.archive)


class TestResume:
    def test_extend_resume_matches_straight_run(self, isolated_cache, tmp_path):
        straight = run_search(out_dir=tmp_path / "straight")
        short = run_search(out_dir=tmp_path / "resumed", generations=2)
        assert len(short.generations) == 2
        resumed = run_search(
            out_dir=tmp_path / "resumed", generations=3, resume=True
        )
        assert resumed.final_population_hash == straight.final_population_hash
        # Replayed generations never touch the executor again.
        assert resumed.simulations_run < straight.simulations_run

    def test_kill_mid_generation_resume(self, isolated_cache, tmp_path):
        out = tmp_path / "run"
        straight = run_search(out_dir=out)
        state_path = out / "state.json"
        state = json.loads(state_path.read_text())

        # Emulate a kill during generation 1: only generation 0 made it to
        # the state file, and some of the in-flight cells' checkpoints are
        # gone too.
        state["generations"] = state["generations"][:1]
        state_path.write_text(json.dumps(state))
        cells = sorted((tmp_path / "cache" / "cells").glob("*.json"))
        assert cells, "expected per-cell checkpoints on disk"
        for ckpt in cells[::3]:
            ckpt.unlink()

        resumed = run_search(out_dir=out, resume=True)
        assert resumed.final_population_hash == straight.final_population_hash
        assert [g.index for g in resumed.generations] == [0, 1, 2]

    def test_fully_recorded_resume_runs_nothing(self, isolated_cache, tmp_path):
        out = tmp_path / "run"
        straight = run_search(out_dir=out)
        resumed = run_search(out_dir=out, resume=True)
        assert resumed.simulations_run == 0
        assert resumed.final_population_hash == straight.final_population_hash

    def test_resume_rejects_redefined_search(self, isolated_cache, tmp_path):
        out = tmp_path / "run"
        run_search(out_dir=out, generations=1)
        with pytest.raises(ValueError, match="differs from the requested"):
            run_search(out_dir=out, resume=True, seed=99)

    def test_resume_without_state_starts_fresh(self, isolated_cache, tmp_path):
        res = run_search(out_dir=tmp_path / "new", resume=True)
        assert len(res.generations) == 3


class TestSurrogateInSearch:
    def test_prune_log_is_a_faithful_audit(self, isolated_cache, tmp_path):
        res = run_search(out_dir=tmp_path / "run", prune_quantile=0.4)
        logs = [d for g in res.generations for d in g.prune_log]
        assert logs, "surrogate should have been consulted after gen 0"
        for d in logs:
            assert d.pruned == (d.predicted < d.threshold) or not d.pruned
        # Pruned candidates were never simulated: they are absent from the
        # generation they were proposed for.
        for g in res.generations:
            pop_keys = {e.key for e in g.population}
            for d in g.prune_log:
                if d.pruned:
                    assert point_key(d.point) not in pop_keys
        assert res.evaluations_pruned == sum(1 for d in logs if d.pruned)

    def test_candidate_stream_invariant_to_surrogate(
        self, tmp_path, monkeypatch
    ):
        # With pruning off, every generation still draws the same stream —
        # generation 0 (pre-surrogate) must be identical either way.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "on"))
        on = run_search(out_dir=tmp_path / "s-on")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "off"))
        off = run_search(out_dir=tmp_path / "s-off", surrogate=False)
        assert [e.point for e in on.generations[0].population] == [
            e.point for e in off.generations[0].population
        ]
        assert off.evaluations_pruned == 0


class TestScreening:
    def space2(self) -> ParameterSpace:
        return ParameterSpace(
            "screen2",
            [
                ContinuousDim("gamma", "nlr.gamma", 0.0, 1.0),
                ContinuousDim("qw", "nlr.queue_weight", 0.0, 1.0),
            ],
        )

    def test_pruned_screening_same_best_as_full(self, tmp_path, monkeypatch):
        base = loaded_base()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "full"))
        full = run_screening(
            self.space2(), base, ScreenSettings(levels=4, surrogate=False)
        )
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pruned"))
        pruned = run_screening(
            self.space2(), base,
            ScreenSettings(levels=4, prune_quantile=0.25),
        )
        assert full.design_size == pruned.design_size == 16
        assert pruned.evaluations_pruned > 0
        assert len(pruned.archive) == 16 - pruned.evaluations_pruned
        # Pruning skipped only predictably poor cells; the winner and its
        # score are untouched.
        assert pruned.best.key == full.best.key
        assert pruned.best.fitness == full.best.fitness
        # Full run differentiates points (the loaded base matters).
        assert len({e.fitness for e in full.archive}) > 1

    def test_screening_writes_state(self, isolated_cache, tmp_path):
        out = tmp_path / "screen"
        res = run_screening(
            self.space2(), tiny_base(),
            ScreenSettings(levels=3, surrogate=False), out_dir=out,
        )
        state = json.loads((out / "state.json").read_text())
        assert state["kind"] == "screen"
        assert state["design_size"] == 9
        assert len(state["generations"][0]["population"]) == len(res.archive)
