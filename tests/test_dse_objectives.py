"""Objectives, weighted scoring, Pareto fronts and metric extraction."""

from __future__ import annotations

import math

import pytest

from repro.dse import Objective, pareto_front, parse_objective, weighted_score
from repro.dse.objectives import aggregate_objectives, extract_value


class TestObjectives:
    def test_parse(self):
        obj = parse_objective("mean_delay_s:min:2:0.1")
        assert obj == Objective("mean_delay_s", "min", weight=2.0, scale=0.1)
        assert parse_objective("pdr:max").weight == 1.0
        with pytest.raises(ValueError, match="not key:goal"):
            parse_objective("pdr")
        with pytest.raises(ValueError, match="goal"):
            parse_objective("pdr:upwards")
        with pytest.raises(ValueError, match="weight"):
            Objective("pdr", "max", weight=-1.0)
        with pytest.raises(ValueError, match="scale"):
            Objective("pdr", "max", scale=0.0)

    @pytest.mark.parametrize(
        "spec", ["pdr:max:nan", "pdr:max:inf", "pdr:max:1:inf", "pdr:max:1:nan"]
    )
    def test_non_finite_weight_or_scale_rejected(self, spec):
        # Each would make every weighted score NaN, inf or 0.
        with pytest.raises(ValueError, match="must be finite"):
            parse_objective(spec)

    def test_weighted_score_direction_and_poison(self):
        objs = [Objective("pdr", "max"), Objective("mean_delay_s", "min", scale=0.1)]
        good = weighted_score({"pdr": 0.9, "mean_delay_s": 0.05}, objs)
        slow = weighted_score({"pdr": 0.9, "mean_delay_s": 0.20}, objs)
        assert good > slow
        poisoned = weighted_score({"pdr": 0.9, "mean_delay_s": math.nan}, objs)
        assert poisoned == -math.inf

    def test_pareto_front(self):
        objs = [Objective("pdr", "max"), Objective("mean_delay_s", "min")]
        rows = [
            {"pdr": 0.9, "mean_delay_s": 0.10},  # front
            {"pdr": 0.8, "mean_delay_s": 0.05},  # front (faster)
            {"pdr": 0.8, "mean_delay_s": 0.20},  # dominated by both
            {"pdr": 0.9, "mean_delay_s": 0.10},  # duplicate of 0 — stays
        ]
        assert pareto_front(rows, objs) == [0, 1, 3]

    def test_pareto_nan_rows_dominated(self):
        objs = [Objective("pdr", "max"), Objective("mean_delay_s", "min")]
        rows = [
            {"pdr": 0.5, "mean_delay_s": 0.2},
            {"pdr": math.nan, "mean_delay_s": 0.1},
        ]
        assert pareto_front(rows, objs) == [0]

    def test_single_objective_front_is_argmax(self):
        objs = [Objective("pdr", "max")]
        rows = [{"pdr": v} for v in (0.2, 0.9, 0.5, 0.9)]
        assert pareto_front(rows, objs) == [1, 3]


class TestExtraction:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.runner import run_scenario
        from repro.experiments.scenario import ScenarioConfig

        cfg = ScenarioConfig(
            protocol="nlr", grid_nx=3, grid_ny=3, n_flows=2,
            sim_time_s=6.0, warmup_s=1.0, seed=3,
        )
        return run_scenario(cfg)

    def test_extracts_scalar_total_and_snapshot(self, result):
        assert 0.0 <= extract_value(result, "pdr") <= 1.0
        assert extract_value(result, "hello_tx") >= 0.0
        with pytest.raises(KeyError, match="not found"):
            extract_value(result, "no_such_metric")

    def test_aggregate_means_across_seeds(self, result):
        objs = [Objective("pdr", "max")]
        agg = aggregate_objectives([result, result], objs)
        assert agg == {"pdr": extract_value(result, "pdr")}

    def test_resilience_keys_resolve_up_front_only_under_a_fault_plan(self):
        from dataclasses import replace

        from repro.dse.evaluate import _check_objectives
        from repro.experiments.scenario import ScenarioConfig

        base = ScenarioConfig(protocol="nlr", grid_nx=3, grid_ny=3, n_flows=2)
        objs = [Objective("resilience_faults", "min"), Objective("pdr", "max")]
        with pytest.raises(KeyError, match="resilience_faults"):
            _check_objectives(base, objs)
        faulted = replace(base, fault_spec={
            "kind": "poisson_crashes", "rate_per_s": 0.5, "mttr_s": 1.0,
        })
        _check_objectives(faulted, objs)
