"""Ridge surrogate, prune auditing, and multi-criteria decision support."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.dse import (
    ContinuousDim,
    Objective,
    ParameterSpace,
    PruneDecision,
    RidgeSurrogate,
    pareto_front,
    parse_objective,
    prune_candidates,
    seeded_rng,
    weighted_score,
)
from repro.dse.objectives import aggregate_objectives, extract_value


def quad_space() -> ParameterSpace:
    return ParameterSpace(
        "q",
        [
            ContinuousDim("x", "nlr.gamma", 0.0, 1.0),
            ContinuousDim("y", "nlr.queue_weight", 0.0, 1.0),
        ],
    )


class TestRidgeSurrogate:
    def test_recovers_quadratic(self):
        # Degree-2 features span the target exactly; ridge ≈ interpolation.
        space = quad_space()
        rng = seeded_rng(11, 0, 0)
        pts = [space.random_point(rng) for _ in range(60)]
        f = lambda p: 2.0 - (p["x"] - 0.3) ** 2 - 0.5 * p["x"] * p["y"]
        model = RidgeSurrogate(space, ridge=1e-8).fit(pts, [f(p) for p in pts])
        test = [space.random_point(rng) for _ in range(20)]
        preds = model.predict(test)
        truth = np.array([f(p) for p in test])
        assert np.allclose(preds, truth, atol=1e-3)

    def test_fit_is_deterministic(self):
        space = quad_space()
        rng = seeded_rng(12, 0, 0)
        pts = [space.random_point(rng) for _ in range(10)]
        ys = [p["x"] for p in pts]
        a = RidgeSurrogate(space).fit(pts, ys).predict(pts)
        b = RidgeSurrogate(space).fit(pts, ys).predict(pts)
        assert np.array_equal(a, b)

    def test_neg_inf_fitness_clamped(self):
        space = quad_space()
        pts = [{"x": 0.1, "y": 0.1}, {"x": 0.9, "y": 0.9}, {"x": 0.5, "y": 0.5}]
        model = RidgeSurrogate(space).fit(pts, [1.0, -math.inf, 2.0])
        assert np.all(np.isfinite(model.predict(pts)))

    def test_validation(self):
        space = quad_space()
        with pytest.raises(ValueError, match="degree"):
            RidgeSurrogate(space, degree=3)
        with pytest.raises(ValueError, match="ridge"):
            RidgeSurrogate(space, ridge=0.0)
        with pytest.raises(ValueError, match="training pairs"):
            RidgeSurrogate(space).fit([{"x": 0.1, "y": 0.1}], [1.0])
        with pytest.raises(RuntimeError, match="not fitted"):
            RidgeSurrogate(space).predict([{"x": 0.1, "y": 0.1}])


class TestPruning:
    def fitted(self) -> tuple[ParameterSpace, RidgeSurrogate]:
        space = quad_space()
        rng = seeded_rng(13, 0, 0)
        pts = [space.random_point(rng) for _ in range(30)]
        model = RidgeSurrogate(space).fit(pts, [p["x"] for p in pts])
        return space, model

    def test_prune_invariant_and_order(self):
        space, model = self.fitted()
        rng = seeded_rng(14, 0, 0)
        cands = [space.random_point(rng) for _ in range(20)]
        kept, decisions = prune_candidates(model, cands, 0.25)
        assert len(decisions) == len(cands)
        # Invariant: pruned iff predicted strictly below threshold.
        for d in decisions:
            assert d.pruned == (d.predicted < d.threshold)
        assert kept == [c for c, d in zip(cands, decisions) if not d.pruned]
        assert 0 < len(kept) < len(cands)

    def test_quantile_zero_keeps_everything(self):
        space, model = self.fitted()
        rng = seeded_rng(15, 0, 0)
        cands = [space.random_point(rng) for _ in range(10)]
        kept, decisions = prune_candidates(model, cands, 0.0)
        assert kept == cands
        assert not any(d.pruned for d in decisions)

    def test_ties_survive(self):
        space, model = self.fitted()
        cands = [{"x": 0.4, "y": 0.6}] * 6  # identical predictions
        kept, _ = prune_candidates(model, cands, 0.5)
        assert len(kept) == 6

    def test_empty_and_bad_quantile(self):
        space, model = self.fitted()
        assert prune_candidates(model, [], 0.3) == ([], [])
        with pytest.raises(ValueError, match="quantile"):
            prune_candidates(model, [{"x": 0.1, "y": 0.1}], 1.0)

    def test_decision_serialises(self):
        d = PruneDecision({"x": 0.5}, 1.25, 1.5, True)
        assert d.to_dict() == {
            "point": {"x": 0.5}, "predicted": 1.25,
            "threshold": 1.5, "pruned": True,
        }


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
