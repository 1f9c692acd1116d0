"""Parameter spaces, dimensions, designs, and config binding."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.dse import (
    CategoricalDim,
    ContinuousDim,
    IntegerDim,
    ParameterSpace,
    full_factorial,
    latin_hypercube,
    point_key,
    seeded_rng,
)
from repro.dse.cli import EXAMPLE_SPACE
from repro.experiments.scenario import ScenarioConfig


def small_space() -> ParameterSpace:
    return ParameterSpace(
        "t",
        [
            ContinuousDim("gamma", "nlr.gamma", 0.0, 1.0),
            IntegerDim("rerr", "aodv.rerr_rate_limit_per_s", 0, 20),
            CategoricalDim("traffic", "traffic", ("cbr", "poisson")),
        ],
    )


class TestDimensions:
    def test_continuous_bounds_validated(self):
        with pytest.raises(ValueError, match="low < high"):
            ContinuousDim("x", "nlr.gamma", 1.0, 0.0)
        with pytest.raises(ValueError, match="low < high"):
            ContinuousDim("x", "nlr.gamma", 0.0, float("inf"))

    def test_integer_bounds_validated(self):
        with pytest.raises(ValueError, match="integer low < high"):
            IntegerDim("x", "f", 5, 5)

    def test_categorical_needs_two_distinct_choices(self):
        with pytest.raises(ValueError, match="≥ 2 choices"):
            CategoricalDim("x", "f", ("only",))
        with pytest.raises(ValueError, match="duplicate"):
            CategoricalDim("x", "f", ("a", "a"))

    def test_clip(self):
        assert ContinuousDim("x", "f", 0.0, 1.0).clip(7.3) == 1.0
        assert IntegerDim("x", "f", 0, 10).clip(3.7) == 4
        with pytest.raises(ValueError, match="not among"):
            CategoricalDim("x", "f", ("a", "b")).clip("c")

    def test_levels(self):
        assert ContinuousDim("x", "f", 0.0, 1.0).levels(3) == [0.0, 0.5, 1.0]
        assert IntegerDim("x", "f", 0, 2).levels(5) == [0, 1, 2]
        assert CategoricalDim("x", "f", ("a", "b")).levels(99) == ["a", "b"]

    def test_single_level_is_the_midpoint(self):
        assert ContinuousDim("c", "f", 0.0, 1.0).levels(1) == [0.5]
        assert IntegerDim("r", "x", 2, 20).levels(1) == [11]
        assert IntegerDim("r", "x", 2, 20).levels(3) == [2, 11, 20]


class TestParameterSpace:
    def test_rejects_duplicates_and_empty(self):
        d = ContinuousDim("x", "nlr.gamma", 0.0, 1.0)
        with pytest.raises(ValueError, match="no dimensions"):
            ParameterSpace("s", [])
        with pytest.raises(ValueError, match="duplicate dimension"):
            ParameterSpace("s", [d, ContinuousDim("x", "nlr.p_min", 0.1, 1.0)])
        with pytest.raises(ValueError, match="same field"):
            ParameterSpace("s", [d, ContinuousDim("y", "nlr.gamma", 0.0, 1.0)])

    def test_json_round_trip(self):
        space = small_space()
        again = ParameterSpace.from_dict(
            json.loads(json.dumps(space.to_dict()))
        )
        assert again.to_dict() == space.to_dict()

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown space keys"):
            ParameterSpace.from_dict({"name": "s", "dimensions": [], "bogus": 1})
        with pytest.raises(ValueError, match="unknown type"):
            ParameterSpace.from_dict(
                {"name": "s", "dimensions": [{"name": "x", "field": "f",
                                             "type": "complex"}]}
            )

    def test_example_space_parses(self):
        space = ParameterSpace.from_dict(EXAMPLE_SPACE)
        assert len(space) == 6

    def test_validate_point_checks_membership(self):
        space = small_space()
        good = {"gamma": 0.5, "rerr": 3, "traffic": "cbr"}
        assert space.validate_point(good) == good
        with pytest.raises(ValueError, match="unknown dimensions"):
            space.validate_point({**good, "extra": 1})
        with pytest.raises(ValueError, match="missing dimensions"):
            space.validate_point({"gamma": 0.5})

    def test_bind_produces_validated_config(self):
        space = small_space()
        base = ScenarioConfig(protocol="nlr", seed=3)
        cfg = space.bind(base, {"gamma": 0.25, "rerr": 7, "traffic": "poisson"})
        assert cfg.nlr.gamma == 0.25
        assert cfg.aodv.rerr_rate_limit_per_s == 7
        assert cfg.traffic == "poisson"
        assert cfg.seed == 3
        # The base config is untouched.
        assert base.nlr.gamma != 0.25 or base.traffic == "cbr"

    def test_bind_rejects_bad_field_path(self):
        base = ScenarioConfig()
        space = ParameterSpace(
            "s",
            [ContinuousDim("x", "nlr.not_a_field", 0.0, 1.0),
             ContinuousDim("y", "nlr.gamma", 0.0, 1.0)],
        )
        with pytest.raises(ValueError, match="no field"):
            space.bind(base, {"x": 0.5, "y": 0.5})
        space2 = ParameterSpace(
            "s", [ContinuousDim("x", "nope.deep.path", 0.0, 1.0)]
        )
        with pytest.raises(ValueError, match="no nested section"):
            space2.bind(base, {"x": 0.5})

    def test_bind_runs_config_validation(self):
        # p_min bounds come from NlrConfig itself — a space declared wider
        # than the config's legal range cannot smuggle bad values through.
        space = ParameterSpace(
            "s", [ContinuousDim("p", "nlr.p_min", 0.0, 1.0)]
        )
        with pytest.raises(ValueError, match="p_min"):
            space.bind(ScenarioConfig(), {"p": 0.0})

    def test_point_key_is_order_insensitive(self):
        assert point_key({"a": 1, "b": 2.5}) == point_key({"b": 2.5, "a": 1})


class TestDesigns:
    def test_full_factorial_size_and_determinism(self):
        space = small_space()
        design = full_factorial(space, levels=3)
        # 3 continuous levels × 3 integer levels × 2 choices.
        assert len(design) == 3 * 3 * 2
        assert design == full_factorial(space, levels=3)
        keys = {point_key(p) for p in design}
        assert len(keys) == len(design)

    def test_latin_hypercube_stratification(self):
        space = small_space()
        n = 10
        design = latin_hypercube(space, n, seeded_rng(5, 9, 9))
        assert len(design) == n
        # One gamma sample per 1/n stratum.
        strata = sorted(int(p["gamma"] * n) for p in design)
        assert strata == list(range(n))
        # Categoricals balanced within one.
        counts = {c: sum(1 for p in design if p["traffic"] == c)
                  for c in ("cbr", "poisson")}
        assert abs(counts["cbr"] - counts["poisson"]) <= 1

    def test_latin_hypercube_deterministic_per_seed(self):
        space = small_space()
        a = latin_hypercube(space, 8, seeded_rng(7, 0, 0))
        b = latin_hypercube(space, 8, seeded_rng(7, 0, 0))
        c = latin_hypercube(space, 8, seeded_rng(8, 0, 0))
        assert a == b
        assert a != c

    def test_design_points_bind_cleanly(self):
        space = ParameterSpace.from_dict(EXAMPLE_SPACE)
        base = ScenarioConfig(protocol="nlr")
        for p in full_factorial(space, levels=2):
            space.bind(base, p)  # must not raise
