"""Design-space exploration over NLR protocol parameters.

Public surface:

* :mod:`repro.dse.space` — typed :class:`ParameterSpace` (continuous /
  integer / categorical dimensions) bound declaratively onto
  :class:`~repro.experiments.scenario.ScenarioConfig` fields;
* :mod:`repro.dse.design` — full-factorial and Latin-hypercube builders;
* :mod:`repro.dse.screen` — factorial / Latin-hypercube screening, the
  one way this package explores a space; every design point runs as
  content-hashed :mod:`repro.exec` cells;
* :mod:`repro.dse.state` — the :class:`SearchState` a screening returns,
  its ``state.json`` writer and :func:`load_state`;
* :mod:`repro.dse.objectives` — objectives, weighted scoring, Pareto
  fronts (multi-criteria decision support);
* :mod:`repro.dse.report` — tables / CSV / ASCII scatter of a state;
* :mod:`repro.dse.cli` — the ``repro-dse`` entry point.

See ``docs/DSE.md`` for the space JSON schema and the reproducibility
guarantees (deterministic seeds; a killed screening, re-run, reproduces
the uninterrupted population hash).
"""

from repro.dse.design import full_factorial, latin_hypercube
from repro.dse.evaluate import Evaluator, PointEval
from repro.dse.objectives import (
    DEFAULT_OBJECTIVES,
    Objective,
    aggregate_objectives,
    parse_objective,
    pareto_front,
    weighted_score,
)
from repro.dse.report import ascii_scatter, pareto_table, to_csv
from repro.dse.screen import ScreenSettings, run_screening
from repro.dse.space import (
    CategoricalDim,
    ContinuousDim,
    IntegerDim,
    ParameterSpace,
    point_key,
    seeded_rng,
)
from repro.dse.state import SearchState, load_state, population_hash

__all__ = [
    "CategoricalDim",
    "ContinuousDim",
    "DEFAULT_OBJECTIVES",
    "Evaluator",
    "IntegerDim",
    "Objective",
    "ParameterSpace",
    "PointEval",
    "ScreenSettings",
    "SearchState",
    "aggregate_objectives",
    "ascii_scatter",
    "full_factorial",
    "latin_hypercube",
    "load_state",
    "pareto_front",
    "pareto_table",
    "parse_objective",
    "point_key",
    "population_hash",
    "run_screening",
    "seeded_rng",
    "to_csv",
    "weighted_score",
]
