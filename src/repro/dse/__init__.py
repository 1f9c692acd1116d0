"""Design-space exploration over NLR protocol parameters.

Public surface:

* :mod:`repro.dse.space` — typed :class:`ParameterSpace` (continuous /
  integer / categorical dimensions) bound declaratively onto
  :class:`~repro.experiments.scenario.ScenarioConfig` fields;
* :mod:`repro.dse.design` — full-factorial and Latin-hypercube builders;
* :mod:`repro.dse.evolve` — seeded, resumable evolutionary search whose
  evaluations run as content-hashed :mod:`repro.exec` cells;
* :mod:`repro.dse.screen` — design screening with surrogate pruning;
* :mod:`repro.dse.state` — the one :class:`SearchState` both return,
  its ``state.json`` writer and :func:`load_state`;
* :mod:`repro.dse.surrogate` — numpy polynomial-ridge surrogate;
* :mod:`repro.dse.objectives` — objectives, weighted scoring, Pareto
  fronts (multi-criteria decision support);
* :mod:`repro.dse.report` — tables / CSV / ASCII scatter of a state;
* :mod:`repro.dse.cli` — the ``repro-dse`` entry point.

See ``docs/DSE.md`` for the space JSON schema and the reproducibility
guarantees (deterministic seeds, kill-and-resume byte-identity, audited
surrogate pruning).
"""

from repro.dse.design import full_factorial, latin_hypercube
from repro.dse.evaluate import Evaluator, PointEval
from repro.dse.evolve import EvolutionarySearch, SearchSettings
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
from repro.dse.state import (
    GenerationRecord,
    SearchState,
    load_state,
    population_hash,
)
from repro.dse.surrogate import PruneDecision, RidgeSurrogate, prune_candidates

__all__ = [
    "CategoricalDim",
    "ContinuousDim",
    "DEFAULT_OBJECTIVES",
    "Evaluator",
    "EvolutionarySearch",
    "GenerationRecord",
    "IntegerDim",
    "Objective",
    "ParameterSpace",
    "PointEval",
    "PruneDecision",
    "RidgeSurrogate",
    "ScreenSettings",
    "SearchSettings",
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
    "prune_candidates",
    "run_screening",
    "seeded_rng",
    "to_csv",
    "weighted_score",
]
