"""Design screening: factorial / Latin-hypercube sweeps with surrogate
pruning of predictably poor cells.

The flow mirrors response-surface practice: enumerate the design, simulate
a seeded training subset, fit the ridge surrogate on it, predict the rest,
and only simulate cells whose predicted fitness clears the configured
quantile of the remaining pool — everything below is *pruned*, logged, and
never simulated.  With the surrogate off, every design cell is simulated.

Determinism mirrors the evolutionary loop: the train-subset shuffle is
keyed on the seed alone, evaluations are content-hashed exec cells, and
the returned :class:`~repro.dse.state.SearchState` (written to
``<out>/state.json``) records design size, decisions, and outcomes as one
generation, so a screening is resumable and byte-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from repro.dse.design import full_factorial, latin_hypercube
from repro.dse.evaluate import Evaluator
from repro.dse.objectives import Objective
from repro.dse.space import ParameterSpace, seeded_rng
from repro.dse.state import GenerationRecord, SearchState
from repro.dse.surrogate import PruneDecision, RidgeSurrogate, prune_candidates
from repro.exec.policy import ExecPolicy
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.serialization import config_to_dict

__all__ = ["ScreenSettings", "run_screening"]

# RNG stage key for the train-subset shuffle (distinct from evolve's).
_STAGE_SHUFFLE = 2

#: Share of the design simulated to train the surrogate (see ScreenSettings).
TRAIN_FRACTION = 0.4


@dataclass(frozen=True, slots=True)
class ScreenSettings:
    """Screening knobs.

    ``levels`` drives a full factorial design; set ``lhs_n`` > 0 to use an
    ``lhs_n``-point Latin hypercube instead.  :data:`TRAIN_FRACTION` of
    the design (at least ``surrogate_min_train`` cells) is always
    simulated to fit the surrogate before any pruning happens.
    """

    levels: int = 3
    lhs_n: int = 0
    seed: int = 1
    n_seeds: int = 1
    surrogate: bool = True
    prune_quantile: float = 0.25
    surrogate_min_train: int = 8

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError(f"levels must be ≥ 1, got {self.levels}")
        if self.lhs_n < 0:
            raise ValueError(f"lhs_n must be ≥ 0, got {self.lhs_n}")
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be ≥ 1, got {self.n_seeds}")
        if not 0.0 <= self.prune_quantile < 1.0:
            raise ValueError("prune_quantile must be in [0, 1)")
        if self.surrogate_min_train < 2:
            raise ValueError("surrogate_min_train must be ≥ 2")


def run_screening(
    space: ParameterSpace,
    base: ScenarioConfig,
    settings: ScreenSettings = ScreenSettings(),
    objectives: Sequence[Objective] | None = None,
    out_dir: str | Path | None = None,
    policy: ExecPolicy | None = None,
) -> SearchState:
    """Screen a design over ``space`` anchored at ``base``; see module doc."""
    from repro.dse.objectives import DEFAULT_OBJECTIVES

    objectives = list(objectives if objectives is not None else DEFAULT_OBJECTIVES)
    evaluator = Evaluator(
        space,
        base,
        objectives,
        n_seeds=settings.n_seeds,
        policy=policy,
        campaign_prefix=f"dse-{space.name}",
    )

    if settings.lhs_n > 0:
        design = latin_hypercube(
            space, settings.lhs_n, seeded_rng(settings.seed, _STAGE_SHUFFLE, 1)
        )
    else:
        design = full_factorial(space, settings.levels)
    design = [space.validate_point(p) for p in design]

    prune_log: list[PruneDecision] = []
    if settings.surrogate and len(design) > settings.surrogate_min_train:
        order = seeded_rng(settings.seed, _STAGE_SHUFFLE, 0).permutation(
            len(design)
        )
        n_train = min(
            len(design),
            max(
                settings.surrogate_min_train,
                math.ceil(TRAIN_FRACTION * len(design)),
            ),
        )
        train = [design[int(i)] for i in order[:n_train]]
        rest = [design[int(i)] for i in order[n_train:]]
        train_evals = evaluator.evaluate(train, "screen-train")
        if rest:
            model = RidgeSurrogate(space).fit(
                [e.point for e in train_evals],
                [e.fitness for e in train_evals],
            )
            kept, prune_log = prune_candidates(
                model, rest, settings.prune_quantile
            )
            evaluator.evaluate(kept, "screen-rest")
    else:
        evaluator.evaluate(design, "screen-full")

    state = SearchState(
        kind="screen",
        space=space,
        objectives=objectives,
        settings=asdict(settings),
        base_config=config_to_dict(base),
        generations=[GenerationRecord(0, evaluator.archive, prune_log)],
        design_size=len(design),
        simulations_run=evaluator.simulations_run,
    )
    if out_dir is not None:
        state.write(out_dir)
    return state
