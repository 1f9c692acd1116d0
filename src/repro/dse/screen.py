"""Design screening: factorial / Latin-hypercube sweeps.

Screening is how :mod:`repro.dse` explores a space, and every design cell
is simulated.  The Latin-hypercube draw is keyed on the seed alone,
evaluations are content-hashed exec cells with forced checkpoint resume,
and the returned :class:`~repro.dse.state.SearchState` (written to
``<out>/state.json``) records design size and outcomes, so a screening is
byte-reproducible and kill-safe: re-run the same screening and every
finished cell loads from its checkpoint.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from repro.dse.design import full_factorial, latin_hypercube
from repro.dse.evaluate import Evaluator
from repro.dse.objectives import Objective
from repro.dse.space import ParameterSpace, seeded_rng
from repro.dse.state import SearchState
from repro.exec.policy import ExecPolicy
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.serialization import config_to_dict

__all__ = ["ScreenSettings", "run_screening"]

# RNG stage key for the Latin-hypercube draw.
_STAGE_LHS = 2


@dataclass(frozen=True, slots=True)
class ScreenSettings:
    """Screening knobs.

    ``levels`` drives a full factorial design; set ``lhs_n`` > 0 to use an
    ``lhs_n``-point Latin hypercube instead.
    """

    levels: int = 3
    lhs_n: int = 0
    seed: int = 1
    n_seeds: int = 1

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError(f"levels must be ≥ 1, got {self.levels}")
        if self.lhs_n < 0:
            raise ValueError(f"lhs_n must be ≥ 0, got {self.lhs_n}")
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be ≥ 1, got {self.n_seeds}")


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
            space, settings.lhs_n, seeded_rng(settings.seed, _STAGE_LHS, 1)
        )
    else:
        design = full_factorial(space, settings.levels)
    design = [space.validate_point(p) for p in design]
    evaluator.evaluate(design, "screen-full")

    state = SearchState(
        space=space,
        objectives=objectives,
        settings=asdict(settings),
        base_config=config_to_dict(base),
        design_size=len(design),
        archive=evaluator.archive,
        simulations_run=evaluator.simulations_run,
    )
    if out_dir is not None:
        state.write(out_dir)
    return state
