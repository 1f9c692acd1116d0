"""Seeded, resumable evolutionary search over a parameter space.

The algorithm is a steady (μ+λ)-flavoured generational EA: tournament
selection, uniform crossover, Gaussian/creep/categorical mutation, and
elitism.  Three design rules make it deterministic and kill-safe:

1. **Keyed randomness.**  Every draw for generation *g* comes from a
   generator keyed on ``(seed, stage, g)`` — no RNG state is carried
   across generations, so a resumed run reconstructs the exact stream for
   any generation from scratch.

2. **Evaluations are exec cells.**  All simulations go through the
   :class:`~repro.dse.evaluate.Evaluator`, i.e. content-hashed cells with
   per-cell checkpoints and forced resume.  Killing the process mid-
   generation loses at most in-flight cells; a resumed search replays the
   partial generation with completed cells served from checkpoints.

3. **Generation state is persisted.**  After each generation the complete
   :class:`~repro.dse.state.SearchState` (space, settings, objectives, base
   config, per-generation populations) is written atomically to
   ``<out>/state.json``.  Resume replays recorded generations from the
   file (exact floats — JSON round-trips shortest reprs) and continues,
   so an interrupted and a straight-through run end with byte-identical
   populations — compare ``final_population_hash``.

Every child a generation breeds is simulated.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.dse.evaluate import Evaluator, PointEval
from repro.dse.design import latin_hypercube
from repro.dse.objectives import Objective
from repro.dse.space import ParameterSpace, Point, seeded_rng
from repro.dse.state import GenerationRecord, SearchState, load_state
from repro.exec.policy import ExecPolicy
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.serialization import config_to_dict

__all__ = ["SearchSettings", "EvolutionarySearch"]

# RNG stage keys (never reuse a stage for two purposes).
_STAGE_INIT = 0
_STAGE_BREED = 1

#: Breeding constants: tournament size, per-dimension mutation probability,
#: mutation step (fraction of a dimension's range) and crossover probability.
TOURNAMENT_K = 3
MUTATION_RATE = 0.35
MUTATION_SIGMA = 0.15
CROSSOVER_RATE = 0.6


@dataclass(frozen=True, slots=True)
class SearchSettings:
    """Evolutionary-search knobs (all deterministic given ``seed``)."""

    population: int = 12
    generations: int = 6
    seed: int = 1
    n_seeds: int = 1
    elites: int = 2

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError(f"population must be ≥ 2, got {self.population}")
        if self.generations < 1:
            raise ValueError(f"generations must be ≥ 1, got {self.generations}")
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be ≥ 1, got {self.n_seeds}")
        if not 0 <= self.elites < self.population:
            raise ValueError(
                f"elites must be in [0, population), got {self.elites}"
            )


class EvolutionarySearch:
    """Drives the generational loop; see module docstring for guarantees."""

    def __init__(
        self,
        space: ParameterSpace,
        base: ScenarioConfig,
        settings: SearchSettings = SearchSettings(),
        objectives: Sequence[Objective] | None = None,
        out_dir: str | Path | None = None,
        policy: ExecPolicy | None = None,
    ) -> None:
        from repro.dse.objectives import DEFAULT_OBJECTIVES

        self.space = space
        self.base = base
        self.settings = settings
        self.objectives = list(
            objectives if objectives is not None else DEFAULT_OBJECTIVES
        )
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.evaluator = Evaluator(
            space,
            base,
            self.objectives,
            n_seeds=settings.n_seeds,
            policy=policy,
            campaign_prefix=f"dse-{space.name}",
        )

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #
    def run(self, resume: bool = False) -> SearchState:
        s = self.settings
        state = SearchState(
            kind="evolve",
            space=self.space,
            objectives=self.objectives,
            settings=asdict(s),
            base_config=config_to_dict(self.base),
        )
        if resume:
            state.generations = self._recorded(state)[: s.generations]
            for g in state.generations:
                self.evaluator.absorb(g.population)

        for g in range(len(state.generations), s.generations):
            points = self._propose(g, state.generations)
            evals = self.evaluator.evaluate(points, f"gen{g}", generation=g)
            state.generations.append(GenerationRecord(g, evals))
            if self.out_dir is not None:
                state.write(self.out_dir)

        state.simulations_run = self.evaluator.simulations_run
        return state

    def _recorded(self, requested: SearchState) -> list[GenerationRecord]:
        """Recorded generations from a prior run of *this exact* search."""
        path = self.out_dir / "state.json" if self.out_dir else None
        if path is None or not path.exists():
            return []
        recorded = load_state(path)
        if recorded.kind != "evolve":
            raise ValueError(f"{path}: not an evolve state file")
        if json.dumps(_identity(requested), sort_keys=True) != json.dumps(
            _identity(recorded), sort_keys=True
        ):
            raise ValueError(
                f"{path}: recorded search differs from the requested one "
                "(space/settings/objectives/base config mismatch) — resume "
                "must use the same definition, or use a fresh --out dir"
            )
        return recorded.generations

    # ------------------------------------------------------------------ #
    def _propose(
        self, g: int, generations: list[GenerationRecord]
    ) -> list[Point]:
        """The generation-``g`` population (deterministic in ``g``)."""
        s = self.settings
        if g == 0:
            rng = seeded_rng(s.seed, _STAGE_INIT, 0)
            return latin_hypercube(self.space, s.population, rng)

        rng = seeded_rng(s.seed, _STAGE_BREED, g)
        prev = generations[g - 1].population
        ranked = sorted(prev, key=lambda e: (-e.fitness, e.key))
        elites = [dict(e.point) for e in ranked[: s.elites]]
        children: list[Point] = []
        for _ in range(s.population - len(elites)):
            parent = self._tournament(prev, rng)
            if rng.random() < CROSSOVER_RATE:
                other = self._tournament(prev, rng)
                child = self.space.crossover(parent.point, other.point, rng)
            else:
                child = dict(parent.point)
            children.append(
                self.space.mutate(child, rng, MUTATION_RATE, MUTATION_SIGMA)
            )
        return elites + children

    def _tournament(
        self, population: Sequence[PointEval], rng
    ) -> PointEval:
        k = min(TOURNAMENT_K, len(population))
        idx = rng.integers(len(population), size=k)
        contenders = [population[int(i)] for i in idx]
        return max(contenders, key=lambda e: (e.fitness, e.key))


def _identity(state: SearchState) -> dict[str, Any]:
    """What defines a search, minus the generation budget.

    Every generation's randomness is keyed on ``(seed, stage, g)``, so a
    recorded prefix is valid under any ``generations`` target — resume may
    extend or truncate a search, never silently redefine it.
    """
    return {
        "space": state.space.to_dict(),
        "settings": {
            k: v for k, v in state.settings.items() if k != "generations"
        },
        "objectives": [o.to_dict() for o in state.objectives],
        "base_config": state.base_config,
    }
