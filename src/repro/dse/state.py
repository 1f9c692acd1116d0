"""The DSE search state: one record, one writer, one reader.

A search or screening is fully described by :class:`SearchState` — the
space, objectives, settings and base config that define it, plus one
:class:`GenerationRecord` per completed generation (a screening has one).
:meth:`SearchState.write` is the only code that writes ``state.json`` and
:func:`load_state` the only code that reads it; the runs return the same
type the report reads back, so both answer every question (archive, best,
Pareto front, pruned count, population hash) the same way.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.dse.evaluate import PointEval
from repro.dse.objectives import Objective, pareto_front
from repro.dse.space import ParameterSpace
from repro.dse.surrogate import PruneDecision
from repro.experiments.cache import atomic_write_json

__all__ = [
    "STATE_SCHEMA",
    "GenerationRecord",
    "SearchState",
    "load_state",
    "population_hash",
]

#: State-file layout version; bump on incompatible changes.
STATE_SCHEMA = 1


@dataclass(slots=True)
class GenerationRecord:
    """One generation: who was simulated, and who was pruned instead."""

    index: int
    population: list[PointEval]
    prune_log: list[PruneDecision] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "population": [e.to_dict() for e in self.population],
            "prune_log": [d.to_dict() for d in self.prune_log],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GenerationRecord":
        return cls(
            index=int(data["index"]),
            population=[PointEval.from_dict(e) for e in data["population"]],
            prune_log=[PruneDecision(**d) for d in data.get("prune_log", [])],
        )


def population_hash(population: Sequence[PointEval]) -> str:
    """SHA-256 over the canonical JSON of a population's points,
    objective values, and fitnesses — byte-identity across runs, hosts,
    and serial/parallel execution is asserted on this."""
    blob = json.dumps(
        [
            {
                "point": e.point,
                "objectives": e.objectives,
                "fitness": e.fitness,
            }
            for e in population
        ],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(slots=True)
class SearchState:
    """Everything a search or screening knows, plus decision-support views.

    ``kind`` is ``"evolve"`` or ``"screen"``; ``settings`` and
    ``base_config`` are the JSON dicts of the run's settings and
    :class:`~repro.experiments.scenario.ScenarioConfig`; ``design_size``
    is set only for a screening.  ``simulations_run`` counts the cells
    the returning run simulated (not loaded from checkpoints); it is not
    part of the file and reads 0 after :func:`load_state`.
    """

    kind: str
    space: ParameterSpace
    objectives: list[Objective]
    settings: dict[str, Any]
    base_config: dict[str, Any]
    generations: list[GenerationRecord] = field(default_factory=list)
    design_size: int | None = None
    simulations_run: int = field(default=0, compare=False)

    @property
    def archive(self) -> list[PointEval]:
        """Distinct evaluated points in first-evaluation order."""
        seen: dict[str, PointEval] = {}
        for gen in self.generations:
            for ev in gen.population:
                seen.setdefault(ev.key, ev)
        return list(seen.values())

    @property
    def best(self) -> PointEval:
        """Highest-fitness evaluated point (ties broken by point key)."""
        return max(self.archive, key=lambda e: (e.fitness, e.key))

    def pareto(self) -> list[PointEval]:
        """Non-dominated archive points, stable in archive order."""
        archive = self.archive
        idx = pareto_front([e.objectives for e in archive], self.objectives)
        return [archive[i] for i in idx]

    @property
    def evaluations_pruned(self) -> int:
        return sum(
            1 for g in self.generations for d in g.prune_log if d.pruned
        )

    @property
    def final_population_hash(self) -> str:
        return population_hash(self.generations[-1].population)

    def write(self, out_dir: str | Path) -> None:
        """Atomically write ``<out_dir>/state.json``."""
        data: dict[str, Any] = {
            "schema": STATE_SCHEMA,
            "kind": self.kind,
            "space": self.space.to_dict(),
            "settings": self.settings,
            "objectives": [o.to_dict() for o in self.objectives],
            "base_config": self.base_config,
        }
        if self.design_size is not None:
            data["design_size"] = self.design_size
        data["generations"] = [g.to_dict() for g in self.generations]
        atomic_write_json(Path(out_dir) / "state.json", data)


def load_state(out_dir: str | Path) -> SearchState:
    """Load ``<out_dir>/state.json`` (or a direct file path)."""
    path = Path(out_dir)
    if path.is_dir():
        path = path / "state.json"
    if not path.exists():
        raise FileNotFoundError(f"no DSE state at {path}")
    with path.open() as fh:
        data = json.load(fh)
    if data.get("schema") != STATE_SCHEMA:
        raise ValueError(
            f"{path}: unsupported state schema {data.get('schema')!r}"
        )
    state = SearchState(
        kind=data.get("kind", "evolve"),
        space=ParameterSpace.from_dict(data["space"]),
        objectives=[Objective.from_dict(o) for o in data["objectives"]],
        settings=dict(data.get("settings", {})),
        base_config=dict(data.get("base_config", {})),
        generations=[
            GenerationRecord.from_dict(g) for g in data.get("generations", [])
        ],
        design_size=data.get("design_size"),
    )
    if not state.generations:
        raise ValueError(f"{path}: state has no completed generations")
    return state
