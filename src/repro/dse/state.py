"""The DSE screening state: one record, one writer, one reader.

A screening is fully described by :class:`SearchState` — the space,
objectives, settings and base config that define it, plus the one
population it simulated.  :meth:`SearchState.write` is the only code that
writes ``state.json`` and :func:`load_state` the only code that reads it;
:func:`~repro.dse.screen.run_screening` returns the same type the report
reads back, so both answer every question (archive, best, Pareto front,
population hash) the same way.

On disk the population is the single entry of a ``generations`` list
(schema 1).  State files written before screening simulated every cell
carry a ``prune_log`` list in that entry; :func:`load_state` ignores it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.dse.evaluate import PointEval
from repro.dse.objectives import Objective, pareto_front
from repro.dse.space import ParameterSpace
from repro.experiments.cache import atomic_write_json

__all__ = [
    "STATE_SCHEMA",
    "SearchState",
    "load_state",
    "population_hash",
]

#: State-file layout version; bump on incompatible changes.
STATE_SCHEMA = 1


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
    """Everything a screening knows, plus decision-support views.

    ``settings`` and ``base_config`` are the JSON dicts of the run's
    settings and :class:`~repro.experiments.scenario.ScenarioConfig`;
    ``archive`` holds every distinct evaluated point in design order.
    ``simulations_run`` counts the cells the returning run simulated (not
    loaded from checkpoints); it is not part of the file and reads 0 after
    :func:`load_state`.
    """

    space: ParameterSpace
    objectives: list[Objective]
    settings: dict[str, Any]
    base_config: dict[str, Any]
    design_size: int
    archive: list[PointEval]
    simulations_run: int = field(default=0, compare=False)

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
    def final_population_hash(self) -> str:
        return population_hash(self.archive)

    def write(self, out_dir: str | Path) -> None:
        """Atomically write ``<out_dir>/state.json``."""
        atomic_write_json(Path(out_dir) / "state.json", {
            "schema": STATE_SCHEMA,
            "kind": "screen",
            "space": self.space.to_dict(),
            "settings": self.settings,
            "objectives": [o.to_dict() for o in self.objectives],
            "base_config": self.base_config,
            "design_size": self.design_size,
            "generations": [{
                "index": 0,
                "population": [e.to_dict() for e in self.archive],
            }],
        })


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
    if data.get("kind") != "screen":
        raise ValueError(
            f"{path}: not a screening state (kind {data.get('kind')!r})"
        )
    generations = data.get("generations", [])
    if len(generations) != 1:
        raise ValueError(
            f"{path}: a screening state holds one population, "
            f"got {len(generations)}"
        )
    return SearchState(
        space=ParameterSpace.from_dict(data["space"]),
        objectives=[Objective.from_dict(o) for o in data["objectives"]],
        settings=dict(data.get("settings", {})),
        base_config=dict(data.get("base_config", {})),
        design_size=int(data["design_size"]),
        archive=[PointEval.from_dict(e) for e in generations[0]["population"]],
    )
