"""Task/Campaign model: content-addressed units of simulation work.

A :class:`Task` is one simulation run — a complete
:class:`~repro.experiments.scenario.ScenarioConfig` (the seed lives inside
the config).  Its ``task_id`` is a stable content hash of the full config,
reusing :func:`repro.experiments.cache.cache_key`, so the same cell always
maps to the same checkpoint file no matter which campaign, process, or
session computes it.

A :class:`Campaign` is an ordered list of tasks.  Order matters: the
executor reassembles results in task order (never completion order), which
is what makes parallel aggregates byte-identical to serial ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.experiments.cache import cache_key
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.serialization import config_to_dict

__all__ = ["Task", "Campaign"]


def task_id_for(config: ScenarioConfig) -> str:
    """Stable content hash identifying one simulation cell."""
    return cache_key("cell", config_to_dict(config))


@dataclass(slots=True)
class Task:
    """One simulation run plus an optional human-facing tag.

    ``tag`` is display-only (progress lines, failure reports); it does not
    enter the task id.
    """

    config: ScenarioConfig
    tag: str = ""
    task_id: str = field(init=False)

    def __post_init__(self) -> None:
        self.task_id = task_id_for(self.config)

    def describe(self) -> str:
        """Short label for progress/error lines."""
        if self.tag:
            return f"{self.tag} (seed {self.config.seed})"
        return f"{self.config.protocol} seed {self.config.seed}"


@dataclass(slots=True)
class Campaign:
    """A named, ordered set of independent tasks.

    Duplicate task ids are rejected: two identical configs in one campaign
    are almost always a seed-assignment bug, and they would race on the
    same checkpoint file.
    """

    name: str
    tasks: list[Task]

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError(f"campaign {self.name!r} has no tasks")
        seen: dict[str, Task] = {}
        for task in self.tasks:
            clash = seen.get(task.task_id)
            if clash is not None:
                raise ValueError(
                    f"campaign {self.name!r} contains duplicate task "
                    f"{task.describe()!r} (same config as {clash.describe()!r})"
                )
            seen[task.task_id] = task

    def __len__(self) -> int:
        return len(self.tasks)

    @classmethod
    def from_configs(
        cls,
        name: str,
        configs: Iterable[ScenarioConfig],
        tags: Sequence[str] | None = None,
    ) -> "Campaign":
        """Wrap ready-made configs (seeds already assigned) as a campaign."""
        configs = list(configs)
        if tags is not None and len(tags) != len(configs):
            raise ValueError("tags must match configs one-to-one")
        return cls(
            name,
            [
                Task(config, tag=tags[i] if tags is not None else "")
                for i, config in enumerate(configs)
            ],
        )
