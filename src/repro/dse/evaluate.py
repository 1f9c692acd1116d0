"""Evaluation adapter: parameter points → exec campaign cells → objectives.

The :class:`Evaluator` is the bridge between a screening design and the
campaign fabric.  Each point is bound onto the base config and the whole
batch is replicated across ``n_seeds`` consecutive seeds by
:func:`~repro.exec.adaptive.replicate_cells` — one campaign, or one per
wave under ``ExecPolicy.adaptive`` — so every evaluation is a
content-hashed cell with per-cell checkpointing, worker-pool parallelism,
crash containment, and byte-identical parallel-vs-serial aggregates, none
of which this module has to reimplement.

Checkpoint resume is forced on: re-running a killed screening re-submits
its design, but every cell that already completed loads from its
checkpoint, which is what makes a killed and re-run screening end with the
same population as an uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

from repro.dse.objectives import (
    Objective,
    aggregate_objectives,
    extract_value,
    weighted_score,
)
from repro.dse.space import ParameterSpace, Point, point_key
from repro.exec.adaptive import replicate_cells
from repro.exec.policy import ExecPolicy, current_policy
from repro.exec.scheduler import CampaignExecutor
from repro.exec.task import Campaign
from repro.experiments.runner import collect_result, frees_simulation
from repro.experiments.scenario import ScenarioConfig, build_network

__all__ = ["PointEval", "Evaluator"]


@frees_simulation
def _check_objectives(
    base: ScenarioConfig, objectives: Sequence[Objective]
) -> None:
    """Resolve every objective key against an un-run network of ``base``.

    The un-run result already carries every scalar metric, every
    ``totals`` counter (``resilience_*`` included under a fault plan) and
    every snapshot series a run of ``base`` reports, so an unknown key
    raises :func:`~repro.dse.objectives.extract_value`'s ``KeyError``
    here, before any cell is simulated.  The probe drops the trace spec,
    so it writes no trace artifact.
    """
    probe = collect_result(build_network(replace(base, trace_spec=None)))
    for obj in objectives:
        extract_value(probe, obj.key)


@dataclass(slots=True)
class PointEval:
    """Aggregated outcome of evaluating one point.

    ``objectives`` holds the across-seed mean per objective key;
    ``fitness`` the weighted score that ranks points; ``per_seed`` the raw
    per-replicate values for CI reporting.
    """

    point: Point
    objectives: dict[str, float]
    fitness: float
    per_seed: list[dict[str, float]] = field(default_factory=list)

    @property
    def key(self) -> str:
        return point_key(self.point)

    def to_dict(self) -> dict[str, Any]:
        return {
            "point": dict(self.point),
            "objectives": dict(self.objectives),
            "fitness": self.fitness,
            "per_seed": [dict(s) for s in self.per_seed],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PointEval":
        return cls(
            point=dict(data["point"]),
            objectives=dict(data["objectives"]),
            fitness=float(data["fitness"]),
            per_seed=[dict(s) for s in data.get("per_seed", [])],
        )


class Evaluator:
    """Runs points through the exec fabric and caches their outcomes.

    The cache is keyed on the point's canonical JSON: a point a design
    repeats (a Latin hypercube over an integer space with fewer values
    than points) is simulated once.
    """

    def __init__(
        self,
        space: ParameterSpace,
        base: ScenarioConfig,
        objectives: Sequence[Objective],
        n_seeds: int = 1,
        policy: ExecPolicy | None = None,
        campaign_prefix: str = "dse",
    ) -> None:
        if n_seeds < 1:
            raise ValueError(f"n_seeds must be ≥ 1, got {n_seeds}")
        self.space = space
        self.base = base
        self.objectives = list(objectives)
        _check_objectives(base, self.objectives)
        self.n_seeds = n_seeds
        base_policy = policy if policy is not None else current_policy()
        # Content-hashed cells make resume free and kill-safe; never run
        # a screening without it.
        self.policy = replace(base_policy, resume=True, checkpoint=True)
        self.campaign_prefix = campaign_prefix
        self._cache: dict[str, PointEval] = {}
        self.simulations_run = 0

    # ------------------------------------------------------------------ #
    @property
    def archive(self) -> list[PointEval]:
        """Every distinct evaluated point, in first-evaluation order."""
        return list(self._cache.values())

    # ------------------------------------------------------------------ #
    def evaluate(self, points: Sequence[Point], label: str) -> list[PointEval]:
        """Evaluate ``points`` (one campaign per wave), returning aligned
        outcomes.

        Duplicate and previously seen points are served from the cache;
        only genuinely new cells reach the executor.
        """
        points = [self.space.validate_point(p) for p in points]
        fresh: dict[str, Point] = {}
        for p in points:
            k = point_key(p)
            if k not in self._cache:
                fresh.setdefault(k, p)

        if fresh:
            grouped = replicate_cells(
                f"{self.campaign_prefix}-{label}",
                [(k, self.space.bind(self.base, p)) for k, p in fresh.items()],
                self.n_seeds,
                policy=self.policy,
                run_fn=self._run_campaign,
            ).results
            for k, p in fresh.items():
                mine = grouped[k]
                values = aggregate_objectives(mine, self.objectives)
                per_seed = [
                    {o.key: float(vals[o.key]) for o in self.objectives}
                    for vals in (
                        aggregate_objectives([r], self.objectives) for r in mine
                    )
                ]
                self._cache[k] = PointEval(
                    point=dict(p),
                    objectives=values,
                    fitness=weighted_score(values, self.objectives),
                    per_seed=per_seed,
                )
        return [self._cache[point_key(p)] for p in points]

    def _run_campaign(self, name, configs, policy=None, tags=None) -> list:
        """:func:`~repro.exec.scheduler.run_configs` that also counts the
        cells actually simulated (not loaded from checkpoints)."""
        campaign = Campaign.from_configs(name, configs, tags=tags)
        outcome = CampaignExecutor(policy=policy).run(campaign)
        self.simulations_run += sum(
            1 for o in outcome.outcomes if o.source == "run"
        )
        return outcome.results()  # raises on any failed cell
