"""Objectives, weighted scoring, and Pareto-front extraction (MCDM).

An :class:`Objective` names one scalar a run produces — a figure metric
(``pdr``, ``mean_delay_s``), any ``ScenarioResult.totals`` counter
including the ``resilience_*`` family a
:class:`~repro.faults.ResilienceCollector` contributes under a fault
plan, or any ``repro_*`` series from the
run's canonical metrics snapshot — plus a goal (min/max), a weight, and a
scale.

Two decision-support views are built on top:

* **weighted score** — the scalar fitness that ranks screened points:
  ``Σᵢ wᵢ · dirᵢ · vᵢ/scaleᵢ`` with ``dir`` +1 for max, −1 for min.
  NaN objective values (e.g. delay when nothing was delivered) poison the
  score to −inf, so broken configurations can never win.
* **Pareto front** — goal-adjusted non-domination over the raw objective
  values, weight-free, for "show me the trade-off surface" reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.analysis.stats import mean_ci
from repro.experiments.runner import ScenarioResult

__all__ = [
    "Objective",
    "DEFAULT_OBJECTIVES",
    "parse_objective",
    "extract_value",
    "aggregate_objectives",
    "weighted_score",
    "pareto_front",
]


@dataclass(frozen=True, slots=True)
class Objective:
    """One optimisation criterion.

    Attributes
    ----------
    key:
        Metric name, resolved against a result's scalar metrics, then its
        ``totals`` dump, then its ``metrics_snapshot`` series.
    goal:
        ``"max"`` or ``"min"``.
    weight:
        Relative importance in the weighted score.
    scale:
        Typical magnitude used to de-dimensionalise the weighted score
        (e.g. 0.1 s for delay); irrelevant to Pareto dominance.
    """

    key: str
    goal: str = "max"
    weight: float = 1.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.goal not in ("min", "max"):
            raise ValueError(f"goal must be 'min' or 'max', got {self.goal!r}")
        # A NaN or infinite weight or scale makes every weighted score
        # NaN, ±inf or 0, and then nothing ranks points by objective.
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValueError(
                f"weight must be finite and ≥ 0, got {self.weight!r}"
            )
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(
                f"scale must be finite and positive, got {self.scale!r}"
            )

    @property
    def direction(self) -> float:
        return 1.0 if self.goal == "max" else -1.0

    def adjusted(self, value: float) -> float:
        """Goal-adjusted value (higher is always better); NaN → −inf."""
        if math.isnan(value):
            return -math.inf
        return self.direction * value

    def to_dict(self) -> dict[str, Any]:
        return {
            "key": self.key, "goal": self.goal,
            "weight": self.weight, "scale": self.scale,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Objective":
        return cls(**dict(data))


#: The paper-family trade-off: delivery vs latency vs control overhead.
DEFAULT_OBJECTIVES: tuple[Objective, ...] = (
    Objective("pdr", "max", weight=1.0, scale=1.0),
    Objective("mean_delay_s", "min", weight=1.0, scale=0.1),
    Objective("normalized_routing_load", "min", weight=0.5, scale=5.0),
)


def parse_objective(spec: str) -> Objective:
    """Parse a CLI objective ``key:goal[:weight[:scale]]``.

    >>> parse_objective("pdr:max")
    Objective(key='pdr', goal='max', weight=1.0, scale=1.0)
    """
    parts = spec.split(":")
    if not 2 <= len(parts) <= 4:
        raise ValueError(
            f"objective {spec!r} is not key:goal[:weight[:scale]]"
        )
    key, goal = parts[0], parts[1]
    weight = float(parts[2]) if len(parts) > 2 else 1.0
    scale = float(parts[3]) if len(parts) > 3 else 1.0
    return Objective(key, goal, weight=weight, scale=scale)


def extract_value(result: ScenarioResult, key: str) -> float:
    """Resolve objective ``key`` against one run's outputs.

    Lookup order: scalar figure metrics → ``totals`` (which includes the
    ``resilience_*`` counters under a fault plan) → the ``repro_*``
    metrics snapshot.  Unknown keys raise with the closest namespaces
    listed; :class:`~repro.dse.evaluate.Evaluator` resolves every key
    this way before it dispatches a cell, so a typo fails the campaign
    up front rather than after simulating it.
    """
    scalars = result.as_dict()
    if key in scalars:
        return float(scalars[key])
    if key in result.totals:
        return float(result.totals[key])
    if key in result.metrics_snapshot:
        return float(result.metrics_snapshot[key])
    raise KeyError(
        f"objective {key!r} not found; available: scalar metrics "
        f"{sorted(scalars)}, totals {sorted(result.totals)[:12]}…, "
        f"and {len(result.metrics_snapshot)} metrics-snapshot series"
    )


def aggregate_objectives(
    results: Sequence[ScenarioResult], objectives: Sequence[Objective]
) -> dict[str, float]:
    """Mean objective values across replicate seeds (NaN seeds dropped).

    A key that is NaN in *every* replicate stays NaN — scoring then
    poisons it rather than silently treating it as zero.
    """
    out: dict[str, float] = {}
    for obj in objectives:
        values = [extract_value(r, obj.key) for r in results]
        out[obj.key] = mean_ci(values).mean  # NaN-dropping mean; NaN if empty
    return out


def weighted_score(
    values: Mapping[str, float], objectives: Sequence[Objective]
) -> float:
    """Scalar fitness of one point's aggregated objective values."""
    total = 0.0
    for obj in objectives:
        adj = obj.adjusted(float(values[obj.key]))
        if math.isinf(adj):
            return -math.inf
        total += obj.weight * adj / obj.scale
    return total


def pareto_front(
    rows: Sequence[Mapping[str, float]], objectives: Sequence[Objective]
) -> list[int]:
    """Indices of non-dominated rows, in input order.

    Row *a* dominates *b* when it is no worse on every objective and
    strictly better on at least one (goal-adjusted).  Duplicate objective
    vectors all stay on the front.  A row with any NaN objective (−inf
    after adjustment) is excluded outright — a broken configuration is
    not a trade-off, even if it looks unbeatable elsewhere.  O(n²) —
    campaign populations are hundreds, not millions.
    """
    adjusted = [
        [obj.adjusted(float(row[obj.key])) for obj in objectives] for row in rows
    ]
    front: list[int] = []
    for i, a in enumerate(adjusted):
        if not all(math.isfinite(v) for v in a):
            continue
        dominated = False
        for j, b in enumerate(adjusted):
            if j == i:
                continue
            if all(bv >= av for av, bv in zip(a, b)) and any(
                bv > av for av, bv in zip(a, b)
            ):
                dominated = True
                break
        if not dominated:
            front.append(i)
    return front
