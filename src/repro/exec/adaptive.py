"""One seed ladder for every replicated cell, with optional early stopping.

:func:`replicate_cells` is the only place a replicated campaign builds
its ``seed, seed+1, …`` ladder.  It schedules replicates in waves:

1. every cell runs its first seeds (one campaign over all cells, so a
   worker pool parallelises across the whole grid);
2. without an :class:`AdaptivePolicy` that first wave is the whole
   ``n_runs`` budget and the only campaign — the fixed-budget path;
3. with one (``ExecPolicy.adaptive``), the first wave is ``min_reps``
   seeds; each cell's Student-t half-width on the target metric is then
   tested against the declared precision, converged cells *stop*, and
   surviving cells buy ``wave`` more seeds each (again one campaign),
   until they converge or hit ``max_reps`` — the fixed budget is the
   worst case, never exceeded.

Fixed-budget sampling wastes most of its replicates: at sweep scale the
easy cells (light load, small grids) converge after a handful of seeds
while the budget keeps buying more.  Sequential confidence-interval
stopping is safe here because every replicate is a content-hashed,
deterministic exec cell: stopping early never changes *which* runs
happen, only *how many*.  An adaptive cell's replicates are a strict
prefix of the full-budget cell's, which is what makes the accuracy claim
auditable: the adaptive mean must lie within the declared half-width of
the full-budget mean.

For a packet proportion (``pdr``) the half-width never uses a per-run
variance below the binomial ``p̄(1−p̄)/m̄`` (``m̄`` the mean
``packets_sent`` per run), so replicates that happen to agree cannot
stop a cell on a zero or round-off half-width.

Every stop decision is recorded as an :class:`AdaptiveDecision` and
written to an audit artifact on the trace line protocol (one ``stop``
record per cell, then a ``summary``): cell key, seeds bought, mean,
half-width, target, why sampling ended, which bound decided it, and
whether the half-width came from the sample spread or the binomial
floor.  The fixed-budget path writes no audit and stays byte-identical
to the historical one-campaign ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Hashable, Sequence

from repro.analysis.stats import sequential_halfwidth
from repro.exec.policy import ExecPolicy, current_policy
from repro.exec.progress import RunLog
from repro.experiments.runner import METRIC_KEYS, ScenarioResult
from repro.experiments.scenario import ScenarioConfig

__all__ = [
    "AdaptiveDecision",
    "AdaptivePolicy",
    "AdaptiveReport",
    "parse_adaptive_spec",
    "replicate_cells",
]


@dataclass(slots=True, frozen=True)
class AdaptivePolicy:
    """Declared precision contract for adaptive replication.

    Attributes
    ----------
    metric:
        Key of :meth:`ScenarioResult.as_dict` the half-width is tested on
        (e.g. ``"pdr"``); anything outside
        :data:`~repro.experiments.runner.METRIC_KEYS` is rejected.
    ci_halfwidth:
        Absolute half-width target.  A cell stops once its Student-t CI
        half-width on ``metric`` is ≤ this value.
    rel_halfwidth:
        Optional *relative* target: half-width ≤ ``rel_halfwidth·|mean|``.
        When both are set, either satisfies the stop test.
    level:
        Confidence level of the interval (default 0.95).
    min_reps:
        Seeds every cell buys before the first stop test.  Student-t needs
        ≥ 2; below 3 the t quantile is so wide that stopping is rare.
    max_reps:
        Hard budget per cell; ``None`` means "use the campaign's full
        budget" (resolved per call site).
    wave:
        Seeds added per surviving cell between stop tests.
    """

    metric: str = "pdr"
    ci_halfwidth: float | None = 0.01
    rel_halfwidth: float | None = None
    level: float = 0.95
    min_reps: int = 5
    max_reps: int | None = None
    wave: int = 2

    def __post_init__(self) -> None:
        if self.metric not in METRIC_KEYS:
            raise ValueError(
                f"unknown metric {self.metric!r}; expected one of "
                f"{', '.join(METRIC_KEYS)}"
            )
        if self.ci_halfwidth is None and self.rel_halfwidth is None:
            raise ValueError("need ci_halfwidth and/or rel_halfwidth")
        for name in ("ci_halfwidth", "rel_halfwidth"):
            v = getattr(self, name)
            if v is not None and not 0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {self.level}")
        if self.min_reps < 2:
            raise ValueError(f"min_reps must be ≥ 2, got {self.min_reps}")
        if self.max_reps is not None and self.max_reps < self.min_reps:
            raise ValueError("max_reps must be ≥ min_reps")
        if self.wave < 1:
            raise ValueError(f"wave must be ≥ 1, got {self.wave}")

    # ------------------------------------------------------------------ #
    def resolve(self, budget: int) -> "AdaptivePolicy":
        """Pin ``max_reps`` to the call site's full budget (never above)."""
        cap = budget if self.max_reps is None else min(self.max_reps, budget)
        return replace(
            self, max_reps=max(cap, 2), min_reps=min(self.min_reps, max(cap, 2))
        )

    def met_bound(self, mean: float, halfwidth: float) -> str | None:
        """Name of the declared target ``halfwidth`` meets, else ``None``.

        ``"ci_halfwidth"`` (absolute) is tested before ``"rel_halfwidth"``.
        """
        if math.isinf(halfwidth) or math.isnan(halfwidth):
            return None
        if self.ci_halfwidth is not None and halfwidth <= self.ci_halfwidth:
            return "ci_halfwidth"
        if (
            self.rel_halfwidth is not None
            and not math.isnan(mean)
            and halfwidth <= self.rel_halfwidth * abs(mean)
        ):
            return "rel_halfwidth"
        return None

    def converged(self, mean: float, halfwidth: float) -> bool:
        """The declared stop test."""
        return self.met_bound(mean, halfwidth) is not None

    def describe(self) -> str:
        parts = [f"metric={self.metric}"]
        if self.ci_halfwidth is not None:
            parts.append(f"hw≤{self.ci_halfwidth:g}")
        if self.rel_halfwidth is not None:
            parts.append(f"hw≤{self.rel_halfwidth:g}·|mean|")
        parts.append(f"reps {self.min_reps}..{self.max_reps}")
        return " ".join(parts)


@dataclass(slots=True)
class AdaptiveDecision:
    """Audit record: why one cell stopped buying seeds."""

    key: str  # ``str()`` of the cell key
    metric: str
    n_used: int
    n_budget: int
    mean: float
    halfwidth: float
    target_halfwidth: float | None
    stopped_early: bool
    reason: str  # "converged" | "budget"
    waves: int
    #: The bound that decided the stop: ``"ci_halfwidth"`` or
    #: ``"rel_halfwidth"`` (converged) or ``"max_reps"`` (budget).
    bound: str
    #: Where the half-width's variance came from: ``"sample"`` or, when
    #: agreeing replicates fell below it, ``"binomial_floor"``.
    variance: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "metric": self.metric,
            "n_used": self.n_used,
            "n_budget": self.n_budget,
            "mean": self.mean,
            "halfwidth": self.halfwidth,
            "target_halfwidth": self.target_halfwidth,
            "stopped_early": self.stopped_early,
            "reason": self.reason,
            "waves": self.waves,
            "bound": self.bound,
            "variance": self.variance,
        }


@dataclass(slots=True)
class AdaptiveReport:
    """Outcome of :func:`replicate_cells`: per-cell results + the audit
    trail (no decisions on the fixed-budget path)."""

    results: dict[Hashable, list[ScenarioResult]]
    decisions: list[AdaptiveDecision] = field(default_factory=list)
    waves: int = 0

    @property
    def replicates_used(self) -> int:
        return sum(len(v) for v in self.results.values())

    @property
    def replicates_budget(self) -> int:
        return sum(d.n_budget for d in self.decisions)

    @property
    def saved_fraction(self) -> float:
        """Fraction of the fixed seed budget the stopping rule returned."""
        budget = self.replicates_budget
        if budget <= 0:
            return 0.0
        return 1.0 - self.replicates_used / budget


def parse_adaptive_spec(spec: str) -> AdaptivePolicy:
    """CLI syntax ``METRIC:HALFWIDTH[:MIN_REPS]`` → :class:`AdaptivePolicy`.

    >>> parse_adaptive_spec("pdr:0.01").metric
    'pdr'
    >>> parse_adaptive_spec("mean_delay_s:0.002:3").min_reps
    3
    """
    parts = spec.split(":")
    if len(parts) not in (2, 3) or not parts[0]:
        raise ValueError(
            f"bad adaptive spec {spec!r}; expected METRIC:HALFWIDTH[:MIN_REPS]"
        )
    kwargs: dict[str, Any] = {
        "metric": parts[0],
        "ci_halfwidth": float(parts[1]),
    }
    if len(parts) == 3:
        kwargs["min_reps"] = int(parts[2])
    return AdaptivePolicy(**kwargs)


# --------------------------------------------------------------------- #
# Wave scheduler
# --------------------------------------------------------------------- #
def _metric_values(runs: Sequence[ScenarioResult], metric: str) -> list[float]:
    return [float(r.as_dict()[metric]) for r in runs]


def _mean_trials(runs: Sequence[ScenarioResult], metric: str) -> float | None:
    """Mean ``packets_sent`` per run when ``metric`` is the packet
    proportion ``pdr`` (the binomial floor's ``m̄``), else ``None``."""
    if metric != "pdr":
        return None
    return sum(r.packets_sent for r in runs) / len(runs)


def replicate_cells(
    name: str,
    cells: Sequence[tuple[Hashable, ScenarioConfig]],
    n_runs: int,
    policy: ExecPolicy | None = None,
    run_fn: Callable[..., list[ScenarioResult]] | None = None,
) -> AdaptiveReport:
    """Replicate every ``(key, config)`` cell over seeds ``config.seed + k``.

    ``policy`` defaults to :func:`~repro.exec.policy.current_policy`.
    Without ``policy.adaptive``, or when ``n_runs < 2``, every cell buys
    exactly ``n_runs`` seeds in ONE campaign called ``name``.  Otherwise
    ``n_runs`` is the per-cell budget: campaigns ``name-wave1``,
    ``name-wave2``, … each cover every unconverged cell, and the stop
    decisions go to a fresh audit ``adaptive-{name}-{pid}-{ts}.jsonl``
    under ``policy.log_dir`` (default ``cache_dir()/runs``).

    Keys may be any hashables but must be unique; task tags are
    ``str(key)``.  ``run_fn`` (default
    :func:`~repro.exec.scheduler.run_configs`) executes one campaign.
    Returns the per-cell result lists in seed-ladder order (a prefix of
    the fixed-budget ladder) plus the audit trail.
    """
    if n_runs < 1:
        raise ValueError(f"need ≥ 1 run, got {n_runs}")
    if policy is None:
        policy = current_policy()
    if run_fn is None:
        from repro.exec.scheduler import run_configs as run_fn
    keys = [k for k, _ in cells]
    if len(set(keys)) != len(keys):
        raise ValueError(f"replicated cells need unique keys, got {keys!r}")
    pol = None
    if policy.adaptive is not None and n_runs >= 2:
        pol = policy.adaptive.resolve(n_runs)
    results: dict[Hashable, list[ScenarioResult]] = {k: [] for k in keys}
    active: dict[Hashable, ScenarioConfig] = dict(cells)
    decisions: list[AdaptiveDecision] = []
    wave_no = 0

    def n_next(k: Hashable) -> int:
        if pol is None:
            return n_runs
        have = len(results[k])
        return min(have + pol.wave if have else pol.min_reps, pol.max_reps)

    while active:
        wave_no += 1
        wave_keys: list[Hashable] = []
        wave_configs: list[ScenarioConfig] = []
        for k, base in active.items():
            for rep in range(len(results[k]), n_next(k)):
                wave_keys.append(k)
                wave_configs.append(replace(base, seed=base.seed + rep))
        wave_results = run_fn(
            name if pol is None else f"{name}-wave{wave_no}",
            wave_configs,
            policy=policy,
            tags=[str(k) for k in wave_keys],
        )
        for k, result in zip(wave_keys, wave_results):
            results[k].append(result)
        if pol is None:
            break
        for k in list(active):
            decision = _stop_decision(pol, k, results[k], n_runs, wave_no)
            if decision is not None:
                del active[k]
                decisions.append(decision)

    report = AdaptiveReport(results=results, decisions=decisions, waves=wave_no)
    if pol is not None:
        audit = RunLog(
            f"adaptive-{name}", log_dir=policy.log_dir, campaign=name
        )
        for d in decisions:
            audit.write("stop", campaign=name, **d.to_dict())
        audit.write(
            "summary",
            campaign=name,
            policy=pol.describe(),
            replicates_used=report.replicates_used,
            replicates_budget=report.replicates_budget,
            saved_fraction=round(report.saved_fraction, 4),
            waves=report.waves,
        )
        audit.close()
    return report


def _stop_decision(
    pol: AdaptivePolicy,
    key: Hashable,
    runs: Sequence[ScenarioResult],
    n_budget: int,
    wave_no: int,
) -> AdaptiveDecision | None:
    """Why ``key`` stops buying seeds now, or ``None`` if it buys on."""
    values = _metric_values(runs, pol.metric)
    trials = _mean_trials(runs, pol.metric)
    hw = sequential_halfwidth(values, pol.level, trials=trials)
    finite = [v for v in values if not math.isnan(v)]
    mean = sum(finite) / len(finite) if finite else math.nan
    bound = pol.met_bound(mean, hw)
    if bound is not None:
        reason = "converged"
    elif len(runs) >= pol.max_reps:
        reason, bound = "budget", "max_reps"
    else:
        return None
    floored = trials is not None and hw > sequential_halfwidth(
        values, pol.level
    )
    return AdaptiveDecision(
        key=str(key), metric=pol.metric, n_used=len(runs),
        n_budget=n_budget, mean=mean, halfwidth=hw,
        target_halfwidth=pol.ci_halfwidth,
        stopped_early=len(runs) < n_budget, reason=reason,
        waves=wave_no, bound=bound,
        variance="binomial_floor" if floored else "sample",
    )
