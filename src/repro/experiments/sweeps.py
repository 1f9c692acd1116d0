"""Parameter sweeps over scenario configs."""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Sequence

from repro.analysis.stats import ConfidenceInterval, summarize
from repro.experiments.runner import ScenarioResult
from repro.experiments.scenario import ScenarioConfig

__all__ = ["SweepPoint", "sweep"]


class SweepPoint:
    """One (parameter value, protocol) cell of a sweep.

    Attributes
    ----------
    value:
        The swept parameter's value.
    protocol:
        Scheme name.
    runs:
        Individual replication results.
    summary:
        Metric name → mean ± CI across the replications.
    """

    def __init__(
        self,
        value: Any,
        protocol: str,
        runs: list[ScenarioResult],
        summary: dict[str, ConfidenceInterval],
    ) -> None:
        self.value = value
        self.protocol = protocol
        self.runs = runs
        self.summary = summary

    def mean(self, metric: str) -> float:
        """Mean of ``metric`` across replications."""
        return self.summary[metric].mean

    def ci(self, metric: str) -> float:
        """Confidence half-width of ``metric``."""
        return self.summary[metric].half_width

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SweepPoint({self.protocol}, value={self.value})"


def sweep(
    base: ScenarioConfig,
    protocols: Sequence[str],
    values: Sequence[Any],
    apply: Callable[[ScenarioConfig, Any], ScenarioConfig],
    n_runs: int = 3,
    progress: Callable[[str], None] | None = None,
) -> list[SweepPoint]:
    """Cross ``protocols`` × ``values``, replicating each cell.

    The whole grid is one :func:`repro.exec.replicate_cells` campaign
    (one per wave under an adaptive policy), so the process-wide
    :class:`~repro.exec.ExecPolicy` — ``--workers``, ``--adaptive`` —
    applies across every cell at once.

    Parameters
    ----------
    base:
        Config template.
    protocols:
        Scheme names to compare (keys of
        :data:`repro.experiments.scenario.PROTOCOLS`).
    values:
        Swept parameter values.
    apply:
        ``(config, value) -> config`` binding one value into the config.
    n_runs:
        Replications per cell (the budget under an adaptive policy).
    progress:
        Optional status-line sink (e.g. ``print``).
    """
    # Imported here: repro.exec sits on top of this package.
    from repro.exec import replicate_cells

    cells = [
        ((i, protocol), replace(apply(base, value), protocol=protocol))
        for i, value in enumerate(values)
        for protocol in protocols
    ]
    if progress is not None:
        progress(f"sweep: {len(cells)} cells × {n_runs} runs")
    report = replicate_cells("sweep", cells, n_runs)
    return [
        SweepPoint(
            values[i], protocol, runs, summarize([r.as_dict() for r in runs])
        )
        for (i, protocol), runs in report.results.items()
    ]
