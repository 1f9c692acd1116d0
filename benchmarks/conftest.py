"""Shared helpers for the figure-regeneration benchmarks.

Each ``bench_<figure>`` file regenerates exactly one table/figure of the
reconstructed evaluation (DESIGN.md §3).  Every simulated cell is
checkpointed on disk (:mod:`repro.exec.checkpoint`), so the first run pays
the full simulation cost and subsequent runs re-render from the
checkpoints; either way the
rendered table is attached to the benchmark record via ``extra_info`` and
printed, so ``pytest benchmarks/ --benchmark-only`` reproduces the
evaluation tables end to end.
"""

from __future__ import annotations

from typing import Callable

from repro.experiments.figures import FigureResult


def regenerate(benchmark, figure_fn: Callable[[bool], FigureResult]) -> FigureResult:
    """Run one figure function under the benchmark harness (single round)."""
    result: FigureResult = benchmark.pedantic(
        figure_fn, kwargs={"quick": True}, rounds=1, iterations=1
    )
    rendered = result.render()
    benchmark.extra_info["figure"] = result.name
    benchmark.extra_info["table"] = rendered
    print()
    print(rendered)
    assert result.rows, f"{result.name} produced no rows"
    return result
