"""Decision-support reporting over screening state files.

Renders a :class:`~repro.dse.state.SearchState` — returned by a screening
or read back with :func:`~repro.dse.state.load_state` — three ways:

* an aligned table of the Pareto front (then the dominated rest), with
  per-dimension values, objective means, and weighted fitness;
* CSV of every evaluated point (spreadsheet-ready);
* an ASCII scatter of any two objectives, front points starred — the
  sixty-column view of the trade-off surface.
"""

from __future__ import annotations

import io
import math
from typing import Any, Sequence

from repro.dse.evaluate import PointEval
from repro.dse.objectives import Objective
from repro.dse.space import ParameterSpace
from repro.dse.state import SearchState
from repro.metrics.summary import format_table

__all__ = ["pareto_table", "to_csv", "ascii_scatter"]


def _rows(
    evals: Sequence[PointEval],
    space: ParameterSpace,
    objectives: Sequence[Objective],
    front_keys: set[str],
) -> list[list[Any]]:
    rows = []
    for ev in evals:
        rows.append(
            ["*" if ev.key in front_keys else ""]
            + [ev.point[d.name] for d in space.dimensions]
            + [ev.objectives[o.key] for o in objectives]
            + [ev.fitness]
        )
    return rows


def pareto_table(state: SearchState, top: int = 0) -> str:
    """Aligned table: Pareto front first (starred), then the rest by
    fitness; ``top`` > 0 limits the number of printed rows."""
    front = state.pareto()
    front_keys = {e.key for e in front}
    rest = sorted(
        (e for e in state.archive if e.key not in front_keys),
        key=lambda e: (-e.fitness, e.key),
    )
    ordered = sorted(front, key=lambda e: (-e.fitness, e.key)) + rest
    if top > 0:
        ordered = ordered[:top]
    headers = (
        ["front"]
        + [d.name for d in state.space.dimensions]
        + [f"{o.key} ({o.goal})" for o in state.objectives]
        + ["fitness"]
    )
    table = format_table(
        headers,
        _rows(ordered, state.space, state.objectives, front_keys),
        title=(
            f"{state.space.name}: {len(state.archive)} evaluated, "
            f"{len(front)} on Pareto front"
        ),
    )
    return table


def to_csv(state: SearchState) -> str:
    """CSV of every evaluated point (front flag, dims, objectives)."""
    import csv

    front_keys = {e.key for e in state.pareto()}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["front"]
        + [d.name for d in state.space.dimensions]
        + [o.key for o in state.objectives]
        + ["fitness"]
    )
    for ev in state.archive:
        writer.writerow(
            [1 if ev.key in front_keys else 0]
            + [ev.point[d.name] for d in state.space.dimensions]
            + [ev.objectives[o.key] for o in state.objectives]
            + [ev.fitness]
        )
    return buf.getvalue()


def ascii_scatter(
    state: SearchState,
    x_key: str | None = None,
    y_key: str | None = None,
    width: int = 60,
    height: int = 18,
) -> str:
    """Two objectives as an ASCII scatter; Pareto-front points are ``*``,
    dominated points ``·``.  Defaults to the first two objectives."""
    objectives = state.objectives
    if len(objectives) < 2 and (x_key is None or y_key is None):
        raise ValueError("need two objectives (or explicit --x/--y) to scatter")
    x_key = x_key or objectives[0].key
    y_key = y_key or objectives[1].key
    keys = [o.key for o in objectives]
    for key in (x_key, y_key):
        if key not in keys:
            raise ValueError(
                f"unknown objective {key!r} to scatter; this state has "
                f"{', '.join(keys)}"
            )
    front_keys = {e.key for e in state.pareto()}
    pts = [
        (e.objectives[x_key], e.objectives[y_key], e.key in front_keys)
        for e in state.archive
        if not (
            math.isnan(e.objectives[x_key]) or math.isnan(e.objectives[y_key])
        )
    ]
    if not pts:
        raise ValueError(f"no finite ({x_key}, {y_key}) points to plot")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    # Draw dominated points first so front stars are never overwritten.
    for x, y, on_front in sorted(pts, key=lambda p: p[2]):
        col = min(width - 1, int((x - x_lo) / x_span * (width - 1)))
        row = height - 1 - min(
            height - 1, int((y - y_lo) / y_span * (height - 1))
        )
        grid[row][col] = "*" if on_front else "·"
    lines = [f"{state.space.name}: {y_key} vs {x_key}  (* = Pareto front)"]
    lines.append(f"{y_hi:>12.4g} ┐")
    for row in grid:
        lines.append(" " * 12 + " │" + "".join(row))
    lines.append(f"{y_lo:>12.4g} ┘")
    lines.append(
        " " * 14 + f"{x_lo:<.4g}".ljust(width - 8) + f"{x_hi:>.4g}"
    )
    lines.append(" " * 14 + x_key)
    return "\n".join(lines)
