"""EXPERIMENTS.md generation: run every figure, render paper-vs-measured."""

from __future__ import annotations

import datetime
from pathlib import Path
from typing import Callable, Iterable

from repro.experiments.figures import ALL_FIGURES, FigureResult
from repro.metrics.asciichart import line_chart

__all__ = ["generate_report", "write_experiments_md", "figure_charts"]

#: Column suffixes that form one chart each when ≥ 2 series share them.
_CHART_SUFFIXES = ("_pdr", "_delay_ms", "_kbps", "_rreq", "_ms", "_nrl",
                   "_reach", "_saved")


def figure_charts(result: FigureResult) -> list[str]:
    """ASCII charts for a figure whose x column is numeric.

    One chart per recognised metric suffix shared by ≥ 2 columns; an empty
    list when the figure is categorical (summary tables, ablations).
    """
    try:
        xs = [float(row[0]) for row in result.rows]
    except (TypeError, ValueError):
        return []
    if len(xs) < 3:
        return []
    charts: list[str] = []
    consumed: set[int] = set()
    for suffix in _CHART_SUFFIXES:
        cols = [
            (i, h[: -len(suffix)])
            for i, h in enumerate(result.headers)
            if h.endswith(suffix) and i not in consumed
        ]
        if len(cols) < 2:
            continue
        consumed.update(i for i, _ in cols)
        series = {
            name: [float(row[i]) for row in result.rows] for i, name in cols
        }
        charts.append(
            line_chart(
                xs, series, width=56, height=12,
                title=f"{result.name}: {suffix.lstrip('_')}",
                x_label=result.headers[0],
            )
        )
    return charts

_PREAMBLE = """\
# EXPERIMENTS — paper-shaped expectations vs measured results

**Provenance caveat (see DESIGN.md):** the full text of *Cross layer
Neighbourhood Load Routing for Wireless Mesh Networks* (Zhao, Al-Dubai &
Min, IPPS 2010) was not available — the supplied source was a search-results
listing containing only the citation.  Every experiment below is therefore a
*reconstruction* of a standard 2010-era WMN routing evaluation exercising
the titled contribution, with the expected *shape* of each result derived
from the calibration bands and the authors' companion papers.  "Expected
shape" lines state the reconstructed claim; the tables are what this
repository's simulator actually measures.  Absolute numbers are not
comparable to the original (different simulator substrate); orderings and
trends are the reproduction target.

Regenerate any single figure with::

    python -m repro.experiments --figure fig1

or everything (writes this file) with::

    python -m repro.experiments --all --write

Parallel regeneration (``--workers N``) produces byte-identical figures
to a serial run — fixed-seed cells are bit-deterministic across
processes and the executor reassembles them in task order.  Every
finished cell is checkpointed and every run resumes from the
checkpoints, so an interrupted regeneration continues where it stopped
(``REPRO_NO_CACHE=1`` recomputes every cell).  ``--backend`` picks the
execution backend (a process pool kept up across campaigns, or
multi-launcher ``filestore``) and ``--adaptive
pdr:0.02`` replicates each cell only until its 95 % CI half-width meets
the declared target (``--no-adaptive`` forces the fixed budget; the
per-cell stop decisions are logged to a JSONL audit file) — see
docs/CAMPAIGNS.md.

The protocol parameters these figures hold fixed can themselves be
searched: ``repro-dse`` runs factorial screenings and seeded
evolutionary searches over any config fields, with surrogate pruning
and Pareto reporting — see docs/DSE.md.

"""


def generate_report(
    figures: Iterable[str] | None = None,
    quick: bool = True,
    progress: Callable[[str], None] | None = None,
) -> str:
    """Render the full Markdown report for the selected figures."""
    names = list(figures) if figures is not None else list(ALL_FIGURES)
    sections = [_PREAMBLE]
    sections.append(
        f"_Generated {datetime.date.today().isoformat()} in "
        f"{'quick' if quick else 'full'} mode._\n"
    )
    for name in names:
        fn = ALL_FIGURES[name]
        if progress is not None:
            progress(f"regenerating {name} ...")
        result: FigureResult = fn(quick)
        sections.append(f"## {result.name}: {result.title}\n")
        if result.expectation:
            sections.append(f"**Expected shape:** {result.expectation}\n")
        sections.append("```text")
        from repro.metrics.summary import format_table

        sections.append(format_table(result.headers, result.rows))
        for chart in figure_charts(result):
            sections.append("")
            sections.append(chart)
        sections.append("```\n")
        if result.notes:
            sections.append(f"**Measured:** {result.notes}\n")
    return "\n".join(sections)


def write_experiments_md(
    path: str | Path | None = None,
    quick: bool = True,
    progress: Callable[[str], None] | None = None,
) -> Path:
    """Regenerate every figure and write EXPERIMENTS.md; returns the path."""
    if path is None:
        path = Path(__file__).resolve().parents[3] / "EXPERIMENTS.md"
    path = Path(path)
    path.write_text(generate_report(quick=quick, progress=progress))
    return path
