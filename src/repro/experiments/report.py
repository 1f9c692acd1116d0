"""EXPERIMENTS.md generation: run every figure, render paper-vs-measured."""

from __future__ import annotations

import datetime
import subprocess
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

Each figure's **Claims** check its expected shape on its own per-seed
runs.  A claim compares one cell's mean with a threshold, or the
difference of two cells with a margin, pairing run k of one cell with
run k of the other over their common seed ladder (a pair with a NaN is
dropped).  Each line gives the estimate, its 95 % Student-t interval and
the number of runs n.  `holds` means the whole interval lies on the
claimed side, `contradicted` that it lies wholly on the other side, and
`unresolved` anything else; validation_mac's single deterministic runs
are compared as values (`n=1`).  Quick-mode sweep cells (fig1–fig4,
fig6, ext_mobility, resilience) carry 2 seeds, so their intervals use
t(1) = 12.7: there `unresolved` means too few runs, not a failed shape.
In the ablations, a variant's `pdr` and `jain_fairness` claims against
AODV form one either-or check: the variant is not dominated by AODV
when either holds.

Regenerate any single figure with::

    python -m repro.experiments --figure fig1

or everything (writes this file) with::

    python -m repro.experiments --all --write

Parallel regeneration (``--workers N``) produces byte-identical figures
to a serial run — fixed-seed cells are bit-deterministic across
processes and the executor reassembles them in task order.  Every
finished cell is checkpointed and every run resumes from the
checkpoints, so an interrupted regeneration continues where it stopped
(``REPRO_NO_CACHE=1`` recomputes every cell).  ``--workers 1`` runs
cells in-process; more run them on one process pool kept up across
campaigns.  ``--adaptive pdr:0.02`` replicates each cell only until its
95 % CI half-width meets the declared target in every replicated figure
(without it each cell buys the fixed budget; the per-cell stop decisions
are logged to a JSONL audit file) — see docs/CAMPAIGNS.md.

The protocol parameters these figures hold fixed can themselves be
explored: ``repro-dse`` runs factorial and Latin-hypercube screenings
over any config fields, with Pareto reporting — see docs/DSE.md.

"""


def _source_rev() -> str:
    """``git describe --always --dirty`` of the source tree, or ``unknown``."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def generate_report(
    figures: Iterable[str] | None = None,
    quick: bool = True,
    progress: Callable[[str], None] | None = None,
) -> str:
    """Render the full Markdown report for the selected figures."""
    names = list(figures) if figures is not None else list(ALL_FIGURES)
    sections = [_PREAMBLE]
    sections.append(
        f"_Generated {datetime.date.today().isoformat()} at rev "
        f"`{_source_rev()}` in {'quick' if quick else 'full'} mode._\n"
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
        if result.claims:
            sections.append("**Claims:**\n")
            sections.append("```text")
            sections.extend(str(claim) for claim in result.claims)
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
