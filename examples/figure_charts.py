#!/usr/bin/env python3
"""Render the reconstructed evaluation figures as terminal charts.

Regenerates (or loads from the on-disk cache) any numeric figures and
draws them with the built-in ASCII chart renderer — the whole evaluation
is viewable with zero plotting dependencies.

Run:
    python examples/figure_charts.py            # fig1 only (fast if cached)
    python examples/figure_charts.py fig1 fig6  # pick figures
"""

import sys

from repro.experiments.figures import ALL_FIGURES
from repro.experiments.report import figure_charts


def main() -> None:
    names = sys.argv[1:] or ["fig1"]
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        print(f"unknown figures: {unknown}; available: {sorted(ALL_FIGURES)}")
        raise SystemExit(2)
    for name in names:
        print(f"regenerating {name} (checkpointed cells are reused) ...")
        result = ALL_FIGURES[name](True)
        print(result.render())
        for chart in figure_charts(result):
            print()
            print(chart)
        print()


if __name__ == "__main__":
    main()
