"""CLI for regenerating the reconstructed figures and tables.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments --figure fig1
    python -m repro.experiments --figure fig1 --figure fig2 --full
    python -m repro.experiments --all --write
    python -m repro.experiments --all --workers 4

``--workers N`` fans the sweep cells of each figure out over N worker
processes (tables stay byte-identical to serial runs).  Every finished
cell is checkpointed and every run resumes from the checkpoints, so an
interrupted regeneration picks up where it stopped and a repeat render
simulates nothing (``REPRO_NO_CACHE=1`` recomputes every cell).
``--backend`` selects how workers run
(``pool``/``filestore`` — see docs/CAMPAIGNS.md) and
``--adaptive METRIC:HALFWIDTH[:MIN_REPS]`` turns the replication count of
every replicated figure into a budget with sequential-CI early stopping
(without it, output is byte-identical to the fixed budget).
"""

from __future__ import annotations

import argparse
import sys

from repro.exec.policy import add_exec_args, configure, policy_from_args
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.report import write_experiments_md


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the reconstructed NLR evaluation figures.",
    )
    parser.add_argument(
        "--figure", action="append", default=[],
        help="figure/table id to regenerate (repeatable)",
    )
    parser.add_argument("--all", action="store_true", help="regenerate everything")
    parser.add_argument(
        "--full", action="store_true",
        help="full replication counts instead of the quick settings",
    )
    parser.add_argument(
        "--write", action="store_true",
        help="with --all: write EXPERIMENTS.md at the repo root",
    )
    parser.add_argument("--list", action="store_true", help="list figure ids")
    add_exec_args(parser)
    args = parser.parse_args(argv)
    configure(policy_from_args(parser, args))

    if args.list:
        for name, fn in ALL_FIGURES.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:18s} {doc}")
        return 0

    quick = not args.full
    if args.all:
        if args.write:
            path = write_experiments_md(quick=quick, progress=print)
            print(f"wrote {path}")
            return 0
        names = list(ALL_FIGURES)
    else:
        names = args.figure
        if not names:
            parser.error("give --figure, --all, or --list")
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        parser.error(f"unknown figure(s): {unknown}; try --list")
    for name in names:
        result = ALL_FIGURES[name](quick)
        print(result.render())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
