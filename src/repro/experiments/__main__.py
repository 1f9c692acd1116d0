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
``--adaptive METRIC:HALFWIDTH[:MIN_REPS]`` turns replication counts into
budgets with sequential-CI early stopping (``--no-adaptive`` is the
explicit fixed-budget default, byte-identical to historical output).
"""

from __future__ import annotations

import argparse
import sys

from repro.exec import configure, parse_adaptive_spec
from repro.exec.policy import BACKEND_CHOICES
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
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for sweep cells (default 1 = serial)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="S",
        help="wall-clock budget per simulation cell (default: unlimited)",
    )
    parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="re-attempts per failed/timed-out cell (default 1)",
    )
    parser.add_argument(
        "--backend", choices=BACKEND_CHOICES, default="auto",
        help="execution backend (auto = serial at --workers 1, else pool)",
    )
    parser.add_argument(
        "--claim-ttl", type=float, default=600.0, metavar="S",
        help="filestore backend: age after which a foreign-host claim "
             "file is considered stale (default 600)",
    )
    parser.add_argument(
        "--adaptive", default=None, metavar="METRIC:HW[:MIN_REPS]",
        help="stop replicating a cell once METRIC's 95%% CI half-width "
             "is ≤ HW (e.g. pdr:0.01:3); replication counts become budgets",
    )
    parser.add_argument(
        "--no-adaptive", action="store_true",
        help="force the fixed-budget path (the default; wins over --adaptive)",
    )
    args = parser.parse_args(argv)

    if args.workers < 1:
        parser.error("--workers must be ≥ 1")
    adaptive = None
    if args.adaptive and not args.no_adaptive:
        try:
            adaptive = parse_adaptive_spec(args.adaptive)
        except ValueError as exc:
            parser.error(str(exc))
    configure(
        workers=args.workers,
        task_timeout_s=args.task_timeout,
        retries=args.retries,
        backend=args.backend,
        claim_ttl_s=args.claim_ttl,
        adaptive=adaptive,
        # Progress/telemetry once execution is more than a plain serial loop.
        progress=args.workers > 1,
    )

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
