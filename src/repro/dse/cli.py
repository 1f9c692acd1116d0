"""``repro-dse``: design-space exploration from the command line.

Usage::

    repro-dse template -o space.json            # bundled example space
    repro-dse search --space space.json --out results/dse/run1 \\
        --generations 6 --population 12 --workers 4
    repro-dse search --space space.json --out results/dse/run1 --resume
    repro-dse screen --space space.json --out results/dse/fact \\
        --levels 3 --prune-quantile 0.25
    repro-dse report results/dse/run1                 # Pareto table
    repro-dse report results/dse/run1 --format csv -o front.csv
    repro-dse report results/dse/run1 --format scatter --x pdr --y mean_delay_s

(or ``python -m repro.dse ...`` without installing the entry point).
Searches, screenings and table reports print the final population hash;
a resumed run after a kill must reproduce the hash of an uninterrupted run
byte-for-byte — CI asserts exactly that.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.dse.evolve import EvolutionarySearch, SearchSettings
from repro.dse.objectives import DEFAULT_OBJECTIVES, parse_objective
from repro.dse.report import ascii_scatter, pareto_table, to_csv
from repro.dse.screen import ScreenSettings, run_screening
from repro.dse.space import ParameterSpace
from repro.dse.state import SearchState, load_state
from repro.exec.policy import add_exec_args, policy_from_args
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.serialization import load_config

__all__ = ["main", "EXAMPLE_SPACE"]

#: The bundled example space: the NLR tunables the paper hand-sets,
#: bounded to their meaningful ranges (see docs/DSE.md).
EXAMPLE_SPACE: dict = {
    "name": "nlr-tuning",
    "dimensions": [
        {"name": "gamma", "field": "nlr.gamma", "type": "continuous",
         "low": 0.0, "high": 1.0},
        {"name": "p_min", "field": "nlr.p_min", "type": "continuous",
         "low": 0.1, "high": 0.8},
        {"name": "queue_weight", "field": "nlr.queue_weight",
         "type": "continuous", "low": 0.0, "high": 1.0},
        {"name": "own_weight", "field": "nlr.own_weight",
         "type": "continuous", "low": 0.0, "high": 1.0},
        {"name": "hop_weight", "field": "nlr.hop_weight",
         "type": "continuous", "low": 0.0, "high": 1.0},
        {"name": "rerr_limit", "field": "aodv.rerr_rate_limit_per_s",
         "type": "integer", "low": 2, "high": 30},
    ],
}


def _add_common_search_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", required=True, help="parameter-space JSON file")
    p.add_argument(
        "--base", default=None, metavar="CONFIG.json",
        help="base ScenarioConfig JSON (default: a small NLR grid scenario)",
    )
    p.add_argument("--out", required=True, help="output directory for state.json")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--n-seeds", type=int, default=1, metavar="K",
        help="replicate seeds per evaluated point (default 1)",
    )
    p.add_argument(
        "--objective", action="append", default=None, metavar="KEY:GOAL[:W[:S]]",
        help="objective spec, repeatable (default: pdr:max, mean_delay_s:min, "
        "normalized_routing_load:min)",
    )
    p.add_argument(
        "--no-surrogate", action="store_true",
        help="disable surrogate pruning (evaluate every candidate)",
    )
    p.add_argument(
        "--prune-quantile", type=float, default=None, metavar="Q",
        help="prune candidates predicted below this quantile",
    )
    add_exec_args(p)


def _base_config(args) -> ScenarioConfig:
    if args.base:
        return load_config(args.base)
    # A deliberately small default so `repro-dse` is usable out of the box;
    # real campaigns pass --base with their scenario of record.
    return ScenarioConfig(
        protocol="nlr", grid_nx=4, grid_ny=4, n_flows=4,
        sim_time_s=30.0, warmup_s=5.0, seed=args.seed,
    )


def _objectives(args):
    if args.objective:
        return tuple(parse_objective(s) for s in args.objective)
    return DEFAULT_OBJECTIVES


def _print_outcome(kind: str, state: SearchState, out: Path) -> None:
    best = state.best
    print(f"{kind} done: {len(state.pareto())} Pareto points, "
          f"{state.simulations_run} simulations run, "
          f"{state.evaluations_pruned} evaluations pruned")
    print(f"best (weighted): {json.dumps(best.point, sort_keys=True)} "
          f"fitness={best.fitness:.6g}")
    for key in sorted(best.objectives):
        print(f"  {key} = {best.objectives[key]:.6g}")
    print(f"state: {out / 'state.json'}")
    print(f"final population hash: {state.final_population_hash}")


def cmd_template(args) -> int:
    text = json.dumps(EXAMPLE_SPACE, indent=2) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    return 0


def cmd_search(args) -> int:
    space = ParameterSpace.load(args.space)
    settings = SearchSettings(
        population=args.population,
        generations=args.generations,
        seed=args.seed,
        n_seeds=args.n_seeds,
        elites=args.elites,
        surrogate=not args.no_surrogate,
        **(
            {"prune_quantile": args.prune_quantile}
            if args.prune_quantile is not None
            else {}
        ),
    )
    out = Path(args.out)
    search = EvolutionarySearch(
        space,
        _base_config(args),
        settings,
        objectives=_objectives(args),
        out_dir=out,
        policy=args.policy,
    )
    _print_outcome("search", search.run(resume=args.resume), out)
    return 0


def cmd_screen(args) -> int:
    space = ParameterSpace.load(args.space)
    settings = ScreenSettings(
        levels=args.levels,
        lhs_n=args.lhs,
        seed=args.seed,
        n_seeds=args.n_seeds,
        surrogate=not args.no_surrogate,
        **(
            {"prune_quantile": args.prune_quantile}
            if args.prune_quantile is not None
            else {}
        ),
    )
    out = Path(args.out)
    state = run_screening(
        space,
        _base_config(args),
        settings,
        objectives=_objectives(args),
        out_dir=out,
        policy=args.policy,
    )
    print(f"design: {state.design_size} cells, "
          f"{len(state.archive)} evaluated, "
          f"{state.evaluations_pruned} pruned by surrogate")
    _print_outcome("screen", state, out)
    return 0


def cmd_report(args) -> int:
    state = load_state(args.out_dir)
    if args.format == "table":
        text = pareto_table(state, top=args.top)
    elif args.format == "csv":
        text = to_csv(state)
    else:
        text = ascii_scatter(state, x_key=args.x, y_key=args.y)
    if args.output and args.output != "-":
        Path(args.output).write_text(
            text if text.endswith("\n") else text + "\n"
        )
        print(f"wrote {args.output}")
    else:
        print(text)
    if args.format == "table":
        print(f"\nfinal population hash: {state.final_population_hash}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-dse",
        description="Design-space exploration over NLR protocol parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("template", help="write the bundled example space")
    p.add_argument("-o", "--output", default="-", help="file or - for stdout")
    p.set_defaults(func=cmd_template)

    p = sub.add_parser("search", help="evolutionary search")
    _add_common_search_args(p)
    p.add_argument("--generations", type=int, default=6)
    p.add_argument("--population", type=int, default=12)
    p.add_argument("--elites", type=int, default=2)
    p.add_argument(
        "--resume", action="store_true",
        help="continue from <out>/state.json and per-cell checkpoints",
    )
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("screen", help="factorial / LHS screening")
    _add_common_search_args(p)
    p.add_argument(
        "--levels", type=int, default=3,
        help="factorial levels per dimension (default 3)",
    )
    p.add_argument(
        "--lhs", type=int, default=0, metavar="N",
        help="use an N-point Latin hypercube instead of a factorial",
    )
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("report", help="Pareto front from a state file")
    p.add_argument("out_dir", help="search output dir (or state.json path)")
    p.add_argument(
        "--format", choices=("table", "csv", "scatter"), default="table"
    )
    p.add_argument("--top", type=int, default=0, help="limit table rows")
    p.add_argument("--x", default=None, help="scatter x objective")
    p.add_argument("--y", default=None, help="scatter y objective")
    p.add_argument("-o", "--output", default=None, help="write to file")
    p.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    if args.command in ("search", "screen"):
        args.policy = policy_from_args(parser, args)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"repro-dse: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — not an error.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
