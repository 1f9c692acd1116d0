"""Single-scenario CLI: ``python -m repro``.

Runs one simulation and prints the headline metrics, optionally with a
topology map and per-node forwarding distribution.  For the full
evaluation harness use ``python -m repro.experiments``.

Examples::

    python -m repro --protocol nlr --grid 5x5 --flows 10 \\
        --pattern gateway --gateways 2 --rate 50 --time 30 --map
    python -m repro --protocol aodv --topology random --nodes 20 --seed 3
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import PROTOCOLS, ScenarioConfig
from repro.metrics.fairness import jain_index, load_concentration
from repro.metrics.summary import format_table
from repro.topology.render import render_topology


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run one wireless-mesh routing scenario.",
    )
    parser.add_argument("--protocol", default="nlr",
                        choices=sorted(PROTOCOLS), help="routing scheme")
    parser.add_argument("--topology", default="grid",
                        choices=["grid", "random"])
    parser.add_argument("--grid", default="5x5", metavar="NXxNY",
                        help="grid dimensions, e.g. 5x5")
    parser.add_argument("--spacing", type=float, default=230.0,
                        help="grid spacing in metres")
    parser.add_argument("--nodes", type=int, default=25,
                        help="node count for the random topology")
    parser.add_argument("--flows", type=int, default=10)
    parser.add_argument("--pattern", default="gateway",
                        choices=["random", "gateway"])
    parser.add_argument("--gateways", type=int, default=2)
    parser.add_argument("--rate", type=float, default=30.0,
                        help="per-flow packet rate (pps)")
    parser.add_argument("--payload", type=int, default=512)
    parser.add_argument("--time", type=float, default=25.0,
                        help="simulated seconds")
    parser.add_argument("--warmup", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--mobility", default="static",
                        choices=["static", "rwp"])
    parser.add_argument("--map", action="store_true",
                        help="print the topology map")
    parser.add_argument("--loads", action="store_true",
                        help="print the per-node forwarding distribution")
    parser.add_argument("--config", metavar="FILE",
                        help="load the full scenario from a JSON file "
                             "(other scenario flags are ignored)")
    parser.add_argument("--save-config", metavar="FILE",
                        help="write the effective scenario JSON before running")
    return parser


def _bad_value(exc: ValueError) -> int:
    """A scenario value the config or the network rejects: one line, exit 2."""
    print(f"python -m repro: error: {exc}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.config:
        from repro.experiments.serialization import load_config

        try:
            config = load_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"cannot load --config {args.config!r}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        try:
            nx, ny = (int(v) for v in args.grid.lower().split("x"))
        except ValueError:
            print(f"bad --grid {args.grid!r}; expected e.g. 5x5",
                  file=sys.stderr)
            return 2
        try:
            config = ScenarioConfig(
                protocol=args.protocol,
                topology=args.topology,
                grid_nx=nx, grid_ny=ny, spacing_m=args.spacing,
                n_nodes=args.nodes,
                n_flows=args.flows,
                flow_pattern=args.pattern,
                n_gateways=args.gateways,
                flow_rate_pps=args.rate,
                payload_bytes=args.payload,
                sim_time_s=args.time,
                warmup_s=args.warmup,
                seed=args.seed,
                mobility=args.mobility,
            )
        except ValueError as exc:
            return _bad_value(exc)
    if args.save_config:
        from repro.experiments.serialization import save_config

        save_config(config, args.save_config)
        print(f"wrote {args.save_config}")
    try:
        # Building the network checks what the config alone cannot (grid
        # size, gateway count against the node count, payload, ...).
        result = run_scenario(config)
    except ValueError as exc:
        return _bad_value(exc)
    print(
        format_table(
            ["metric", "value"],
            [
                ["protocol", config.protocol],
                ["nodes", config.node_count],
                ["flows", f"{config.n_flows} ({config.flow_pattern})"],
                ["offered load",
                 f"{config.flow_rate_pps:g} pps/flow × {config.payload_bytes} B"],
                ["pdr", round(result.pdr, 4)],
                ["mean delay", f"{result.mean_delay_s * 1000:.2f} ms"],
                ["throughput", f"{result.throughput_bps / 1e3:.1f} kb/s"],
                ["mean hops", round(result.mean_hops, 2)],
                ["rreq tx", int(result.rreq_tx)],
                ["norm. routing load", round(result.normalized_routing_load, 3)],
                ["jain fairness", round(result.jain_fairness, 4)],
                ["events", result.events_executed],
                ["wallclock", f"{result.wallclock_s:.1f} s"],
            ],
            title=f"{config.protocol} on {config.node_count} nodes, seed {config.seed}",
        )
    )
    if args.map:
        from repro.experiments.scenario import build_network

        net = build_network(config)
        print()
        print(
            render_topology(
                net.positions,
                gateways=net.gateways,
                sources=[f.src for f in net.flows],
                destinations=[f.dst for f in net.flows],
            )
        )
    if args.loads:
        per_node = result.per_node_forwarded
        print()
        print(
            format_table(
                ["node", "forwarded"],
                [[i, int(v)] for i, v in enumerate(per_node) if v > 0],
                title=(
                    f"forwarding load (top-3 share "
                    f"{load_concentration(per_node, 3):.2f}, "
                    f"jain {jain_index(per_node):.3f})"
                ),
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
