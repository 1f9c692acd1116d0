#!/usr/bin/env python3
"""Design-space exploration demo: tune NLR's gossip curve automatically.

The paper hand-picks the load-adaptive gossip parameters (γ, p_min, the
load-mix weights).  This demo lets the ``repro.dse`` subsystem map them:
a seeded 26-point Latin-hypercube screening of a three-dimensional slice
of the NLR parameter space, evaluated on a loaded 4×4 mesh, with a Pareto
report of the delivery/latency/overhead trade-off at the end.

Everything is deterministic: re-running this script reproduces the same
final population hash, and killing it mid-run and re-running loads every
finished cell from its checkpoint instead of starting over.  The state
file is written to ``results/dse-example/``.

Run:
    python examples/dse_nlr_tuning.py            (~1-2 minutes)
"""

from pathlib import Path

from repro.dse import (
    ContinuousDim,
    ParameterSpace,
    ScreenSettings,
    ascii_scatter,
    pareto_table,
    run_screening,
)
from repro.experiments.scenario import ScenarioConfig

OUT = Path("results/dse-example")


def main() -> None:
    space = ParameterSpace(
        "nlr-demo",
        [
            ContinuousDim("gamma", "nlr.gamma", 0.0, 1.0),
            ContinuousDim("p_min", "nlr.p_min", 0.1, 0.8),
            ContinuousDim("queue_weight", "nlr.queue_weight", 0.0, 1.0),
        ],
    )
    base = ScenarioConfig(
        protocol="nlr", grid_nx=4, grid_ny=4, n_flows=6,
        flow_rate_pps=50.0, sim_time_s=12.0, warmup_s=2.0, seed=7,
    )
    settings = ScreenSettings(lhs_n=26, seed=11)

    print(f"screening {space.name}: {len(space)} dimensions, "
          f"{settings.lhs_n}-point Latin hypercube")
    state = run_screening(space, base, settings, out_dir=OUT)

    best = state.best
    print(f"\nsimulations run: {state.simulations_run}")
    print(f"best point: γ={best.point['gamma']:.3f} "
          f"p_min={best.point['p_min']:.3f} "
          f"queue_weight={best.point['queue_weight']:.3f}")
    for key in sorted(best.objectives):
        print(f"  {key} = {best.objectives[key]:.4g}")
    print(f"final population hash: {state.final_population_hash}\n")

    print(pareto_table(state, top=10))
    print()
    print(ascii_scatter(state, x_key="pdr", y_key="mean_delay_s"))


if __name__ == "__main__":
    main()
