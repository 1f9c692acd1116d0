#!/usr/bin/env python3
"""Design-space exploration demo: tune NLR's gossip curve automatically.

The paper hand-picks the load-adaptive gossip parameters (γ, p_min, the
load-mix weights).  This demo lets the ``repro.dse`` subsystem find them:
a seeded evolutionary search over a three-dimensional slice of the NLR
parameter space, evaluated on a loaded 4×4 mesh, with surrogate pruning
skipping predictably poor candidates and a Pareto report of the
delivery/latency/overhead trade-off at the end.

Everything is deterministic: re-running this script reproduces the same
final population hash, and killing it mid-run and re-running resumes from
``results/dse-example/`` plus the per-cell checkpoints instead of
starting over.

Run:
    python examples/dse_nlr_tuning.py            (~1-2 minutes)
"""

from pathlib import Path

from repro.dse import (
    ContinuousDim,
    EvolutionarySearch,
    ParameterSpace,
    SearchSettings,
    ascii_scatter,
    pareto_table,
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
    settings = SearchSettings(
        population=8, generations=4, seed=11, elites=2,
        surrogate_min_train=8, prune_quantile=0.3,
    )

    print(f"searching {space.name}: {len(space)} dimensions, "
          f"{settings.population}×{settings.generations} evaluations budget")
    search = EvolutionarySearch(space, base, settings, out_dir=OUT)
    state = search.run(resume=True)  # picks up prior state if present

    best = state.best
    print(f"\nsimulations run: {state.simulations_run} "
          f"(pruned {state.evaluations_pruned} candidate evaluations)")
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
