#!/usr/bin/env python3
"""DSE surrogate-pruning benchmark: evaluations saved vs full factorial.

Screens the bundled NLR tuning slice twice — once evaluating every
factorial cell, once with the ridge surrogate pruning cells predicted
below the quantile — and records how many simulations the surrogate
saved, alongside the invariants that make the saving trustworthy:

* the reported best cell (point, fitness) is identical in both runs;
* the prune log lists as pruned exactly ``design − evaluated`` cells,
  each with ``predicted < threshold``.

The record lands in the repo's perf trajectory as
``BENCH_dse_<rev>[-quick].json``, the ``dse-pruning`` kind of the envelope
in ``record.py``; ``--check`` turns the invariants into exit-code gates
(CI runs ``--quick --check``).

Run:
    python benchmarks/bench_dse_pruning.py --quick --check --out bench-out
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time
from pathlib import Path

from record import envelope, git_rev, write

REPO_ROOT = Path(__file__).resolve().parents[1]


def build_space():
    from repro.dse import ContinuousDim, ParameterSpace

    # The NLR gossip-curve slice of the bundled example space: enough
    # interaction structure that a degree-2 surrogate has something to
    # learn, small enough that the full factorial stays benchmarkable.
    return ParameterSpace(
        "nlr-prune-bench",
        [
            ContinuousDim("gamma", "nlr.gamma", 0.0, 1.0),
            ContinuousDim("p_min", "nlr.p_min", 0.1, 0.8),
            ContinuousDim("queue_weight", "nlr.queue_weight", 0.0, 1.0),
        ],
    )


def build_base():
    from repro.experiments.scenario import ScenarioConfig

    # Loaded enough that parameter points actually score differently.
    return ScenarioConfig(
        protocol="nlr", grid_nx=3, grid_ny=3, n_flows=4,
        flow_rate_pps=20.0, sim_time_s=10.0, warmup_s=2.0, seed=3,
    )


def run_pair(levels: int, quantile: float, scratch: Path) -> dict:
    from repro.dse import ScreenSettings, run_screening

    results = {}
    for mode, settings in (
        ("full", ScreenSettings(levels=levels, surrogate=False, seed=5)),
        ("pruned", ScreenSettings(levels=levels, prune_quantile=quantile,
                                  seed=5)),
    ):
        # Separate cell caches: shared checkpoints would zero the pruned
        # run's simulation count and fake the saving.
        os.environ["REPRO_CACHE_DIR"] = str(scratch / mode)
        t0 = time.perf_counter()
        res = run_screening(build_space(), build_base(), settings)
        results[mode] = {
            "result": res,
            "wall_s": round(time.perf_counter() - t0, 3),
        }
    return results


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="3 factorial levels instead of 4 (CI mode)")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 when a pruning invariant fails")
    ap.add_argument("--quantile", type=float, default=0.25,
                    help="prune quantile (default 0.25)")
    ap.add_argument("--rev", default=None,
                    help="label (default: git short rev)")
    ap.add_argument("--out", type=Path, default=REPO_ROOT,
                    help="directory for BENCH_dse_<rev>.json")
    args = ap.parse_args(argv)

    levels = 3 if args.quick else 4
    rev = args.rev or git_rev()
    print(f"dse pruning bench: rev={rev} levels={levels} "
          f"quantile={args.quantile}")

    with tempfile.TemporaryDirectory(prefix="bench-dse-") as scratch:
        pair = run_pair(levels, args.quantile, Path(scratch))

    full, pruned = pair["full"]["result"], pair["pruned"]["result"]
    saved = full.simulations_run - pruned.simulations_run
    detail = {
        "levels": levels,
        "quantile": args.quantile,
        "design_size": full.design_size,
        "simulations_full": full.simulations_run,
        "simulations_pruned_run": pruned.simulations_run,
        "evaluations_pruned": pruned.evaluations_pruned,
        "evaluations_saved": saved,
        "saved_fraction": round(saved / full.simulations_run, 4),
        "wall_s_full": pair["full"]["wall_s"],
        "wall_s_pruned": pair["pruned"]["wall_s"],
        "best_point_full": full.best.point,
        "best_point_pruned": pruned.best.point,
        "best_fitness_full": full.best.fitness,
        "best_fitness_pruned": pruned.best.fitness,
    }

    print(f"  design: {full.design_size} cells")
    print(f"  simulations: full={full.simulations_run} "
          f"pruned-run={pruned.simulations_run} "
          f"(saved {saved}, {detail['saved_fraction']:.0%})")
    print(f"  wall: full={detail['wall_s_full']}s "
          f"pruned={detail['wall_s_pruned']}s")
    print(f"  best fitness: full={full.best.fitness:.6g} "
          f"pruned={pruned.best.fitness:.6g}")

    suffix = "-quick" if args.quick else ""
    write(envelope("dse-pruning", rev, args.quick, detail=detail),
          args.out / f"BENCH_dse_{rev}{suffix}.json")

    failures = []
    if pruned.evaluations_pruned == 0:
        failures.append("surrogate pruned nothing — no saving to report")
    if saved != pruned.evaluations_pruned:
        failures.append(
            f"saved {saved} != pruned {pruned.evaluations_pruned} — "
            "a pruned cell was simulated anyway"
        )
    if len(pruned.archive) != full.design_size - pruned.evaluations_pruned:
        failures.append("evaluated + pruned does not cover the design")
    for d in pruned.generations[0].prune_log:
        if d.pruned != (d.predicted < d.threshold):
            failures.append(f"quantile invariant violated at {d.point}")
            break
    if pruned.best.key != full.best.key:
        failures.append(
            f"pruning changed the best cell: {pruned.best.point} "
            f"vs {full.best.point}"
        )
    elif pruned.best.fitness != full.best.fitness:
        failures.append("pruning changed the best cell's fitness")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1 if args.check else 0
    print("all pruning invariants hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
