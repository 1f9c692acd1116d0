#!/usr/bin/env python
"""Adaptive campaign fabric benchmark → ``BENCH_pr8.json``.

Three claims of the campaign fabric, measured and gated:

1. **Sequential-CI early stopping saves replicate-seconds.**  A fig6-style
   protocol × load sweep runs twice from scratch: once at the full fixed
   seed budget, once under an :class:`~repro.exec.AdaptivePolicy`
   (``pdr`` half-width target).  Gate: the adaptive arm spends ≥ 30 %
   fewer replicate-seconds, and every cell's adaptively-stopped mean lies
   within the *declared* half-width of the full-budget mean (the adaptive
   runs are a seed-ladder prefix of the full ladder, so this is a direct
   accuracy audit, not a statistical hope).

2. **Keeping the shared pool up amortises worker startup.**  A burst of
   small campaigns — the replicate-wave / DSE-generation shape — runs on
   the shared pool three ways: cold (``shutdown_shared_pools()``
   before every campaign, which is what a fresh pool per campaign cost),
   kept up with its one fork charged inside the window, and steady-state
   (workers already up, the sustained regime of a long sweep session).
   The record's ``pool_kept_up_vs_reforked`` section holds
   ``reforked_wall_s`` (the cold arm) and ``kept_up_wall_s`` /
   ``kept_up_steady_wall_s`` (the kept-up arms).  Both speedups are
   recorded; on multi-core machines steady-state must exceed 1.05×.

3. **The fixed budget on the shared pool stays byte-identical and faster.**
   The sweep's fixed-budget aggregate through the pool must equal
   the serial reference bit for bit, and with two or more cores the pool
   arm must run it at least 1.2× faster than serial (2.5× with four
   workers on four or more cores).

The record is the ``adaptive-campaign`` kind of the envelope in
``record.py``; its campaign-shaped sections live under ``detail``.

Usage::

    PYTHONPATH=src python benchmarks/bench_adaptive_campaign.py
        [--quick] [--check] [--out DIR] [--rev LABEL]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.analysis.stats import mean_ci
from repro.exec import (
    AdaptivePolicy,
    ExecPolicy,
    replicate_cells,
    run_configs,
    shutdown_shared_pools,
)
from repro.experiments.scenario import ScenarioConfig
from record import available_cores, envelope, git_rev, write

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The declared precision contract the savings are bought against.
POLICY = AdaptivePolicy(metric="pdr", ci_halfwidth=0.02, min_reps=3, wave=2)


# --------------------------------------------------------------------- #
# 1. Adaptive sweep vs full budget
# --------------------------------------------------------------------- #
def _sweep_cells(quick: bool) -> list[tuple[str, ScenarioConfig]]:
    """Fig6-flavoured protocol × offered-load grid (batched kernel on)."""
    base = ScenarioConfig(
        grid_nx=4, grid_ny=4, spacing_m=230.0, n_flows=6,
        flow_pattern="gateway", n_gateways=2,
        sim_time_s=8.0 if quick else 15.0, warmup_s=2.0, seed=500,
        batched_kernel=True,
    )
    rates = (20.0, 45.0) if quick else (20.0, 35.0, 45.0, 70.0)
    return [
        (f"{proto}@{rate:g}pps",
         replace(base, protocol=proto, flow_rate_pps=rate))
        for proto in ("aodv", "nlr")
        for rate in rates
    ]


def bench_adaptive_sweep(quick: bool) -> dict:
    cells = _sweep_cells(quick)
    budget = 6 if quick else 10
    # checkpoint=False keeps both arms honest: identical configs must not
    # serve each other's runs from the content-addressed cell store.
    policy = ExecPolicy(workers=1, checkpoint=False)

    full: dict[str, list] = {}
    t0 = time.perf_counter()
    for key, config in cells:
        configs = [replace(config, seed=config.seed + k) for k in range(budget)]
        full[key] = run_configs(f"bench-full-{key}", configs, policy)
    full_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = replicate_cells(
        "bench-adaptive", cells, budget, replace(policy, adaptive=POLICY)
    )
    adaptive_wall = time.perf_counter() - t0

    full_secs = sum(r.wallclock_s for runs in full.values() for r in runs)
    adaptive_secs = sum(
        r.wallclock_s for runs in report.results.values() for r in runs
    )
    per_cell = []
    max_dev = 0.0
    for key, _ in cells:
        full_mean = mean_ci([r.as_dict()["pdr"] for r in full[key]]).mean
        used = report.results[key]
        adaptive_mean = mean_ci([r.as_dict()["pdr"] for r in used]).mean
        dev = abs(adaptive_mean - full_mean)
        max_dev = max(max_dev, dev)
        per_cell.append({
            "cell": key,
            "n_used": len(used),
            "n_budget": budget,
            "full_mean_pdr": round(full_mean, 6),
            "adaptive_mean_pdr": round(adaptive_mean, 6),
            "abs_deviation": round(dev, 6),
        })
    return {
        "policy": POLICY.describe(),
        "declared_halfwidth": POLICY.ci_halfwidth,
        "cells": len(cells),
        "budget_per_cell": budget,
        "full_replicates": budget * len(cells),
        "adaptive_replicates": report.replicates_used,
        "full_replicate_seconds": round(full_secs, 3),
        "adaptive_replicate_seconds": round(adaptive_secs, 3),
        "full_wall_s": round(full_wall, 3),
        "adaptive_wall_s": round(adaptive_wall, 3),
        "saved_replicate_seconds_fraction": round(
            1.0 - adaptive_secs / full_secs, 4),
        "saved_replicates_fraction": round(
            1.0 - report.replicates_used / (budget * len(cells)), 4),
        "max_mean_deviation": round(max_dev, 6),
        "waves": report.waves,
        "per_cell": per_cell,
        "decisions": [d.to_dict() for d in report.decisions],
    }


# --------------------------------------------------------------------- #
# 2. Shared pool kept up vs re-forked per campaign
# --------------------------------------------------------------------- #
def bench_pool_reuse(quick: bool, workers: int) -> dict:
    n_campaigns = 4 if quick else 6
    base = ScenarioConfig(
        protocol="nlr", grid_nx=3, grid_ny=3, n_flows=2,
        sim_time_s=3.0, warmup_s=1.0, seed=700, batched_kernel=True,
    )
    bursts = [
        [replace(base, seed=base.seed + 10 * c + k) for k in range(workers)]
        for c in range(n_campaigns)
    ]
    policy = ExecPolicy(workers=workers, checkpoint=False)

    def run_burst(arm: str, fresh_per_campaign: bool) -> float:
        t0 = time.perf_counter()
        for c, configs in enumerate(bursts):
            if fresh_per_campaign:
                shutdown_shared_pools()
            run_configs(f"bench-{arm}-{c}", configs, policy)
        return time.perf_counter() - t0

    cold_each_wall = run_burst("cold", fresh_per_campaign=True)
    shutdown_shared_pools()  # the kept-up arm pays its one fork in-window
    kept_up_wall = run_burst("kept-up", fresh_per_campaign=False)
    steady_wall = run_burst("steady", fresh_per_campaign=False)
    shutdown_shared_pools()
    return {
        "campaigns": n_campaigns,
        "cells_per_campaign": workers,
        "workers": workers,
        "reforked_wall_s": round(cold_each_wall, 3),
        "kept_up_wall_s": round(kept_up_wall, 3),
        "kept_up_steady_wall_s": round(steady_wall, 3),
        "cold_speedup": round(cold_each_wall / kept_up_wall, 3),
        "steady_speedup": round(cold_each_wall / steady_wall, 3),
    }


# --------------------------------------------------------------------- #
# 3. Fixed-budget byte-identity and speedup through the shared pool
# --------------------------------------------------------------------- #
def bench_identity(quick: bool, workers: int) -> dict:
    cells = _sweep_cells(quick)
    configs = [replace(c, seed=c.seed + k) for _, c in cells for k in (0, 1)]
    t0 = time.perf_counter()
    serial = run_configs(
        "bench-ident-serial", configs, ExecPolicy(checkpoint=False)
    )
    t1 = time.perf_counter()
    pool = run_configs(
        "bench-ident-pool", configs,
        ExecPolicy(workers=workers, checkpoint=False),
    )
    t2 = time.perf_counter()
    a = json.dumps([r.as_dict() for r in serial], sort_keys=True)
    b = json.dumps([r.as_dict() for r in pool], sort_keys=True)
    return {"cells": len(configs), "pool_matches_serial": a == b,
            "serial_wall_s": round(t1 - t0, 3),
            "pool_wall_s": round(t2 - t1, 3),
            "pool_speedup": round((t1 - t0) / (t2 - t1), 3)}


# --------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="smaller sweep (CI mode)")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 if any gate fails")
    ap.add_argument("--rev", default=None, help="label (default: git rev)")
    ap.add_argument("--out", type=Path, default=REPO_ROOT,
                    help="directory for the record (default: repo root)")
    ap.add_argument("--name", default="BENCH_pr8.json",
                    help="record file name")
    args = ap.parse_args(argv)

    cores = available_cores()
    workers = min(4, max(2, cores))
    print(f"adaptive campaign benchmark: quick={args.quick} "
          f"workers={workers} ({cores} cores visible)")

    print("  [1/3] adaptive sweep vs full budget ...", flush=True)
    sweep = bench_adaptive_sweep(args.quick)
    print(f"        {sweep['adaptive_replicates']}/{sweep['full_replicates']}"
          f" replicates, {sweep['saved_replicate_seconds_fraction']:.0%} "
          f"replicate-seconds saved, max mean deviation "
          f"{sweep['max_mean_deviation']:.4f}")

    print("  [2/3] shared pool kept up vs re-forked per campaign ...",
          flush=True)
    reuse = bench_pool_reuse(args.quick, workers)
    print(f"        re-forked {reuse['reforked_wall_s']}s vs kept up "
          f"{reuse['kept_up_steady_wall_s']}s steady "
          f"({reuse['kept_up_wall_s']}s incl. first fork) → "
          f"{reuse['steady_speedup']}× steady, "
          f"{reuse['cold_speedup']}× cold")

    print("  [3/3] fixed-budget pool byte-identity ...", flush=True)
    identity = bench_identity(args.quick, workers)
    print(f"        identical: {identity['pool_matches_serial']}, "
          f"serial {identity['serial_wall_s']}s vs pool "
          f"{identity['pool_wall_s']}s → {identity['pool_speedup']}×")

    derived = {
        "replicate_seconds_saved": sweep["saved_replicate_seconds_fraction"],
        "kept_up_vs_reforked_steady_speedup": reuse["steady_speedup"],
        "pool_vs_serial_speedup": identity["pool_speedup"],
    }
    write(envelope("adaptive-campaign", args.rev or git_rev(), args.quick,
                   derived=derived,
                   detail={"sweep": sweep, "pool_kept_up_vs_reforked": reuse,
                           "identity": identity}),
          args.out / args.name)

    failures: list[str] = []
    if sweep["saved_replicate_seconds_fraction"] < 0.30:
        failures.append(
            f"adaptive stopping saved only "
            f"{sweep['saved_replicate_seconds_fraction']:.0%} "
            "replicate-seconds (< 30% floor)"
        )
    if sweep["max_mean_deviation"] > POLICY.ci_halfwidth:
        failures.append(
            f"adaptive mean drifted {sweep['max_mean_deviation']:.4f} "
            f"from the full-budget mean (> declared "
            f"{POLICY.ci_halfwidth} half-width)"
        )
    if not identity["pool_matches_serial"]:
        failures.append("pool aggregate diverged from serial")
    floor = 2.5 if workers >= 4 else 1.2
    if cores >= 2 and identity["pool_speedup"] < floor:
        failures.append(
            f"pool ran the fixed-budget sweep only "
            f"{identity['pool_speedup']}× faster than serial with {workers} "
            f"workers on {cores} cores (< {floor}×)"
        )
    if cores >= 2 and reuse["steady_speedup"] < 1.05:
        failures.append(
            f"kept-up pool steady-state speedup {reuse['steady_speedup']}× "
            f"below 1.05× on a {cores}-core machine"
        )
    if failures:
        print("\nGATE FAILURES:")
        for msg in failures:
            print(f"  - {msg}")
        return 1 if args.check else 0
    print("\nall gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
