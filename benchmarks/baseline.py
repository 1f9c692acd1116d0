#!/usr/bin/env python
"""Perf-regression baseline runner.

Executes the substrate kernels the figure sweeps stress (event heap, timer
churn, channel dispatch with/without the spatial index, mobility-driven
cache invalidation, busy-ratio tracking, a fig-6-style end-to-end
scalability scenario at N ≥ 100 nodes, and the figures' reference
operating point with both kernels), then emits ``BENCH_<rev>.json``
at the repo root with wall-clock, events/s, and peak RSS per kernel plus
machine-independent derived speedup ratios.

The emitted file is the perf trajectory: each run diffs against the most
recent comparable baseline (same ``--quick`` mode) and ``--check`` turns a
>``--tolerance`` regression into a non-zero exit for CI.  Wall-clock gates
only apply when the baseline was recorded on the same CPU model; across
machines only the derived speedup ratios (spatial vs exhaustive) are
gated, since those are dimensionless.

Usage::

    PYTHONPATH=src python benchmarks/baseline.py [--quick] [--check]
        [--tolerance 0.25] [--ratio-tolerance 0.4] [--rev LABEL] [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.experiments.figures import REFERENCE_POINT
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.mac.busy_monitor import BusyMonitor
from repro.phy.channel import Channel
from repro.phy.error_models import SinrThresholdErrorModel
from repro.phy.frame import PhyFrame
from repro.phy.propagation import TwoRayGround
from repro.phy.radio import PhyConfig, Radio
from repro.sim.engine import Simulator
from repro.sim.process import Timer
from repro.sim.rng import RandomStreams

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 1


# --------------------------------------------------------------------- #
# Kernels
# --------------------------------------------------------------------- #
def _grid_channel(nx: int, ny: int, spacing: float, spatial: bool) -> Channel:
    sim = Simulator()
    ch = Channel(sim, TwoRayGround(), propagation_delay=False,
                 spatial_index=spatial)
    rs = RandomStreams(1)
    for i in range(nx * ny):
        r = Radio(sim, i, PhyConfig(), rs.stream(f"p{i}"))
        ch.register(r, (spacing * (i % nx), spacing * (i // nx)))
    return ch


def kernel_engine_events(quick: bool) -> dict:
    n = 50_000 if quick else 200_000
    fn = lambda: None  # noqa: E731
    t0 = time.perf_counter()
    sim = Simulator()
    for k in range(n):
        sim.schedule(k * 1e-6, fn)
    sim.run()
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "events": n, "events_per_s": n / wall}


def kernel_timer_churn(quick: bool) -> dict:
    n = 20_000 if quick else 100_000
    t0 = time.perf_counter()
    sim = Simulator()
    t = Timer(sim, lambda: None)
    for _ in range(n):
        t.restart(1.0)
    t.cancel()
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "restarts": n, "restarts_per_s": n / wall,
            "final_heap_len": len(sim._heap)}


def _kernel_dispatch(quick: bool, spatial: bool) -> dict:
    # Cold-plan regime: every plan rebuilt each round.  The exhaustive
    # path's single vectorised pass is hard to beat at small N (crossover
    # sits near N ≈ 500 on 2026 hardware), so this kernel measures the
    # asymptotic regime; the steady-state win is the mobility kernel below.
    nx = 40 if quick else 50
    rounds = 3 if quick else 5
    ch = _grid_channel(nx, nx, 300.0, spatial)
    power = PhyConfig().tx_power_w
    n = nx * nx
    t0 = time.perf_counter()
    for _ in range(rounds):
        ch._invalidate_all()
        for tx in range(n):
            ch._dispatch_plan(tx, power)
    wall = time.perf_counter() - t0
    plans = rounds * n
    return {"wall_s": wall, "nodes": n, "plans": plans,
            "plans_per_s": plans / wall}


def kernel_dispatch_spatial(quick: bool) -> dict:
    return _kernel_dispatch(quick, True)


def kernel_dispatch_exhaustive(quick: bool) -> dict:
    return _kernel_dispatch(quick, False)


def _kernel_mobility(quick: bool, spatial: bool) -> dict:
    # One node moves per round, then every node needs a dispatch plan:
    # incremental invalidation keeps plans outside the mover's
    # neighbourhood cached; the exhaustive path recomputes all of them.
    # This is the steady-state regime of a mesh with roaming clients.
    nx = 20
    rounds = 20 if quick else 60
    ch = _grid_channel(nx, nx, 300.0, spatial)
    power = PhyConfig().tx_power_w
    n = nx * nx
    rng = np.random.default_rng(5)
    for tx in range(n):
        ch._dispatch_plan(tx, power)  # warm cache
    t0 = time.perf_counter()
    for k in range(rounds):
        mover = int(rng.integers(n))
        ch.set_position(mover, tuple(rng.uniform(0.0, 300.0 * (nx - 1), 2)))
        for tx in range(n):
            ch._dispatch_plan(tx, power)
    wall = time.perf_counter() - t0
    plans = rounds * n
    return {"wall_s": wall, "nodes": n, "plan_lookups": plans,
            "lookups_per_s": plans / wall}


def kernel_mobility_spatial(quick: bool) -> dict:
    return _kernel_mobility(quick, True)


def kernel_mobility_exhaustive(quick: bool) -> dict:
    return _kernel_mobility(quick, False)


def kernel_busy_monitor(quick: bool) -> dict:
    n = 50_000 if quick else 200_000
    sim = Simulator()
    m = BusyMonitor(sim, window_s=1.0)
    t0 = time.perf_counter()
    now = 0.0
    busy = False
    for k in range(n):
        now += 0.0003
        sim._now = now
        busy = not busy
        m.on_medium_state(busy)
        m.busy_ratio()
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "queries": n, "queries_per_s": n / wall}


def _run_fig6(config: ScenarioConfig) -> dict:
    t0 = time.perf_counter()
    result = run_scenario(config)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "nodes": config.node_count,
            "events": result.events_executed,
            "events_per_s": result.events_executed / wall,
            "pdr": result.pdr}


def _kernel_fig6(quick: bool, spatial: bool) -> dict:
    # Fig-6-style static scalability point at N = 100 (the acceptance
    # floor).  Static plans are fully cached in both channel paths, so
    # this pair is the determinism cross-check and the whole-simulator
    # events/s tracker, not a spatial-index showcase.  batched_kernel=True
    # matches what the figure sweeps now run; the fig6_e2e pair below
    # keeps the scalar engine as the cross-checked oracle.
    return _run_fig6(ScenarioConfig(
        protocol="nlr", grid_nx=10, grid_ny=10, spacing_m=200.0,
        n_flows=6, flow_rate_pps=2.0, flow_stagger_s=0.2,
        sim_time_s=4.0 if quick else 8.0, warmup_s=1.0, seed=42,
        spatial_index=spatial, batched_kernel=True,
    ))


def kernel_fig6_spatial(quick: bool) -> dict:
    return _kernel_fig6(quick, True)


def kernel_fig6_exhaustive(quick: bool) -> dict:
    return _kernel_fig6(quick, False)


def _kernel_fig6_scale(quick: bool, spatial: bool) -> dict:
    # End-to-end scalability regime: a static router backbone with a
    # roaming client (WMN clients over mesh routers).  Every mobility tick
    # the exhaustive path drops the whole dispatch cache; the grid drops
    # only plans near the mover.  Plan rebuilding is ~3–4× cheaper with
    # the index but only ~5% of e2e runtime at this N (the MAC dominates),
    # so the pair's wall ratio hovers near 1.0 — its real jobs are the
    # byte-determinism cross-check under mobility and tracking absolute
    # simulator throughput (events/s) at N ≥ 100.
    nx = 15 if quick else 20
    return _run_fig6(ScenarioConfig(
        protocol="nlr", grid_nx=nx, grid_ny=nx, spacing_m=200.0,
        n_flows=8, flow_rate_pps=4.0, flow_stagger_s=0.2,
        sim_time_s=3.0 if quick else 4.0, warmup_s=1.0, seed=42,
        mobility="rwp", mobile_fraction=0.005, speed_range=(2.0, 8.0),
        pause_s=0.5, mobility_update_s=0.1, spatial_index=spatial,
        batched_kernel=True,
    ))


def kernel_fig6_scale_spatial(quick: bool) -> dict:
    return _kernel_fig6_scale(quick, True)


def kernel_fig6_scale_exhaustive(quick: bool) -> dict:
    return _kernel_fig6_scale(quick, False)


def _kernel_sinr_slot(quick: bool, batched: bool) -> dict:
    # Single-slot fan-out kernel (DESIGN.md §8): one transmitter on a
    # 21×21 grid at 80 m spacing reaches ~416 concurrent receivers, so
    # every transmission is one rx_start block + one rx_end block.  With
    # propagation_delay off all receivers share a delay group, which is
    # the regime the vectorised SINR/capture kernel targets; the scalar
    # variant walks the same receivers one event at a time.  This is the
    # per-slot PHY cost in isolation — the ISSUE's ≥5× acceptance kernel.
    nx = 21
    rounds = 40 if quick else 200
    sim = Simulator()
    ch = Channel(sim, TwoRayGround(), propagation_delay=False,
                 batched=batched)
    rs = RandomStreams(1)
    for i in range(nx * nx):
        r = Radio(sim, i, PhyConfig(), rs.stream(f"p{i}"),
                  error_model=SinrThresholdErrorModel(10.0))
        ch.register(r, (80.0 * (i % nx), 80.0 * (i // nx)))
    tx = (nx * nx) // 2
    power = PhyConfig().tx_power_w
    frame = PhyFrame(payload=None, bits=4096, rate_bps=11e6,
                     preamble_s=192e-6, tx_power_w=power, tx_node=tx)
    ch._dispatch_plan(tx, power)  # warm the dispatch plan
    t0 = time.perf_counter()
    for _ in range(rounds):
        ch.transmit(tx, frame)
        sim.run()
    wall = time.perf_counter() - t0
    ev = sim.events_executed
    return {"wall_s": wall, "nodes": nx * nx, "events": ev,
            "events_per_s": ev / wall}


def kernel_sinr_slot_batched(quick: bool) -> dict:
    return _kernel_sinr_slot(quick, True)


def kernel_sinr_slot_scalar(quick: bool) -> dict:
    return _kernel_sinr_slot(quick, False)


def _kernel_fig6_batched(quick: bool, batched: bool) -> dict:
    # End-to-end batched-kernel pair: the whole simulator (CSMA MAC, NLR
    # routing, traffic) with ``batched_kernel`` toggled.  Zero propagation
    # delay keeps each fan-out in one delay group so block events actually
    # form; with per-receiver delays the groups are singletons and the
    # batched path degenerates to scalar dispatch (measured ~1.0×).  The
    # e2e win is smaller than the slot kernel's because MAC/routing logic
    # stays scalar — this pair tracks the realistic whole-run speedup and
    # doubles as the batched-vs-scalar byte-determinism gate.
    nx = 12 if quick else 21
    return _run_fig6(ScenarioConfig(
        protocol="nlr", grid_nx=nx, grid_ny=nx, spacing_m=200.0,
        n_flows=12 if quick else 20, flow_rate_pps=4.0,
        flow_start_s=0.2, flow_stagger_s=0.0,
        sim_time_s=1.5 if quick else 2.0, warmup_s=0.5, seed=42,
        propagation_delay=False, batched_kernel=batched,
    ))


def kernel_fig6_e2e_batched(quick: bool) -> dict:
    return _kernel_fig6_batched(quick, True)


def kernel_fig6_e2e_scalar(quick: bool) -> dict:
    return _kernel_fig6_batched(quick, False)


def _kernel_refpoint_e2e(quick: bool, batched: bool) -> dict:
    # The figures' own operating point (figures.REFERENCE_POINT: 5×5 mesh
    # at 230 m, 10 two-gateway flows at 50 pps) with the default
    # per-receiver propagation delays on — the configuration fig5, table2,
    # the ablations and ext_rtscts actually run.  Unlike fig6_e2e above,
    # fan-outs here split into singleton delay groups, so this pair is
    # what decides whether the sweeps should run batched.
    return _run_fig6(ScenarioConfig(
        protocol="nlr", sim_time_s=10.0 if quick else 20.0,
        **{**REFERENCE_POINT, "batched_kernel": batched},
    ))


def kernel_refpoint_e2e_batched(quick: bool) -> dict:
    return _kernel_refpoint_e2e(quick, True)


def kernel_refpoint_e2e_scalar(quick: bool) -> dict:
    return _kernel_refpoint_e2e(quick, False)


KERNELS = {
    "engine_events": kernel_engine_events,
    "timer_churn": kernel_timer_churn,
    "dispatch_spatial": kernel_dispatch_spatial,
    "dispatch_exhaustive": kernel_dispatch_exhaustive,
    "mobility_spatial": kernel_mobility_spatial,
    "mobility_exhaustive": kernel_mobility_exhaustive,
    "busy_monitor": kernel_busy_monitor,
    "fig6_n100_spatial": kernel_fig6_spatial,
    "fig6_n100_exhaustive": kernel_fig6_exhaustive,
    "fig6_scale_spatial": kernel_fig6_scale_spatial,
    "fig6_scale_exhaustive": kernel_fig6_scale_exhaustive,
    "sinr_slot_batched": kernel_sinr_slot_batched,
    "sinr_slot_scalar": kernel_sinr_slot_scalar,
    "fig6_e2e_batched": kernel_fig6_e2e_batched,
    "fig6_e2e_scalar": kernel_fig6_e2e_scalar,
    "refpoint_e2e_batched": kernel_refpoint_e2e_batched,
    "refpoint_e2e_scalar": kernel_refpoint_e2e_scalar,
}

#: A/B kernel pairs as (base, fast_variant, slow_variant) name parts; the
#: kernels are ``<base>_<variant>``.  Each pair's reps are interleaved
#: (A, B, A, B, ...) so ambient machine drift hits both variants equally
#: and the derived ratios stay stable.
_PAIRED = (
    ("dispatch", "spatial", "exhaustive"),
    ("mobility", "spatial", "exhaustive"),
    ("fig6_n100", "spatial", "exhaustive"),
    ("fig6_scale", "spatial", "exhaustive"),
    ("sinr_slot", "batched", "scalar"),
    ("fig6_e2e", "batched", "scalar"),
    ("refpoint_e2e", "batched", "scalar"),
)
_SINGLE = ("engine_events", "timer_churn", "busy_monitor")

#: Kernel pairs that must agree bit-for-bit on the listed result keys
#: (the byte-determinism gate): (kernel_a, kernel_b, keys).
_MATCH_PAIRS = (
    ("fig6_n100_spatial", "fig6_n100_exhaustive", ("events", "pdr")),
    ("fig6_scale_spatial", "fig6_scale_exhaustive", ("events", "pdr")),
    ("sinr_slot_batched", "sinr_slot_scalar", ("events",)),
    ("fig6_e2e_batched", "fig6_e2e_scalar", ("events", "pdr")),
    ("refpoint_e2e_batched", "refpoint_e2e_scalar", ("events", "pdr")),
)

#: Repetitions per kernel; the recorded wall time is the minimum.
_BEST_OF = 3


# --------------------------------------------------------------------- #
# Record assembly / diffing
# --------------------------------------------------------------------- #
def _cpu_model() -> str:
    """CPU model string for the wall-clock comparability check.

    ``platform.processor()`` is often empty on Linux and ``machine()`` is
    just "x86_64", which would wrongly treat all machines as comparable.
    """
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except Exception:
        return "local"


def run_all(quick: bool, rev: str) -> dict:
    # Warm the process (allocator, numpy, import side effects) so the
    # first timed kernel is not systematically penalised.
    _run_fig6(ScenarioConfig(
        protocol="nlr", grid_nx=3, grid_ny=3, n_flows=2, flow_rate_pps=2.0,
        flow_stagger_s=0.1, sim_time_s=1.5, warmup_s=0.5, seed=7,
    ))
    # Best-of-k wall time: single-shot timings on shared CI runners swing
    # by tens of percent; the minimum is the stable statistic.
    wall = lambda d: d["wall_s"]  # noqa: E731
    kernels = {}
    for name in _SINGLE:
        print(f"  running {name} ...", flush=True)
        fn = KERNELS[name]
        kernels[name] = min((fn(quick) for _ in range(_BEST_OF)), key=wall)
    for base, va, vb in _PAIRED:
        print(f"  running {base} ({va} vs {vb}) ...", flush=True)
        afn = KERNELS[f"{base}_{va}"]
        bfn = KERNELS[f"{base}_{vb}"]
        aruns, bruns = [], []
        for _ in range(_BEST_OF):
            aruns.append(afn(quick))
            bruns.append(bfn(quick))
        kernels[f"{base}_{va}"] = min(aruns, key=wall)
        kernels[f"{base}_{vb}"] = min(bruns, key=wall)
    for name_a, name_b, keys in _MATCH_PAIRS:
        for key in keys:
            a = kernels[name_a][key]
            b = kernels[name_b][key]
            if a != b:
                raise SystemExit(
                    f"DETERMINISM VIOLATION: {name_a}/{name_b} {key} "
                    f"diverged ({a!r} vs {b!r})"
                )
    # Dimensionless ratios: comparable across machines, unlike wall times.
    # fig6_n100 (static, cache-amortised) is intentionally not derived —
    # its spatial/exhaustive ratio is noise around 1.0 by construction.
    derived = {
        "dispatch_speedup": kernels["dispatch_exhaustive"]["wall_s"]
        / kernels["dispatch_spatial"]["wall_s"],
        "mobility_speedup": kernels["mobility_exhaustive"]["wall_s"]
        / kernels["mobility_spatial"]["wall_s"],
        "fig6_scale_speedup": kernels["fig6_scale_exhaustive"]["wall_s"]
        / kernels["fig6_scale_spatial"]["wall_s"],
        "sinr_slot_speedup": kernels["sinr_slot_scalar"]["wall_s"]
        / kernels["sinr_slot_batched"]["wall_s"],
        "batched_e2e_speedup": kernels["fig6_e2e_scalar"]["wall_s"]
        / kernels["fig6_e2e_batched"]["wall_s"],
        "refpoint_batched_speedup": kernels["refpoint_e2e_scalar"]["wall_s"]
        / kernels["refpoint_e2e_batched"]["wall_s"],
    }
    return {
        "schema": SCHEMA,
        "rev": rev,
        "quick": quick,
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "kernels": kernels,
        "derived": derived,
    }


def previous_baseline(out_dir: Path, quick: bool, rev: str) -> dict | None:
    """Most recent committed baseline in the same mode, excluding ``rev``."""
    candidates = []
    for path in out_dir.glob("BENCH_*.json"):
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if data.get("schema") != SCHEMA or data.get("rev") == rev:
            continue
        if bool(data.get("quick")) != quick:
            continue
        candidates.append(data)
    candidates.sort(key=lambda d: d.get("generated_utc", ""))
    return candidates[-1] if candidates else None


def diff(
    current: dict, baseline: dict, tolerance: float,
    ratio_tolerance: float,
) -> list[str]:
    """Human-readable comparison; returns the regression messages."""
    regressions: list[str] = []
    same_cpu = current.get("cpu") == baseline.get("cpu")
    print(f"\nBaseline: rev {baseline['rev']} ({baseline['generated_utc']})"
          f"{'' if same_cpu else '  [different CPU — wall gates skipped]'}")
    print(f"{'kernel':<24}{'base wall':>12}{'now wall':>12}{'delta':>9}")
    for name, cur in current["kernels"].items():
        base = baseline["kernels"].get(name)
        if base is None:
            print(f"{name:<24}{'--':>12}{cur['wall_s']:>12.4f}{'new':>9}")
            continue
        ratio = cur["wall_s"] / base["wall_s"]
        print(f"{name:<24}{base['wall_s']:>12.4f}{cur['wall_s']:>12.4f}"
              f"{(ratio - 1) * 100:>+8.1f}%")
        if same_cpu and ratio > 1.0 + tolerance:
            regressions.append(
                f"{name}: wall {base['wall_s']:.4f}s → {cur['wall_s']:.4f}s "
                f"(+{(ratio - 1) * 100:.1f}% > {tolerance * 100:.0f}%)"
            )
    for name, cur in current["derived"].items():
        base = baseline.get("derived", {}).get(name)
        if base is None:
            continue
        print(f"{name:<24}{base:>11.2f}x{cur:>11.2f}x")
        # Ratios quotient two noisy timings, so they get a wider gate than
        # the same-machine wall clocks.
        if cur < base * (1.0 - ratio_tolerance):
            regressions.append(
                f"{name}: speedup {base:.2f}x → {cur:.2f}x "
                f"(lost >{ratio_tolerance * 100:.0f}%)"
            )
    return regressions


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="smaller kernel sizes (CI mode)")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 on >tolerance regression vs the baseline")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="same-CPU wall-clock regression gate")
    ap.add_argument("--ratio-tolerance", type=float, default=0.4,
                    help="derived speedup-ratio regression gate")
    ap.add_argument("--rev", default=None, help="label (default: git short rev)")
    ap.add_argument("--out", type=Path, default=REPO_ROOT,
                    help="directory for BENCH_<rev>.json")
    args = ap.parse_args(argv)

    rev = args.rev or _git_rev()
    print(f"perf baseline: rev={rev} quick={args.quick}")
    record = run_all(args.quick, rev)

    suffix = "-quick" if args.quick else ""
    out_path = args.out / f"BENCH_{rev}{suffix}.json"
    args.out.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out_path}")
    print(f"peak RSS: {record['peak_rss_kb'] / 1024:.1f} MB")
    for name, val in record["derived"].items():
        print(f"  {name}: {val:.2f}x")

    baseline = previous_baseline(REPO_ROOT, args.quick, rev)
    if baseline is None:
        print("no comparable previous baseline found; nothing to diff")
        return 0
    regressions = diff(record, baseline, args.tolerance, args.ratio_tolerance)
    if regressions:
        print("\nREGRESSIONS:")
        for msg in regressions:
            print(f"  - {msg}")
        return 1 if args.check else 0
    print("\nno regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
