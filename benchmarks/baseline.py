#!/usr/bin/env python
"""Perf-regression kernel harness: the repo's one set of timed kernels.

Executes the substrate kernels the figure sweeps stress (event heap, event
cancellation, timer churn, sequence fan-out, channel dispatch on the sized
cell grid and on the one-cell grid that unbounded-reach models use,
mobility-driven cache invalidation, busy-ratio tracking, an acknowledged
DCF unicast exchange, a small end-to-end scenario per protocol, a
fig-6-style end-to-end scalability scenario at N ≥ 100 nodes, and the
figures' reference operating point with both kernels), then writes
``BENCH_<rev>[-quick].json`` (the ``baseline`` kind of the envelope in
``record.py``).  Each kernel records its best-of-3 wall time plus its own
counts and throughput; ``detail.peak_rss_kb`` is the peak RSS of the
whole process over all kernels, not per kernel.  ``derived`` holds the
machine-independent speedup ratios of the A/B kernel pairs.

Every A/B pair that must agree bit for bit (events, PDR) is cross-checked
and a divergence exits non-zero; so does a kernel whose own result count
is off.  Diffing against a committed record and gating regressions is
``compare.py``'s job.

The ``*_exhaustive`` kernels run inside :func:`one_cell_grid`, which gives
the two-ray model an unbounded interference range, so the channel puts
every node in one cell and scans the whole position table per plan: the
path log-normal shadowing runs take.

Usage::

    PYTHONPATH=src python benchmarks/baseline.py [--quick] [--rev LABEL]
        [--out DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

from repro.experiments.figures import REFERENCE_POINT
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.mac.busy_monitor import BusyMonitor
from repro.mac.csma import CsmaMac, MacConfig
from repro.phy.channel import Channel
from repro.phy.frame import PhyFrame
from repro.phy.propagation import TwoRayGround
from repro.phy.radio import PhyConfig, Radio
from repro.sim.engine import Simulator
from repro.sim.process import Timer
from repro.sim.rng import RandomStreams
from record import envelope, git_rev, write

REPO_ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------- #
# Kernels
# --------------------------------------------------------------------- #
@contextlib.contextmanager
def one_cell_grid():
    """Give :class:`TwoRayGround` an unbounded interference range inside
    the block, so every channel built or sized there runs one cell
    covering the plane (the full-table dispatch of shadowing runs)."""
    own = TwoRayGround.__dict__.get("max_interference_range")
    TwoRayGround.max_interference_range = lambda self, p, t: math.inf
    try:
        yield
    finally:
        if own is None:
            del TwoRayGround.max_interference_range
        else:
            TwoRayGround.max_interference_range = own


def _grid_channel(nx: int, ny: int, spacing: float) -> Channel:
    sim = Simulator()
    ch = Channel(sim, TwoRayGround(), propagation_delay=False)
    for i in range(nx * ny):
        r = Radio(sim, i, PhyConfig())
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


def _expect(kernel: str, what: str, got, want) -> None:
    if got != want:
        raise SystemExit(f"{kernel}: {what} {got!r}, expected {want!r}")


def kernel_engine_cancel_heavy(quick: bool) -> dict:
    # Half the scheduled events are cancelled before the run.
    n = 20_000 if quick else 100_000
    fn = lambda: None  # noqa: E731
    t0 = time.perf_counter()
    sim = Simulator()
    handles = [sim.schedule(k * 1e-6, fn) for k in range(n)]
    for h in handles[::2]:
        h.cancel()
    sim.run()
    wall = time.perf_counter() - t0
    _expect("engine_cancel_heavy", "events", sim.events_executed, n // 2)
    return {"wall_s": wall, "scheduled": n, "events": sim.events_executed,
            "scheduled_per_s": n / wall}


def kernel_engine_sequence_fanout(quick: bool) -> dict:
    # The default channel fan-out: each frame's 25 rx_start/rx_end pairs
    # are one schedule_sequence entry, drained in place.
    frames = 1_000 if quick else 4_000
    fn = lambda *a: None  # noqa: E731
    t0 = time.perf_counter()
    sim = Simulator()
    for k in range(frames):
        t = k * 1e-3
        events = []
        for j in range(25):
            start = t + j * 1e-8
            events.append((start, fn, (j,)))
            events.append((start + 3e-4, fn, ()))
        sim.schedule_sequence(events)
    sim.run()
    wall = time.perf_counter() - t0
    _expect("engine_sequence_fanout", "events", sim.events_executed,
            50 * frames)
    return {"wall_s": wall, "events": sim.events_executed,
            "events_per_s": sim.events_executed / wall}


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


def _kernel_dispatch(quick: bool) -> dict:
    # Cold-plan regime: every plan rebuilt each round.  The one-cell
    # grid's single vectorised pass is hard to beat at small N (crossover
    # sits near N ≈ 500 on 2026 hardware), so this kernel measures the
    # asymptotic regime; the steady-state win is the mobility kernel below.
    nx = 40 if quick else 50
    rounds = 3 if quick else 5
    ch = _grid_channel(nx, nx, 300.0)
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
    return _kernel_dispatch(quick)


def kernel_dispatch_exhaustive(quick: bool) -> dict:
    with one_cell_grid():
        return _kernel_dispatch(quick)


def _kernel_mobility(quick: bool) -> dict:
    # One node moves per round, then every node needs a dispatch plan:
    # incremental invalidation keeps plans outside the mover's
    # neighbourhood cached; the one-cell grid recomputes all of them.
    # This is the steady-state regime of a mesh with roaming clients.
    nx = 20
    rounds = 20 if quick else 60
    ch = _grid_channel(nx, nx, 300.0)
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
    return _kernel_mobility(quick)


def kernel_mobility_exhaustive(quick: bool) -> dict:
    with one_cell_grid():
        return _kernel_mobility(quick)


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


def kernel_dcf_unicast_exchange(quick: bool) -> dict:
    # 100 acknowledged unicast frames between two DCF MACs.
    frames = 100
    t0 = time.perf_counter()
    sim = Simulator()
    ch = Channel(sim, TwoRayGround(), propagation_delay=False)
    rs = RandomStreams(2)
    macs = []
    for i, pos in enumerate([(0.0, 0.0), (150.0, 0.0)]):
        radio = Radio(sim, i, PhyConfig())
        ch.register(radio, pos)
        # The queue must hold the whole burst (default drop-tail is 50).
        macs.append(CsmaMac(sim, radio, MacConfig(queue_capacity=128),
                            rs.stream(f"m{i}")))
    delivered = []
    macs[1].rx_upper_callback = lambda p, s, i: delivered.append(p)
    for k in range(frames):
        macs[0].send(k, 1, 512)
    sim.run()
    wall = time.perf_counter() - t0
    _expect("dcf_unicast_exchange", "delivered", len(delivered), frames)
    return {"wall_s": wall, "frames": frames, "events": sim.events_executed,
            "events_per_s": sim.events_executed / wall}


def _run_fig6(config: ScenarioConfig) -> dict:
    t0 = time.perf_counter()
    result = run_scenario(config)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "nodes": config.node_count,
            "events": result.events_executed,
            "events_per_s": result.events_executed / wall,
            "pdr": result.pdr}


def kernel_small_scenario(quick: bool, protocol: str) -> dict:
    # End-to-end 3×3 scenario (8 s simulated) of one protocol.
    out = _run_fig6(ScenarioConfig(
        protocol=protocol, grid_nx=3, grid_ny=3, n_flows=2,
        flow_rate_pps=5.0, sim_time_s=8.0, warmup_s=1.0, seed=3,
    ))
    if not out["pdr"] > 0.9:
        raise SystemExit(f"small_scenario_{protocol}: pdr {out['pdr']} <= 0.9")
    return out


def _kernel_fig6(quick: bool) -> dict:
    # Fig-6-style static scalability point at N = 100 (the acceptance
    # floor).  Static plans are fully cached under either cell size, so
    # this pair is the determinism cross-check and the whole-simulator
    # events/s tracker, not a spatial-index showcase.  It runs the batched
    # kernel although the figure sweeps run the scalar one (see
    # repro.experiments.figures); the fig6_e2e pair below keeps the scalar
    # engine as the cross-checked oracle.
    return _run_fig6(ScenarioConfig(
        protocol="nlr", grid_nx=10, grid_ny=10, spacing_m=200.0,
        n_flows=6, flow_rate_pps=2.0, flow_stagger_s=0.2,
        sim_time_s=4.0 if quick else 8.0, warmup_s=1.0, seed=42,
        batched_kernel=True,
    ))


def kernel_fig6_spatial(quick: bool) -> dict:
    return _kernel_fig6(quick)


def kernel_fig6_exhaustive(quick: bool) -> dict:
    with one_cell_grid():
        return _kernel_fig6(quick)


def _kernel_fig6_scale(quick: bool) -> dict:
    # End-to-end scalability regime: a static router backbone with a
    # roaming client (WMN clients over mesh routers).  Every mobility tick
    # the one-cell grid drops the whole dispatch cache; the sized grid drops
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
        pause_s=0.5, mobility_update_s=0.1, batched_kernel=True,
    ))


def kernel_fig6_scale_spatial(quick: bool) -> dict:
    return _kernel_fig6_scale(quick)


def kernel_fig6_scale_exhaustive(quick: bool) -> dict:
    with one_cell_grid():
        return _kernel_fig6_scale(quick)


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
    for i in range(nx * nx):
        r = Radio(sim, i, PhyConfig())
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


SMALL_SCENARIO_PROTOCOLS = ("aodv", "nlr", "oracle")

KERNELS = {
    "engine_events": kernel_engine_events,
    "engine_cancel_heavy": kernel_engine_cancel_heavy,
    "engine_sequence_fanout": kernel_engine_sequence_fanout,
    "timer_churn": kernel_timer_churn,
    "dispatch_spatial": kernel_dispatch_spatial,
    "dispatch_exhaustive": kernel_dispatch_exhaustive,
    "mobility_spatial": kernel_mobility_spatial,
    "mobility_exhaustive": kernel_mobility_exhaustive,
    "busy_monitor": kernel_busy_monitor,
    "dcf_unicast_exchange": kernel_dcf_unicast_exchange,
    **{
        f"small_scenario_{p}": functools.partial(kernel_small_scenario,
                                                 protocol=p)
        for p in SMALL_SCENARIO_PROTOCOLS
    },
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
_SINGLE = (
    "engine_events", "engine_cancel_heavy", "engine_sequence_fanout",
    "timer_churn", "busy_monitor", "dcf_unicast_exchange",
    *(f"small_scenario_{p}" for p in SMALL_SCENARIO_PROTOCOLS),
)

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
# Record assembly
# --------------------------------------------------------------------- #
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
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return envelope("baseline", rev, quick, kernels=kernels, derived=derived,
                    detail={"peak_rss_kb": peak_rss_kb})


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="smaller kernel sizes (CI mode)")
    ap.add_argument("--rev", default=None, help="label (default: git short rev)")
    ap.add_argument("--out", type=Path, default=REPO_ROOT,
                    help="directory for BENCH_<rev>.json")
    args = ap.parse_args(argv)

    rev = args.rev or git_rev()
    print(f"perf baseline: rev={rev} quick={args.quick}")
    record = run_all(args.quick, rev)

    suffix = "-quick" if args.quick else ""
    write(record, args.out / f"BENCH_{rev}{suffix}.json")
    print(f"peak RSS: {record['detail']['peak_rss_kb'] / 1024:.1f} MB")
    for name, val in record["derived"].items():
        print(f"  {name}: {val:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
