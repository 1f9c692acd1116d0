#!/usr/bin/env python
"""Observability overhead gate: disabled hooks must stay (nearly) free.

The obs subsystem touches two hot paths: the engine's run loop (profiler
hook) and every ``tracer.record`` call site.  Both are opt-in, and the
bargain is that *not* opting in costs nothing measurable.  This bench
holds that bargain to a number:

* ``dispatch`` — the standard channel-dispatch benchmark (1k broadcasts
  across a 49-node mesh, events drained through the engine) run twice per
  rep: once through the real ``Simulator.run`` with no profiler attached,
  once through an inline replica of the pre-observability run loop (the
  seed's instruction sequence).  The wall-clock ratio is the
  disabled-profiler overhead.
* ``tracer`` — a tight loop of ``record()`` calls against a disabled
  :class:`Tracer` vs a replica of the seed's disabled-path ``record``.

Timing estimator: reps run in adjacent current/seed pairs (order
alternating pair to pair) and the reported overhead is the **median of
per-pair wall-time ratios**.  Adjacent pairs see near-identical machine
state, so slow drift and throttling windows — which on shared CI boxes
dwarf the effect being measured — cancel out of each ratio; the median
discards the pairs a noise spike still split.  ``--check`` turns
overhead above ``--tolerance`` (default 2%) into a non-zero exit; the
record lands in the repo's ``BENCH_*`` perf trajectory as
``BENCH_obs_<rev>[-quick].json`` (its own schema tag, so
``baseline.py`` never diffs against it).

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--quick]
        [--check] [--tolerance 0.02] [--rev LABEL] [--out DIR]
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.phy.channel import Channel
from repro.phy.frame import PhyFrame
from repro.phy.propagation import TwoRayGround
from repro.phy.radio import PhyConfig, Radio
from repro.sim.engine import (
    _ARGS,
    _CANCELLED,
    _EVENTS,
    _FIRED,
    _FN,
    _NEXT,
    _PRIORITY,
    _SEQ,
    _SEQUENCE,
    _STATE,
    _TIME,
    Simulator,
)
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "obs-1"


# --------------------------------------------------------------------- #
# Seed replicas: the pre-observability instruction sequences
# --------------------------------------------------------------------- #
def seed_replica_run(
    sim: Simulator, until: float = math.inf, max_events: int | None = None
) -> None:
    """The engine run loop exactly as it was before the profiler hook.

    Instruction-for-instruction the seed's ``Simulator.run`` (including
    the ``budget`` bookkeeping), minus the hoisted profiler locals and
    the per-event ``if profiler is None`` branch.  Sequence entries
    (``Simulator.schedule_sequence``, the channel's fan-out) drain in
    place as in ``Simulator._drain_sequence``, minus its profiler branch.
    """
    sim._running = True
    sim._stopped = False
    budget = math.inf if max_events is None else max_events
    heap = sim._heap
    pop = heapq.heappop
    try:
        while heap and not sim._stopped and budget > 0:
            entry = pop(heap)
            state = entry[_STATE]
            if state == _CANCELLED:
                sim._dead -= 1
                continue
            if entry[_TIME] > until:
                heapq.heappush(heap, entry)
                if math.isfinite(until):
                    sim._now = until
                break
            if state == _SEQUENCE:
                budget -= _replica_drain_sequence(sim, entry, until, budget)
                continue
            sim._now = entry[_TIME]
            entry[_STATE] = _FIRED
            fn = entry[_FN]
            args = entry[_ARGS]
            entry[_FN] = None
            entry[_ARGS] = ()
            fn(*args)
            sim._events_executed += 1
            budget -= 1
        else:
            if not heap and math.isfinite(until) and until > sim._now:
                sim._now = until
    finally:
        sim._running = False


def _replica_drain_sequence(
    sim: Simulator, entry: list, until: float, budget: float
) -> int:
    """``Simulator._drain_sequence`` minus the profiler branch."""
    heap = sim._heap
    events = entry[_EVENTS]
    pri = entry[_PRIORITY]
    seq = entry[_SEQ]
    n = len(events)
    i = first = entry[_NEXT]
    stop = n if budget >= n - i else i + int(budget)
    sim._extra -= n - i - 1
    sim._inflight_mark = sim._events_executed + n - i - 1
    sim._inflight = entry
    t, fn, args = events[i]
    try:
        while True:
            i += 1
            sim._now = t
            fn(*args)
            sim._events_executed += 1
            if i == stop or sim._stopped:
                break
            t, fn, args = events[i]
            if t > until:
                break
            if heap:
                head = heap[0]
                ht = head[_TIME]
                if t >= ht and (
                    t > ht
                    or pri > head[_PRIORITY]
                    or (pri == head[_PRIORITY] and head[_SEQ] < seq)
                ):
                    break
    finally:
        sim._inflight = None
        if i < n:
            entry[_TIME] = events[i][0]
            entry[_NEXT] = i
            sim._extra += n - i - 1
            heapq.heappush(heap, entry)
    return i - first


class SeedTracer:
    """The seed Tracer's disabled path: plain class, same attribute set,
    same ``record`` prologue (no ``__slots__`` — the seed had none)."""

    def __init__(self) -> None:
        self.enabled = False
        self._categories = None
        self._sink = None
        self._max = 1_000_000
        self._records: list = []
        self.dropped = 0

    def record(self, time, category, node, event, **details) -> None:
        if not self.enabled:
            return
        raise AssertionError("seed replica is only exercised disabled")


# --------------------------------------------------------------------- #
# Kernels
# --------------------------------------------------------------------- #
def _paired_overhead(run_current, run_seed, pairs: int) -> dict:
    """Median of adjacent current/seed wall-time ratios.

    Each pair is an order-balanced quadruple — current, seed, seed,
    current (flipped on odd pairs) — with the min of the two runs per
    variant taken before the ratio, so a noise spike inside a pair has
    to hit both runs of a variant to bias that pair's ratio.
    """
    ratios = []
    cur_walls, seed_walls = [], []
    for i in range(pairs):
        if i % 2 == 0:
            c1 = run_current()
            s1 = run_seed()
            s2 = run_seed()
            c2 = run_current()
        else:
            s1 = run_seed()
            c1 = run_current()
            c2 = run_current()
            s2 = run_seed()
        a = min(c1, c2)
        b = min(s1, s2)
        cur_walls.append(a)
        seed_walls.append(b)
        ratios.append(a / b)
    ratios.sort()
    return {
        "wall_s_current": min(cur_walls),
        "wall_s_seed": min(seed_walls),
        "overhead": statistics.median(ratios) - 1.0,
        "overhead_spread": [ratios[0] - 1.0, ratios[-1] - 1.0],
    }


def _dispatch_workload(runner, broadcasts: int) -> int:
    """The standard dispatch benchmark: broadcasts drained via ``runner``."""
    sim = Simulator()
    ch = Channel(sim, TwoRayGround(), propagation_delay=False)
    rs = RandomStreams(1)
    for i in range(49):
        r = Radio(sim, i, PhyConfig(), rs.stream(f"p{i}"))
        ch.register(r, (230.0 * (i % 7), 230.0 * (i // 7)))
    power = PhyConfig().tx_power_w
    t0 = time.perf_counter()
    for _ in range(broadcasts):
        frame = PhyFrame(
            payload=None, bits=4096, rate_bps=11e6, preamble_s=192e-6,
            tx_power_w=power, tx_node=24,
        )
        ch.transmit(24, frame)
        runner(sim)
    wall = time.perf_counter() - t0
    return wall, sim.events_executed


def kernel_dispatch(quick: bool, pairs: int) -> dict:
    broadcasts = 250 if quick else 500
    events = {}

    def run_current() -> float:
        w, e = _dispatch_workload(lambda sim: sim.run(), broadcasts)
        events["current"] = e
        return w

    def run_seed() -> float:
        w, e = _dispatch_workload(seed_replica_run, broadcasts)
        events["seed"] = e
        return w

    out = _paired_overhead(run_current, run_seed, pairs)
    # Both loops must execute the identical event sequence.
    assert events["current"] == events["seed"], f"replica diverged: {events}"
    out.update(broadcasts=broadcasts, events=events["current"])
    return out


def kernel_tracer(quick: bool, pairs: int) -> dict:
    n = 80_000 if quick else 150_000
    current = Tracer()           # disabled: the default at every call site
    seed = SeedTracer()

    def loop(tracer) -> float:
        record = tracer.record
        t0 = time.perf_counter()
        for _ in range(n):
            record(0.0, "mac", 1, "data_tx", dst=2, bits=4096)
        return time.perf_counter() - t0

    out = _paired_overhead(lambda: loop(current), lambda: loop(seed), pairs)
    assert current.recorded == 0  # stayed disabled throughout
    out["calls"] = n
    return out


# --------------------------------------------------------------------- #
def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except Exception:
        return "local"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="smaller kernel sizes (CI mode)")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 when overhead exceeds --tolerance")
    ap.add_argument("--tolerance", type=float, default=0.02,
                    help="maximum allowed disabled-path overhead (fraction)")
    ap.add_argument("--pairs", type=int, default=25,
                    help="current/seed timing pairs per kernel (median of "
                         "per-pair ratios is the overhead estimate)")
    ap.add_argument("--rev", default=None,
                    help="label (default: git short rev)")
    ap.add_argument("--out", type=Path, default=REPO_ROOT,
                    help="directory for BENCH_obs_<rev>.json")
    args = ap.parse_args(argv)

    rev = args.rev or _git_rev()
    print(f"obs overhead gate: rev={rev} quick={args.quick} "
          f"tolerance={args.tolerance:.0%}")
    # Warm-up rep (allocator, imports) before anything is timed.
    kernel_dispatch(True, pairs=1)

    kernels = {
        "dispatch_profiler_off": kernel_dispatch(args.quick, args.pairs),
        "tracer_disabled": kernel_tracer(args.quick, args.pairs),
    }
    for name, k in kernels.items():
        lo, hi = k["overhead_spread"]
        print(f"  {name:<24} current={k['wall_s_current']:.4f}s "
              f"seed={k['wall_s_seed']:.4f}s "
              f"overhead={k['overhead']:+.2%} "
              f"(pair spread {lo:+.2%}..{hi:+.2%})")

    record = {
        "schema": SCHEMA,
        "rev": rev,
        "quick": args.quick,
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "tolerance": args.tolerance,
        "kernels": kernels,
    }
    suffix = "-quick" if args.quick else ""
    out_path = args.out / f"BENCH_obs_{rev}{suffix}.json"
    args.out.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")

    over = {
        name: k["overhead"] for name, k in kernels.items()
        if k["overhead"] > args.tolerance
    }
    if over:
        for name, o in over.items():
            print(f"OVERHEAD GATE FAILED: {name} at {o:+.2%} "
                  f"(> {args.tolerance:.0%})")
        return 1 if args.check else 0
    print(f"disabled-path overhead within {args.tolerance:.0%} on all kernels")
    return 0


if __name__ == "__main__":
    sys.exit(main())
