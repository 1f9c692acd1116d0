"""One benchmark workload in its own process (started by ``run.py``).

Measuring mode::

    python3 perfbench/session.py --workload W --seed S --seconds T \\
        --trace 0|1 --digests PATH --out PATH

runs a closed loop from this single process: the next sample starts only
after the previous one finished, until ``--seconds`` have passed (at
least one sample).  A sample is one ``nlr`` + ``aodv`` pair for
``discovery`` (seeds from ``workloads.scenario_config``) and one burst of
campaigns for ``campaign``.  Untraced runs measure the end-to-end metrics; traced runs
(``--trace 1``) run every scenario or burst both plain and wrapped by
:mod:`spans` and report the per-layer metrics.  The metrics, output-check
verdicts and digests go to ``--out`` as JSON.

Set-up probe mode::

    python3 perfbench/session.py --setup-probe --workload W --seed S

imports the simulator, builds and starts the workload's first network
(for ``campaign`` also a two-worker process pool, with one round trip
per worker) and prints the ``time.monotonic()`` reading at that point.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

# Exec-layer metrics only a campaign produces; other workloads never enter
# repro.exec and report them as 0.
EXEC_METRICS = (
    "exec.cell_s.p50", "exec.overhead_s", "exec.busy_ratio",
    "exec.checkpoint_loads", "exec.checkpoint_load_s",
    "exec.checkpoint_stores", "exec.checkpoint_store_s", "exec.attempts",
)


class Tally:
    """Attempted/failed counts and the output checks of one run."""

    def __init__(self, checks) -> None:
        self.checks = checks
        self.attempted = 0
        self.failed = 0
        #: Wall time of every untraced sample, for the run record.
        self.samples: list[float] = []

    def attempt(self, config, runner: Callable):
        """Run one scenario; ``(result or None on any failure, wall s)``."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = runner(config)
        except Exception:  # a failing scenario is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            return None, time.perf_counter() - t0
        wall = time.perf_counter() - t0
        return self.outcome(config, result), wall

    def outcome(self, config, result):
        """Check a finished result; ``None`` (counted failed) on a miss."""
        if self.checks.check(config, result):
            return result
        self.failed += 1
        return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: list[float]) -> float:
    return median(values) if values else 0.0


def run_totals(walls: list[float], finished: list[int]) -> dict:
    """``wall_s`` and ``cells_per_s`` of an untraced run: medians over its
    samples, given each sample's wall time and finished scenarios."""
    rates = [n / wall for n, wall in zip(finished, walls)]
    return {
        "wall_s": (median(walls), len(walls)),
        "cells_per_s": (median(rates), len(rates)),
    }


def pin_in_turn() -> Callable[[], None]:
    """A function that pins this process to the next allowed CPU, in turn.

    On a shared host each core switches between a fast speed and one about
    1.6x slower as other tenants load it, independently of the other cores
    (measured on a 2-core VM).  A single-threaded run left on one core
    measures that core's share of slow time; moving to the next core before
    each scenario makes a run spend equal time on every core.
    """
    cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))
    return lambda: os.sched_setaffinity(0, {next(cpus)})


def profile_batches(tally: Tally, config) -> float:
    """Logical events per heap entry of ``config``, from a profiled pass."""
    from repro.experiments.runner import run_scenario
    from spans import profiled_batch_mean

    means = []

    def profiled(c):
        result, mean = profiled_batch_mean(run_scenario, c)
        means.append(mean)
        return result

    tally.attempt(config, profiled)
    if not means:
        raise RuntimeError("the profiled scenario failed")
    return means[0]


# ---------------------------------------------------------------------- #
# discovery
# ---------------------------------------------------------------------- #
def measure_scenarios(seed: int, seconds: float, tally: Tally) -> dict:
    from repro.experiments.runner import run_scenario
    from workloads import PROTOCOLS, scenario_config

    next_cpu = pin_in_turn()
    finished = []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        t0 = time.perf_counter()
        finished.append(0)
        for protocol in PROTOCOLS:
            next_cpu()
            config = scenario_config(protocol, seed, index)
            result, _ = tally.attempt(config, run_scenario)
            finished[-1] += result is not None
        tally.samples.append(time.perf_counter() - t0)
        index += 1
        if time.perf_counter() >= deadline:
            break
    return run_totals(tally.samples, finished)


def trace_scenarios(seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    from repro.experiments.runner import run_scenario
    from spans import SpanRecorder
    from workloads import PROTOCOLS, scenario_config

    recorder = SpanRecorder()
    batch_mean = profile_batches(tally, scenario_config(PROTOCOLS[0], seed, 0))
    next_cpu = pin_in_turn()
    results, walls, overheads = [], [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        # The same scenario sequence the untraced run measures, one
        # scenario per sample, plain first and then traced on one CPU.
        next_cpu()
        config = scenario_config(
            PROTOCOLS[index % len(PROTOCOLS)], seed, index // len(PROTOCOLS)
        )
        plain, plain_wall = tally.attempt(config, run_scenario)
        traced, traced_wall = tally.attempt(
            config, lambda c: recorder.traced(run_scenario, c)
        )
        if plain is not None and traced is not None:
            results.append(traced)
            walls.append(traced_wall)
            overheads.append(traced_wall / plain_wall)
        index += 1
        if time.perf_counter() >= deadline:
            break
    metrics = layer_metrics(recorder, results, walls, batch_mean)
    metrics.update({name: (0.0, 0) for name in EXEC_METRICS})
    metrics["trace_overhead"] = (_median(overheads), len(overheads))
    return metrics, recorder.dump()


def layer_metrics(recorder, results: list, walls: list[float], batch_mean: float) -> dict:
    """Per-layer metrics, per traced scenario, from spans and snapshots.

    ``batch_mean`` comes from a separate profiled pass (one scenario).
    """
    n = len(results)
    if n == 0:
        raise RuntimeError("no traced scenario finished")

    def per(value: float) -> tuple[float, int]:
        return (value / n, n)

    def snap(key: str) -> float:
        return sum(r.metrics_snapshot[key] for r in results)

    self_s = recorder.layer_self_s()
    frames = {
        kind: snap(f'repro_phy_frames_total{{kind="{kind}"}}')
        for kind in ("received", "corrupted", "captured")
    }
    retries = snap("repro_mac_retries_total")
    control = {
        kind: snap(f'repro_net_control_tx_total{{kind="{kind}"}}')
        for kind in ("rreq", "rrep", "rerr", "hello")
    }
    decides = recorder.calls("core:LoadAdaptiveGossip.decide")
    run_s = recorder.total_s("sim:Simulator.run")
    return {
        "sim.events": per(recorder.engine_events),
        "sim.events_per_s": (_ratio(recorder.engine_events, run_s), n),
        "sim.self_s": per(self_s["sim"]),
        "sim.batch_mean": (batch_mean, 1),
        "phy.transmit_calls": per(recorder.calls("phy:Channel.transmit")),
        "phy.rx_calls": per(sum(
            recorder.calls_of("phy", attr)
            for attr in ("on_rx_start", "on_rx_end", "rx_start_block", "rx_end_block")
        )),
        "phy.self_s": per(self_s["phy"]),
        "phy.rx_ok_ratio": (_ratio(frames["received"], sum(frames.values())), n),
        "mac.send_calls": per(recorder.calls("mac:CsmaMac.send")),
        "mac.self_s": per(self_s["mac"]),
        "mac.retries": per(retries),
        "mac.drops": per(
            snap('repro_mac_drops_total{reason="retry"}')
            + snap('repro_mac_drops_total{reason="queue"}')
        ),
        "mac.data_ok_ratio": (
            1.0 - _ratio(retries, snap('repro_mac_tx_total{kind="data"}')), n
        ),
        "net.on_packet_calls": per(recorder.calls_of("net", "on_packet")),
        "net.send_data_calls": per(recorder.calls_of("net", "send_data")),
        "net.self_s": per(self_s["net"]),
        "net.rreq_tx": per(control["rreq"]),
        "net.rreq_forwarded": per(snap("repro_net_rreq_forwarded_total")),
        "net.control_tx": per(sum(control.values())),
        "core.decide_calls": per(decides),
        "core.forward_ratio": (_ratio(recorder.forwards, decides), n),
        "core.load_calls": per(recorder.calls("core:NeighbourhoodLoad.value")),
        "core.self_s": per(self_s["core"]),
        "topology.move_calls": per(recorder.calls("topology:Channel.move_many")),
        "topology.self_s": per(self_s["topology"]),
        "faults.fail_calls": per(recorder.calls("faults:NodeStack.fail")),
        "faults.recover_calls": per(recorder.calls("faults:NodeStack.recover")),
        "faults.self_s": per(self_s["faults"]),
        "traffic.sent": per(recorder.calls("traffic:NodeStack.send_data")),
        "traffic.self_s": per(self_s["traffic"]),
        "metrics.self_s": per(self_s["metrics"]),
        "experiments.build_s": per(recorder.total_s("experiments:build_network")),
        "net_core.self_share": (
            _ratio(self_s["net"] + self_s["core"], sum(walls)), n
        ),
    }


# ---------------------------------------------------------------------- #
# campaign
# ---------------------------------------------------------------------- #
def run_campaign(seed: int, seconds: float, trace: bool, tally: Tally, tmp: Path) -> tuple[dict, dict | None]:
    from repro.exec import (
        Campaign, CampaignExecutor, CheckpointStore, ExecPolicy, Task,
        shutdown_shared_pools,
    )
    from repro.experiments.runner import run_scenario
    from repro.experiments.serialization import result_to_dict
    from spans import SpanRecorder
    from workloads import CAMPAIGN_WORKERS, campaign_burst

    burst = campaign_burst(seed)
    recorder = SpanRecorder() if trace else None
    runner = run_scenario
    if recorder is not None:
        batch_mean = profile_batches(tally, burst[0][1][0])
        runner = lambda c: recorder.traced(run_scenario, c)  # noqa: E731

    # Before timing: every cell once in-process (the reference the
    # campaign's cells must match), keeping the first cell of each sweep
    # as the checkpoint the timed campaigns resume from.
    references, reference_walls, resumed = [], [], {}
    for _, configs in burst:
        for k, config in enumerate(configs):
            result, wall = tally.attempt(config, runner)
            if result is None:
                continue
            references.append(result)
            reference_walls.append(wall)
            if k == 0:
                resumed[Task(config).task_id] = result_to_dict(result)

    store = CheckpointStore()
    policy = ExecPolicy(
        workers=CAMPAIGN_WORKERS, resume=True, progress=True,
        log_dir=tmp / "runs", task_timeout_s=60.0,
    )

    def one_burst() -> list:
        outcomes = []
        for name, configs in burst:
            campaign = Campaign.from_configs(name, configs)
            outcomes += CampaignExecutor(policy=policy).run(campaign).outcomes
        return outcomes

    samples = {"plain": [], "traced": []}
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        store.clear()
        for task_id, payload in resumed.items():
            store.store(task_id, payload)
        traced = recorder is not None and index % 2 == 1
        before = {k: tuple(v) for k, v in recorder.spans.items()} if traced else None
        t0 = time.perf_counter()
        outcomes = recorder.traced(one_burst) if traced else one_burst()
        wall = time.perf_counter() - t0
        shutdown_shared_pools()
        finished = 0
        for outcome in outcomes:
            tally.attempted += 1
            if not outcome.ok:
                print(f"cell failed: {outcome.task.describe()} [{outcome.kind}]",
                      file=sys.stderr)
                tally.failed += 1
            elif tally.outcome(outcome.task.config, outcome.result) is not None:
                finished += 1
        durations = [o.duration_s for o in outcomes if o.ok and o.source == "run"]
        sample = {
            "wall": wall,
            "finished": finished,
            "durations": durations,
            "overhead": CAMPAIGN_WORKERS * wall - sum(durations),
            "busy": sum(durations) / (CAMPAIGN_WORKERS * wall),
            "attempts": sum(o.attempts for o in outcomes),
        }
        if traced:
            sample["io"] = _checkpoint_io(before, recorder.spans)
        else:
            tally.samples.append(wall)
        samples["traced" if traced else "plain"].append(sample)
        index += 1
        if time.perf_counter() >= deadline and (recorder is None or index >= 2):
            break

    if recorder is None:
        plain = samples["plain"]
        return run_totals(tally.samples, [s["finished"] for s in plain]), None

    traced_samples = samples["traced"]
    metrics = layer_metrics(recorder, references, reference_walls, batch_mean)
    n = len(traced_samples)
    cells = [d for s in traced_samples for d in s["durations"]]

    def med(key: str) -> tuple[float, int]:
        return (median(s[key] for s in traced_samples), n)

    def io(key: str) -> tuple[float, int]:
        return (median(s["io"][key] for s in traced_samples), n)

    metrics.update({
        "exec.cell_s.p50": (_median(cells), len(cells)),
        "exec.overhead_s": med("overhead"),
        "exec.busy_ratio": med("busy"),
        "exec.checkpoint_loads": io("loads"),
        "exec.checkpoint_load_s": io("load_s"),
        "exec.checkpoint_stores": io("stores"),
        "exec.checkpoint_store_s": io("store_s"),
        "exec.attempts": med("attempts"),
        "trace_overhead": (
            median(s["wall"] for s in traced_samples)
            / median(s["wall"] for s in samples["plain"]),
            n,
        ),
    })
    return metrics, recorder.dump()


def _checkpoint_io(before: dict, after: dict) -> dict[str, float]:
    """Checkpoint calls and seconds between two span snapshots."""
    def delta(name: str, field: int) -> float:
        return after.get(name, (0, 0.0))[field] - before.get(name, (0, 0.0))[field]

    return {
        "loads": delta("exec:CheckpointStore.load", 0),
        "load_s": delta("exec:CheckpointStore.load", 1),
        "stores": delta("exec:CheckpointStore.store", 0),
        "store_s": delta("exec:CheckpointStore.store", 1),
    }


# ---------------------------------------------------------------------- #
# entry points
# ---------------------------------------------------------------------- #
def setup_probe(workload: str, seed: int) -> float:
    """Monotonic time once the workload could run its first event."""
    from repro.experiments.scenario import build_network
    from workloads import PROTOCOLS, campaign_burst, scenario_config

    if workload == "campaign":
        config = campaign_burst(seed)[0][1][0]
    else:
        config = scenario_config(PROTOCOLS[0], seed, 0)
    net = build_network(config)
    net.start()
    if workload != "campaign":
        return time.monotonic()
    from concurrent.futures import ProcessPoolExecutor

    from repro.exec.worker import watch_parent
    from workloads import CAMPAIGN_WORKERS

    with ProcessPoolExecutor(
        max_workers=CAMPAIGN_WORKERS, initializer=watch_parent,
        initargs=(os.getpid(),),
    ) as pool:
        for future in [pool.submit(os.getpid) for _ in range(CAMPAIGN_WORKERS)]:
            future.result()
        return time.monotonic()


def measure(args: argparse.Namespace) -> dict:
    import numpy

    from checks import OutputChecks, load_digests, save_digests

    checks = OutputChecks(load_digests(args.digests))
    tally = Tally(checks)
    spans = None
    if args.workload == "campaign":
        metrics, spans = run_campaign(
            args.seed, args.seconds, bool(args.trace), tally, args.out.parent
        )
    elif args.trace:
        metrics, spans = trace_scenarios(args.seed, args.seconds, tally)
    else:
        metrics = measure_scenarios(args.seed, args.seconds, tally)
    if not args.trace:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = ((own + workers) / 1024.0, 1)
    save_digests(args.digests, checks.seen)
    return {
        "metrics": {k: {"value": v, "n": n} for k, (v, n) in metrics.items()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": checks.problems,
        "digests": checks.seen,
        "samples": tally.samples,
        "numpy": numpy.__version__,
        "spans": spans,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("discovery", "campaign"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)), flush=True)
        return 0
    if None in (args.seconds, args.out, args.digests):
        parser.error("--seconds, --out and --digests are required when measuring")
    report = measure(args)
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
