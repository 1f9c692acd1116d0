"""Run scenarios, collect results, replicate across seeds."""

from __future__ import annotations

import functools
import gc
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec import ExecPolicy

from repro.analysis.stats import ConfidenceInterval, summarize
from repro.experiments.scenario import Network, ScenarioConfig, build_network
from repro.metrics.fairness import forwarding_load, jain_index
from repro.obs.spec import finalize_observability
from repro.obs.wiring import totals_from_snapshot

__all__ = [
    "METRIC_KEYS", "ScenarioResult", "frees_simulation", "run_scenario",
    "replicate",
]

#: The scalar metrics of :meth:`ScenarioResult.as_dict`, in its order.
METRIC_KEYS = (
    "pdr",
    "mean_delay_s",
    "throughput_bps",
    "mean_hops",
    "rreq_tx",
    "control_packets",
    "control_bytes",
    "normalized_routing_load",
    "jain_fairness",
)


@dataclass(slots=True)
class ScenarioResult:
    """Measured outcomes of one simulation run.

    The scalar fields are the quantities the reconstructed figures plot;
    ``totals`` holds the full counter dump (read off ``metrics_snapshot``
    through :func:`repro.obs.wiring.totals_from_snapshot`, plus resilience
    totals on faulted runs) and ``per_node_forwarded`` the
    load-distribution vector (Fig 5).
    """

    config: ScenarioConfig
    pdr: float
    mean_delay_s: float
    throughput_bps: float
    mean_hops: float
    rreq_tx: float
    control_packets: float
    control_bytes: float
    normalized_routing_load: float
    jain_fairness: float
    packets_sent: int
    packets_received: int
    per_node_forwarded: np.ndarray
    totals: dict[str, float] = field(default_factory=dict)
    events_executed: int = 0
    wallclock_s: float = 0.0
    #: Canonical ``repro_*`` metrics snapshot (see :mod:`repro.obs`).
    #: Pure simulation state — byte-identical across serial/parallel runs.
    metrics_snapshot: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, float]:
        """Scalar metrics as a flat dict (for summarising/sweeps)."""
        return {key: getattr(self, key) for key in METRIC_KEYS}


def frees_simulation(fn: Callable) -> Callable:
    """Collect the simulation ``fn`` builds before its caller gets control.

    A wired network is one web of reference cycles (bound-method
    callbacks radio↔MAC↔stack, channel↔radios, timer↔owner), so
    refcounting never frees it and CPython's automatic full collection
    runs too seldom to keep up with back-to-back runs.  The wrapper calls
    ``fn`` (its frame and every local are gone once it returns), then
    runs one ``gc.collect()``.  When nothing is frozen on entry, the call
    and the collection sit inside a ``gc.freeze()``/``gc.unfreeze()``
    bracket, so the collection walks only the objects created during the
    call, not the caller's heap.  Objects a caller froze stay frozen.  If
    ``fn`` raises (a simulation error, or a worker's wall-clock timeout),
    the locals of its finished frames are cleared, so the exception's
    traceback does not keep the network alive either, and the bracket is
    closed all the same.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bracket = gc.get_freeze_count() == 0
        if bracket:
            gc.freeze()
        try:
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                traceback.clear_frames(exc.__traceback__)
                raise
            finally:
                gc.collect()
        finally:
            if bracket:
                gc.unfreeze()

    return wrapper


@frees_simulation
def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Build, run, and measure one scenario.

    When the config carries a ``trace_spec`` with a path, the trace
    artifact is closed here and its ``*.metrics.json`` /
    ``*.profile.json`` companions written (same snapshot the result
    carries), so every run — including exec worker cells — leaves a
    self-contained artifact set behind.  The network is collected before
    this returns (:func:`frees_simulation`).
    """
    t0 = time.perf_counter()
    net = build_network(config)
    net.start()
    net.sim.run(until=config.sim_time_s)
    net.stop()
    result = collect_result(net, wallclock_s=time.perf_counter() - t0)
    finalize_observability(net, metrics=result.metrics_snapshot)
    return result


def collect_result(net: Network, wallclock_s: float = 0.0) -> ScenarioResult:
    """Extract a :class:`ScenarioResult` from a finished network."""
    config = net.config
    collector = net.collector
    snapshot = net.metrics.metrics_json()
    totals = totals_from_snapshot(snapshot)
    if net.resilience is not None:
        totals.update(net.resilience.totals())
    span = config.sim_time_s - config.warmup_s
    per_node = forwarding_load(net.protocols)
    return ScenarioResult(
        config=config,
        pdr=collector.overall_pdr(),
        # NaN when nothing was delivered (the collector's convention).
        mean_delay_s=collector.mean_delay_s(),
        throughput_bps=collector.aggregate_throughput_bps(span),
        mean_hops=collector.mean_hops(),
        rreq_tx=totals["rreq_tx"],
        control_packets=totals["control_packets"],
        control_bytes=totals["control_bytes"],
        normalized_routing_load=totals["normalized_routing_load"],
        jain_fairness=jain_index(per_node),
        packets_sent=collector.total_sent,
        packets_received=collector.total_received,
        per_node_forwarded=per_node,
        totals=totals,
        events_executed=net.sim.events_executed,
        wallclock_s=wallclock_s,
        metrics_snapshot=snapshot,
    )


def replicate(
    config: ScenarioConfig,
    n_runs: int = 5,
    base_seed: int | None = None,
    level: float = 0.95,
    policy: ExecPolicy | None = None,
) -> tuple[list[ScenarioResult], dict[str, ConfidenceInterval]]:
    """Run ``config`` under up to ``n_runs`` seeds; return runs + mean ± CI.

    Seeds are ``base_seed + k`` (default base: ``config.seed``), so a
    replication set is itself reproducible.

    The runs are one cell of :func:`repro.exec.replicate_cells`: with the
    default policy they happen serially in-process exactly as they always
    have; pass an :class:`~repro.exec.ExecPolicy` (or
    :func:`repro.exec.configure` the process-wide default, as the CLI's
    ``--workers`` does) to fan the seeds out over worker processes and/or
    resume from checkpoints.  Results come back in seed order either way,
    so summaries are byte-identical across execution modes.  When the
    effective policy carries an :class:`~repro.exec.AdaptivePolicy`,
    ``n_runs`` is a budget and the returned list may be a seed-ladder
    prefix; the stop decisions go to a fresh
    ``adaptive-replicate-<protocol>-<pid>-<ts>.jsonl`` audit.
    """
    # Imported here: repro.exec sits on top of this module.
    from repro.exec import replicate_cells

    if base_seed is not None:
        config = replace(config, seed=base_seed)
    report = replicate_cells(
        f"replicate-{config.protocol}",
        [(config.protocol, config)],
        n_runs,
        policy=policy,
    )
    results = report.results[config.protocol]
    summary = summarize([r.as_dict() for r in results], level=level)
    return results, summary
