"""Per-figure/table experiment definitions (the reconstructed evaluation).

Each public function regenerates one table or figure from DESIGN.md §3 and
returns a :class:`FigureResult` — headers + rows of means (±95 % CI) in the
same layout the paper's figure would plot.

Every simulation is an exec cell whose result is checkpointed under its
content hash (see :func:`_campaign_policy`), so re-rendering a figure —
or a second figure sharing the same cells (Fig 1/2 on offered load,
Fig 4/6 on network size) — reassembles its table from checkpoints
without simulating anything.  The few figures that do not run on exec
cells keep their rows in the same store (see :func:`_stored_rows`).

Every function accepts ``quick``: the default True uses the reduced
parameter set sized for CI-class machines (2 replications, 15–25 s of
simulated time); ``quick=False`` uses the full 5-replication settings.

Sweep cells execute through :mod:`repro.exec`: each grid is submitted as
one campaign of independent ``(config, seed)`` tasks, so configuring a
worker pool (``python -m repro.experiments --workers N``) parallelises
whole figures while producing byte-identical tables to serial runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.analysis.stats import summarize
from repro.exec import (
    CheckpointStore,
    ExecPolicy,
    current_policy,
    run_adaptive_cells,
    run_configs,
)
from repro.experiments.cache import cache_dir, cache_key
from repro.experiments.runner import ScenarioResult
from repro.experiments.scenario import ScenarioConfig
from repro.metrics.fairness import jain_index, load_concentration
from repro.metrics.summary import format_table

__all__ = [
    "FigureResult",
    "table1_parameters",
    "fig1_pdr_vs_load",
    "fig2_delay_vs_load",
    "fig3_throughput_vs_flows",
    "fig4_overhead_vs_size",
    "fig5_load_distribution",
    "fig6_scalability",
    "fig7_broadcast_storm",
    "table2_summary",
    "ablation_metric",
    "ablation_policy",
    "ext_mobility",
    "ext_rtscts",
    "ext_energy",
    "validation_mac",
    "figure_resilience",
    "ALL_FIGURES",
]

#: Protocols compared in every line-plot figure.
COMPARED = ("aodv", "gossip", "counter", "nlr")


@dataclass(slots=True)
class FigureResult:
    """One regenerated table/figure.

    Attributes
    ----------
    name, title:
        Identifier (e.g. ``"fig1"``) and human title.
    headers:
        Column names; the first column is the x-axis (or row label).
    rows:
        Table body.
    expectation:
        The reconstructed paper-shaped claim this figure tests.
    notes:
        Free-form commentary on the measured shape.
    """

    name: str
    title: str
    headers: list[str]
    rows: list[list[Any]]
    expectation: str = ""
    notes: str = ""

    def render(self) -> str:
        """Monospaced text rendering."""
        out = format_table(self.headers, self.rows, title=f"{self.name}: {self.title}")
        if self.expectation:
            out += f"\nExpected shape: {self.expectation}"
        if self.notes:
            out += f"\nNotes: {self.notes}"
        return out


# ---------------------------------------------------------------------- #
# Shared sweep machinery
# ---------------------------------------------------------------------- #
def _reps(quick: bool) -> int:
    return 2 if quick else 5


def _point_reps(quick: bool) -> int:
    """Single-operating-point experiments are cheap enough for more seeds."""
    return 3 if quick else 6


def _summarize_cell(results: Sequence[ScenarioResult]) -> dict[str, float]:
    """Means + 95 % CI half-widths of one cell's replications, as floats."""
    out: dict[str, float] = {}
    for key, ci in summarize([r.as_dict() for r in results]).items():
        out[key] = ci.mean
        out[f"{key}_ci"] = ci.half_width
    return out


def _campaign_policy() -> ExecPolicy:
    """The policy every figure campaign runs under.

    The process-wide policy (workers, backend, adaptive, …) with cell
    checkpoints always written and always resumed from — except that
    ``REPRO_NO_CACHE=1`` skips the checkpoint reads, so every cell
    recomputes (and its checkpoint is rewritten).
    """
    return replace(
        current_policy(),
        checkpoint=True,
        resume=not os.environ.get("REPRO_NO_CACHE"),
    )


def _stored_rows(
    name: str, inputs: dict[str, Any], compute: Callable[[], Any]
) -> Any:
    """Rows of a figure that does not run on exec cells.

    Kept in the cell :class:`~repro.exec.CheckpointStore` under a content
    key of the figure's ``inputs``, read and written under the same
    :func:`_campaign_policy` rule as the cells.  ``compute`` must return
    JSON-serialisable rows.
    """
    store = CheckpointStore()
    key = cache_key(name, inputs)
    if _campaign_policy().resume:
        payload = store.load(key)
        if payload is not None:
            return payload["rows"]
    rows = compute()
    store.store(key, {"rows": rows})
    return rows


def _replicated_cells(
    name: str,
    cells: Sequence[tuple[Any, ScenarioConfig]],
    n_runs: int,
) -> dict[Any, dict[str, float]]:
    """Replicate every ``(key, config)`` cell as ONE executor campaign.

    All ``len(cells) × n_runs`` runs are submitted together, so a
    configured worker pool (``repro.exec``, CLI ``--workers``) parallelises
    across the whole grid, not just within one cell.  Results are grouped
    back in task order — aggregation never sees completion order, which
    keeps parallel output byte-identical to serial.

    When the process-wide policy carries an
    :class:`~repro.exec.AdaptivePolicy`, ``n_runs`` becomes the per-cell
    *budget*: replication proceeds in waves (each wave one campaign across
    every unconverged cell) and stops per cell once the declared metric's
    CI half-width is tight — see :mod:`repro.exec.adaptive`.
    """
    policy = _campaign_policy()
    adaptive = policy.adaptive
    if adaptive is not None and n_runs >= 2:
        keyed = [(f"c{i}", config) for i, (_, config) in enumerate(cells)]
        log_dir = policy.log_dir or cache_dir() / "runs"
        report = run_adaptive_cells(
            name, keyed, n_budget=n_runs, adaptive=adaptive, policy=policy,
            audit_path=log_dir / f"adaptive-{name}.jsonl",
        )
        return {
            key: _summarize_cell(report.results[f"c{i}"])
            for i, (key, _) in enumerate(cells)
        }
    keys: list[Any] = []
    configs: list[ScenarioConfig] = []
    tags: list[str] = []
    for key, config in cells:
        for k in range(n_runs):
            keys.append(key)
            configs.append(replace(config, seed=config.seed + k))
            tags.append(str(key))
    results = run_configs(name, configs, policy=policy, tags=tags)
    grouped: dict[Any, list[ScenarioResult]] = {}
    for key, result in zip(keys, results):
        grouped.setdefault(key, []).append(result)
    return {key: _summarize_cell(runs) for key, runs in grouped.items()}


def _protocol_sweep(
    sweep_name: str,
    base: ScenarioConfig,
    values: Sequence[Any],
    apply: Callable[[ScenarioConfig, Any], ScenarioConfig],
    quick: bool,
    protocols: Sequence[str] = COMPARED,
) -> dict[str, dict[str, dict[str, float]]]:
    """protocol → str(value) → metric dict over one replicated campaign."""
    cells = [
        ((proto, str(value)), replace(apply(base, value), protocol=proto))
        for proto in protocols
        for value in values
    ]
    flat = _replicated_cells(sweep_name, cells, _reps(quick))
    table: dict[str, dict[str, dict[str, float]]] = {}
    for (proto, value_key), metrics in flat.items():
        table.setdefault(proto, {})[value_key] = metrics
    return table


# ---------------------------------------------------------------------- #
# Operating points
# ---------------------------------------------------------------------- #
# Calibrated operating regime (see EXPERIMENTS.md preamble): a 5×5 mesh at
# 230 m spacing spans ≈2 carrier-sense domains, so spatial reuse exists and
# load-aware path selection has alternatives to choose between; the
# contention knee for 10 two-gateway CBR flows sits near 50 pps/flow.
#
# Every sweep runs the default scalar kernel.  batched_kernel is
# byte-identical but slower here: with per-receiver propagation delays
# its block events shrink to singletons, and at REFERENCE_POINT the
# refpoint_e2e pair in benchmarks/baseline.py measured batched at 0.65×
# scalar speed on a 2.1 GHz Xeon (the committed full-mode baseline record).
def _load_sweep_base(quick: bool) -> tuple[ScenarioConfig, list[float]]:
    base = ScenarioConfig(
        grid_nx=5, grid_ny=5, spacing_m=230.0, n_flows=10,
        flow_pattern="gateway", n_gateways=2,
        sim_time_s=25.0 if quick else 40.0, warmup_s=5.0, seed=100,
    )
    rates = [15.0, 30.0, 45.0, 60.0, 75.0]
    return base, rates


def _size_sweep_base(quick: bool) -> tuple[ScenarioConfig, list[int]]:
    # Rate 40 pps: light for a 3×3 (PDR ≈ 1) but past the knee on a 5×5,
    # so the "delivery declines with size" shape is visible in-sweep.
    base = ScenarioConfig(
        spacing_m=230.0, flow_pattern="random", flow_rate_pps=40.0,
        sim_time_s=20.0 if quick else 40.0, warmup_s=5.0, seed=200,
    )
    sizes = [3, 4, 5] if quick else [3, 4, 5, 6]
    return base, sizes


# The knee (≈50 pps for this mesh/flow mix) is where scheme differences are
# signal rather than saturation noise; fig5/table2/ablations measure here.
REFERENCE_POINT = dict(
    grid_nx=5, grid_ny=5, spacing_m=230.0, n_flows=10,
    flow_pattern="gateway", n_gateways=2, flow_rate_pps=50.0,
    warmup_s=5.0, seed=300,
)


def _at_reference_point(protocol: str, quick: bool, **overrides) -> ScenarioConfig:
    """``protocol`` at :data:`REFERENCE_POINT` for the figure's run length."""
    return ScenarioConfig(
        protocol=protocol, sim_time_s=20.0 if quick else 40.0,
        **REFERENCE_POINT, **overrides,
    )


def _load_sweep(quick: bool):
    base, rates = _load_sweep_base(quick)
    return rates, _protocol_sweep(
        "load_sweep", base, rates,
        lambda c, r: replace(c, flow_rate_pps=r), quick,
    )


def _size_sweep(quick: bool):
    base, sizes = _size_sweep_base(quick)

    # Flows scale with n*n/2, so offered load grows faster than the spatial
    # reuse a larger grid adds: small grids sit below the knee, large grids
    # above it - the "delivery declines with size" shape has room to show.
    def apply(c: ScenarioConfig, n: int) -> ScenarioConfig:
        return replace(c, grid_nx=n, grid_ny=n, n_flows=max(2, (n * n) // 2))

    return sizes, _protocol_sweep("size_sweep", base, sizes, apply, quick)


# ---------------------------------------------------------------------- #
# Table 1 — simulation parameters
# ---------------------------------------------------------------------- #
def table1_parameters(quick: bool = True) -> FigureResult:
    """The fixed simulation parameters (paper's Table 1 analogue)."""
    cfg = ScenarioConfig()
    rows = [
        ["Propagation model", "Two-ray ground (ns-2 constants)"],
        ["Transmission range", "250 m"],
        ["Carrier-sense range", "550 m"],
        ["PHY data / basic rate", "11 / 2 Mb/s (802.11b)"],
        ["MAC", "IEEE 802.11 DCF, CW 31-1023, retry limit 7"],
        ["Interface queue", f"drop-tail, {cfg.mac_config.queue_capacity} packets"],
        ["Topology", "n×n mesh grid, 230 m spacing (≈2 CS domains at 5×5)"],
        ["Traffic", f"CBR over UDP, {cfg.payload_bytes} B payload"],
        ["HELLO interval", f"{cfg.aodv.hello_interval_s} s"],
        ["NLR reply window", f"{cfg.nlr.aodv.dest_reply_wait_s * 1000:.0f} ms"],
        ["NLR load blend", f"β={cfg.nlr.queue_weight} queue / busy"],
        ["NLR neighbourhood weight", f"α={cfg.nlr.own_weight}"],
        ["NLR damping", f"p∈[{cfg.nlr.p_min},{cfg.nlr.p_max}], γ={cfg.nlr.gamma}"],
        ["Replications", f"{_reps(quick)} seeds, mean ± 95% CI"],
    ]
    return FigureResult(
        name="table1",
        title="Simulation parameters",
        headers=["Parameter", "Value"],
        rows=rows,
    )


# ---------------------------------------------------------------------- #
# Fig 1 / Fig 2 — PDR and delay vs offered load
# ---------------------------------------------------------------------- #
def fig1_pdr_vs_load(quick: bool = True) -> FigureResult:
    """Packet delivery ratio vs per-flow CBR rate (gateway traffic)."""
    rates, table = _load_sweep(quick)
    rows = [
        [rate] + [round(table[p][str(rate)]["pdr"], 4) for p in COMPARED]
        for rate in rates
    ]
    knee = str(rates[-2])
    note = (
        f"measured at {knee} pps: nlr {table['nlr'][knee]['pdr']:.3f}, "
        f"gossip {table['gossip'][knee]['pdr']:.3f}, "
        f"aodv {table['aodv'][knee]['pdr']:.3f}; the schemes re-converge "
        "deep in saturation, where every queue overflows regardless of path"
    )
    return FigureResult(
        name="fig1",
        title="PDR vs offered load (5×5 mesh, 10 two-gateway flows)",
        headers=["rate_pps"] + [f"{p}_pdr" for p in COMPARED],
        rows=rows,
        expectation=(
            "all schemes ≈1 at light load; beyond the knee (~45-60 pps) "
            "AODV collapses first, probabilistic schemes (gossip/counter/NLR) "
            "retain markedly higher delivery"
        ),
        notes=note,
    )


def fig2_delay_vs_load(quick: bool = True) -> FigureResult:
    """Mean end-to-end delay vs per-flow CBR rate (same sweep as Fig 1)."""
    rates, table = _load_sweep(quick)
    rows = [
        [rate]
        + [round(table[p][str(rate)]["mean_delay_s"] * 1000, 3) for p in COMPARED]
        for rate in rates
    ]
    return FigureResult(
        name="fig2",
        title="End-to-end delay vs offered load (ms)",
        headers=["rate_pps"] + [f"{p}_delay_ms" for p in COMPARED],
        rows=rows,
        expectation=(
            "sub-10 ms for all at light load; past the knee delay inflates "
            "by ~50× for every scheme (drop-tail queues dominate); the "
            "surviving differences are second-order"
        ),
        notes=(
            "delivered-packet delay under saturation mostly measures queue "
            "depth, which is capped; delivery ratio (Fig 1) is the "
            "discriminating metric past the knee"
        ),
    )


# ---------------------------------------------------------------------- #
# Fig 3 — throughput vs number of flows
# ---------------------------------------------------------------------- #
def fig3_throughput_vs_flows(quick: bool = True) -> FigureResult:
    """Aggregate received throughput vs number of gateway flows."""
    base = ScenarioConfig(
        grid_nx=5, grid_ny=5, spacing_m=230.0,
        flow_pattern="gateway", n_gateways=2,
        flow_rate_pps=40.0, sim_time_s=20.0 if quick else 40.0,
        warmup_s=5.0, seed=400,
    )
    flows = [2, 6, 10, 14]
    table = _protocol_sweep(
        "flows_sweep", base, flows,
        lambda c, n: replace(c, n_flows=n), quick,
    )
    rows = [
        [n]
        + [
            round(table[p][str(n)]["throughput_bps"] / 1e3, 1)
            for p in COMPARED
        ]
        for n in flows
    ]
    return FigureResult(
        name="fig3",
        title="Aggregate throughput vs number of flows (kb/s)",
        headers=["n_flows"] + [f"{p}_kbps" for p in COMPARED],
        rows=rows,
        expectation=(
            "throughput rises with flows until the collision domain "
            "saturates, then plateaus/declines; the probabilistic schemes "
            "sustain the higher plateau"
        ),
    )


# ---------------------------------------------------------------------- #
# Fig 4 / Fig 6 — overhead and PDR/delay vs network size
# ---------------------------------------------------------------------- #
def fig4_overhead_vs_size(quick: bool = True) -> FigureResult:
    """Routing overhead (RREQ transmissions, NRL) vs grid size."""
    sizes, table = _size_sweep(quick)
    rows = []
    for n in sizes:
        row: list[Any] = [f"{n}x{n}"]
        for p in COMPARED:
            row.append(round(table[p][str(n)]["rreq_tx"], 1))
        for p in COMPARED:
            row.append(round(table[p][str(n)]["normalized_routing_load"], 3))
        rows.append(row)
    return FigureResult(
        name="fig4",
        title="Routing overhead vs network size",
        headers=["grid"]
        + [f"{p}_rreq" for p in COMPARED]
        + [f"{p}_nrl" for p in COMPARED],
        rows=rows,
        expectation=(
            "RREQ transmissions grow superlinearly with size under blind "
            "flooding; gossip/counter/NLR cut them by their suppression "
            "factor, widening with size"
        ),
    )


def fig6_scalability(quick: bool = True) -> FigureResult:
    """Delivery and delay vs grid size (same sweep as Fig 4)."""
    sizes, table = _size_sweep(quick)
    rows = []
    for n in sizes:
        row: list[Any] = [f"{n}x{n}"]
        for p in COMPARED:
            row.append(round(table[p][str(n)]["pdr"], 4))
        for p in COMPARED:
            row.append(round(table[p][str(n)]["mean_delay_s"] * 1000, 2))
        rows.append(row)
    return FigureResult(
        name="fig6",
        title="Scalability: PDR and delay (ms) vs network size",
        headers=["grid"]
        + [f"{p}_pdr" for p in COMPARED]
        + [f"{p}_ms" for p in COMPARED],
        rows=rows,
        expectation=(
            "PDR declines and delay grows with size for every scheme; the "
            "ordering from Fig 1 (NLR/gossip above AODV) is preserved at "
            "every size"
        ),
    )


# ---------------------------------------------------------------------- #
# Fig 5 — load distribution across mesh routers
# ---------------------------------------------------------------------- #
def fig5_load_distribution(quick: bool = True) -> FigureResult:
    """Per-node forwarding-load spread at the reference operating point."""
    n_runs = _point_reps(quick)
    keys, configs = [], []
    for proto in COMPARED:
        config = _at_reference_point(proto, quick)
        for k in range(n_runs):
            keys.append(proto)
            configs.append(replace(config, seed=config.seed + k))
    results = run_configs(
        "fig5_load_distribution", configs, policy=_campaign_policy(),
        tags=keys,
    )
    table: dict[str, dict[str, float]] = {}
    for proto in COMPARED:
        runs = [r for key, r in zip(keys, results) if key == proto]
        jains, top3, maxs = [], [], []
        for r in runs:
            per_node = np.asarray(r.per_node_forwarded)
            jains.append(jain_index(per_node))
            top3.append(load_concentration(per_node, top_k=3))
            maxs.append(float(per_node.max()))
        table[proto] = {
            "jain": float(np.mean(jains)),
            "top3_share": float(np.mean(top3)),
            "max_forwarded": float(np.mean(maxs)),
        }
    rows = [
        [
            p,
            round(table[p]["jain"], 4),
            round(table[p]["top3_share"], 4),
            round(table[p]["max_forwarded"], 1),
        ]
        for p in COMPARED
    ]
    return FigureResult(
        name="fig5",
        title="Forwarding-load distribution at the reference point",
        headers=["protocol", "jain_index", "top3_share", "max_forwarded"],
        rows=rows,
        expectation=(
            "NLR spreads forwarding over more routers: higher Jain index, "
            "lower top-3 concentration than shortest-hop AODV"
        ),
        notes=(
            f"measured Jain: nlr {table['nlr']['jain']:.3f} vs aodv "
            f"{table['aodv']['jain']:.3f}; busiest router forwarded "
            f"{table['nlr']['max_forwarded']:.0f} (nlr) vs "
            f"{table['aodv']['max_forwarded']:.0f} (aodv) packets"
        ),
    )


# ---------------------------------------------------------------------- #
# Fig 7 — broadcast-storm microcosm
# ---------------------------------------------------------------------- #
def fig7_broadcast_storm(quick: bool = True) -> FigureResult:
    """Flood reachability vs saved rebroadcasts across densities."""
    from repro.experiments.storm import run_storm

    densities = [20, 35, 50] if quick else [20, 30, 40, 50, 60]
    policies = ["blind", "gossip", "counter", "nlr"]
    n_runs = _reps(quick)
    inputs = {"densities": densities, "policies": policies, "n_runs": n_runs}

    def compute() -> dict[str, dict[str, dict[str, float]]]:
        out: dict[str, dict[str, dict[str, float]]] = {}
        for policy in policies:
            out[policy] = {}
            for n in densities:
                reach, saved = [], []
                for k in range(n_runs):
                    res = run_storm(policy=policy, n_nodes=n, seed=500 + k)
                    reach.append(res["reachability"])
                    saved.append(res["saved_rebroadcast_ratio"])
                out[policy][str(n)] = {
                    "reachability": float(np.mean(reach)),
                    "saved": float(np.mean(saved)),
                }
        return out

    table = _stored_rows("fig7_broadcast_storm", inputs, compute)
    rows = []
    for n in densities:
        row: list[Any] = [n]
        for p in policies:
            row.append(round(table[p][str(n)]["reachability"], 4))
        for p in policies:
            row.append(round(table[p][str(n)]["saved"], 4))
        rows.append(row)
    return FigureResult(
        name="fig7",
        title="Broadcast storm: reachability and saved rebroadcasts vs density",
        headers=["n_nodes"]
        + [f"{p}_reach" for p in policies]
        + [f"{p}_saved" for p in policies],
        rows=rows,
        expectation=(
            "blind flooding reaches everyone but saves nothing; gossip and "
            "counter save 30-60% of rebroadcasts at near-full reachability "
            "once density is moderate; the load-adaptive policy matches "
            "blind reachability at low load while saving under load"
        ),
    )


# ---------------------------------------------------------------------- #
# Table 2 — head-to-head summary
# ---------------------------------------------------------------------- #
def table2_summary(quick: bool = True) -> FigureResult:
    """All schemes (incl. oracle) at the reference operating point."""
    protocols = list(COMPARED) + ["dsdv", "oracle"]
    cells = [(proto, _at_reference_point(proto, quick)) for proto in protocols]
    table = _replicated_cells("table2_summary", cells, _point_reps(quick))
    rows = []
    for p in protocols:
        m = table[p]
        rows.append(
            [
                p,
                round(m["pdr"], 4),
                round(m["mean_delay_s"] * 1000, 2),
                round(m["throughput_bps"] / 1e3, 1),
                round(m["normalized_routing_load"], 3),
                round(m["jain_fairness"], 4),
            ]
        )
    note = (
        f"measured: nlr pdr {table['nlr']['pdr']:.3f} "
        f"(jain {table['nlr']['jain_fairness']:.3f}) vs aodv "
        f"{table['aodv']['pdr']:.3f} ({table['aodv']['jain_fairness']:.3f}); "
        f"nlr pays nrl {table['nlr']['normalized_routing_load']:.3f} vs "
        f"aodv {table['aodv']['normalized_routing_load']:.3f} for its "
        "periodic re-discovery"
    )
    return FigureResult(
        name="table2",
        title="Head-to-head at the reference point (50 pps, 10 two-gateway flows)",
        headers=["protocol", "pdr", "delay_ms", "thr_kbps", "nrl", "jain"],
        rows=rows,
        expectation=(
            "oracle bounds delivery from above with zero overhead; NLR leads "
            "the on-demand schemes on the delivery + fairness combination, "
            "paying visibly more control overhead; AODV trails on fairness; "
            "proactive DSDV pays traffic-independent periodic overhead and "
            "cannot react to congestion at all"
        ),
        notes=note,
    )


# ---------------------------------------------------------------------- #
# Ablations
# ---------------------------------------------------------------------- #
def _ablation(
    name: str, title: str, protocols: Sequence[str], quick: bool, expectation: str
) -> FigureResult:
    cells = [(proto, _at_reference_point(proto, quick)) for proto in protocols]
    table = _replicated_cells(name, cells, _point_reps(quick))
    rows = []
    for p in protocols:
        m = table[p]
        rows.append(
            [
                p,
                round(m["pdr"], 4),
                round(m["mean_delay_s"] * 1000, 2),
                round(m["rreq_tx"], 1),
                round(m["jain_fairness"], 4),
            ]
        )
    return FigureResult(
        name=name,
        title=title,
        headers=["variant", "pdr", "delay_ms", "rreq_tx", "jain"],
        rows=rows,
        expectation=expectation,
    )


def ablation_metric(quick: bool = True) -> FigureResult:
    """Ablation A: which cross-layer ingredients matter."""
    return _ablation(
        "ablation_metric",
        "Ablation A: load-metric ingredients",
        ["nlr", "nlr-queue", "nlr-busy", "nlr-own", "aodv"],
        quick,
        expectation=(
            "every load-sensing variant beats AODV on delivery or fairness "
            "at the knee; the single-signal and own-load-only variants "
            "cluster near the full blend (the ingredients are partially "
            "redundant in a mesh whose busy-ratio field is spatially smooth)"
        ),
    )


def ablation_policy(quick: bool = True) -> FigureResult:
    """Ablation B: damped flooding vs load-aware selection."""
    return _ablation(
        "ablation_policy",
        "Ablation B: mechanism split",
        ["nlr", "nlr-noprob", "nlr-noselect", "aodv"],
        quick,
        expectation=(
            "each mechanism alone retains most of the benefit at the knee "
            "(they overlap: both steer load away from hot regions); "
            "nlr-noprob pays more RREQ transmissions than full NLR because "
            "nothing damps its periodic re-discovery floods"
        ),
    )


# ---------------------------------------------------------------------- #
# Extension — robustness under node mobility (random waypoint)
# ---------------------------------------------------------------------- #
def ext_mobility(quick: bool = True) -> FigureResult:
    """Extension: delivery and repair traffic vs node speed (RWP).

    Not a reconstructed paper figure — an extension exercising the MANET
    heritage of the scheme family (the calibration bands situate the paper
    next to velocity-aware probabilistic route discovery work).  Every node
    moves under random waypoint; faster motion breaks links more often, so
    delivery falls and RERR traffic rises for every scheme.
    """
    base = ScenarioConfig(
        topology="random", n_nodes=20, area_m=(900.0, 900.0),
        n_flows=6, flow_rate_pps=10.0,
        sim_time_s=20.0 if quick else 40.0, warmup_s=4.0, seed=600,
    )
    speeds = [0.0, 4.0, 8.0, 12.0]
    protocols = ("aodv", "gossip", "nlr")

    def apply(c: ScenarioConfig, v: float) -> ScenarioConfig:
        if v <= 0:
            return replace(c, mobility="static")
        return replace(c, mobility="rwp", speed_range=(max(0.5, v / 2), v))

    table = _protocol_sweep(
        "mobility_sweep", base, speeds, apply, quick, protocols=protocols
    )
    rows = []
    for v in speeds:
        row: list[Any] = [v]
        for p_ in protocols:
            row.append(round(table[p_][str(v)]["pdr"], 4))
        for p_ in protocols:
            row.append(round(table[p_][str(v)]["rreq_tx"], 1))
        rows.append(row)
    return FigureResult(
        name="ext_mobility",
        title="Extension: PDR and discovery traffic vs node speed (RWP)",
        headers=["max_speed_mps"]
        + [f"{p_}_pdr" for p_ in protocols]
        + [f"{p_}_rreq" for p_ in protocols],
        rows=rows,
        expectation=(
            "monotone delivery decline with speed for every scheme; route "
            "repair traffic (RREQ) rises with speed; NLR's periodic "
            "re-discovery makes it naturally repair-ready, keeping its "
            "delivery within the pack under motion"
        ),
    )


# ---------------------------------------------------------------------- #
# Extension — RTS/CTS virtual carrier sense on/off
# ---------------------------------------------------------------------- #
def ext_rtscts(quick: bool = True) -> FigureResult:
    """Extension: does the RTS/CTS handshake pay off at the reference point?

    In a mesh whose 550 m carrier-sense range already covers every hidden
    pair (ns-2's classic parameterisation — see the MAC tests for the
    shrunk-CS case where RTS/CTS visibly protects DATA frames), the
    handshake is pure overhead: four extra control frames per data packet.
    This experiment quantifies that cost for AODV and NLR.
    """
    from repro.mac.csma import MacConfig

    cells = [
        (
            f"{proto}{'+rts' if rts else ''}",
            _at_reference_point(
                proto, quick, mac_config=MacConfig(rts_cts_enabled=rts)
            ),
        )
        for proto in ("aodv", "nlr")
        for rts in (False, True)
    ]
    table = _replicated_cells("ext_rtscts", cells, _point_reps(quick))
    rows = []
    for key in ("aodv", "aodv+rts", "nlr", "nlr+rts"):
        m = table[key]
        rows.append(
            [
                key,
                round(m["pdr"], 4),
                round(m["mean_delay_s"] * 1000, 2),
                round(m["throughput_bps"] / 1e3, 1),
            ]
        )
    return FigureResult(
        name="ext_rtscts",
        title="Extension: RTS/CTS handshake cost at the reference point",
        headers=["scheme", "pdr", "delay_ms", "thr_kbps"],
        rows=rows,
        expectation=(
            "with 550 m carrier sense there are no hidden pairs to protect, "
            "so RTS/CTS costs capacity: delivery/throughput drop slightly "
            "with the handshake on, for both schemes"
        ),
    )


# ---------------------------------------------------------------------- #
# Validation — simulated vs analytical DCF saturation throughput
# ---------------------------------------------------------------------- #
def validation_mac(quick: bool = True) -> FigureResult:
    """Substrate validation: DCF saturation throughput vs Bianchi's model.

    Not a paper figure — the simulator credibility check every ns-2-style
    release performs: n saturated stations around one sink, measured
    aggregate throughput against Bianchi (JSAC 2000).  Agreement within a
    few percent validates the carrier-sense/backoff/ACK machinery that all
    routing results stand on.
    """
    from repro.experiments.validation import saturation_comparison

    counts = [2, 5, 10, 15] if quick else [2, 5, 10, 15, 20, 30]
    duration = 4.0 if quick else 10.0
    rows_data = _stored_rows(
        "validation_mac",
        {"counts": counts, "duration": duration},
        lambda: saturation_comparison(
            station_counts=counts, duration_s=duration
        ),
    )
    rows = [
        [
            int(r["n"]),
            round(r["simulated_bps"] / 1e6, 4),
            round(r["bianchi_bps"] / 1e6, 4),
            round(r["error_pct"], 2),
        ]
        for r in rows_data
    ]
    worst = max(abs(r["error_pct"]) for r in rows_data)
    return FigureResult(
        name="validation_mac",
        title="DCF saturation throughput: simulator vs Bianchi model (Mb/s)",
        headers=["n_stations", "simulated_mbps", "bianchi_mbps", "error_pct"],
        rows=rows,
        expectation=(
            "simulated saturation throughput tracks the analytical curve "
            "within a few percent at every station count; throughput peaks "
            "at small n and declines slowly as collisions grow"
        ),
        notes=f"worst-case deviation from the model: {worst:.1f}%",
    )


# ---------------------------------------------------------------------- #
# Extension — communication energy and network lifetime
# ---------------------------------------------------------------------- #
def ext_energy(quick: bool = True) -> FigureResult:
    """Extension: does load spreading translate into network lifetime?

    Radios are metered with the classic WLAN power profile (idle draw
    zeroed: it is identical across schemes and would swamp the comparison).
    Reported per scheme at the reference point: the busiest node's
    communication energy, Jain fairness over per-node energy, and the
    *projected lifetime* — how long a battery of fixed size would last at
    the busiest node's burn rate (first-node-death convention).
    """
    from repro.experiments.runner import collect_result
    from repro.experiments.scenario import build_network
    from repro.metrics.fairness import jain_index
    from repro.phy.energy import EnergyConfig, attach_energy_meters

    protocols = ("aodv", "gossip", "nlr")
    n_runs = _point_reps(quick)
    sim_time = 20.0 if quick else 40.0
    battery_j = 100.0
    inputs = {"point": REFERENCE_POINT, "protocols": list(protocols),
              "n_runs": n_runs, "sim_time": sim_time, "battery": battery_j}

    def compute() -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for proto in protocols:
            max_j, jain_vals, lifetimes, pdrs = [], [], [], []
            for k in range(n_runs):
                config = ScenarioConfig(
                    protocol=proto, sim_time_s=sim_time,
                    **{**REFERENCE_POINT, "seed": REFERENCE_POINT["seed"] + k},
                )
                net = build_network(config)
                meters = attach_energy_meters(
                    net, EnergyConfig(idle_w=0.0)
                )
                net.start()
                net.sim.run(until=sim_time)
                net.stop()
                consumed = [m.consumed_j() for m in meters.values()]
                peak = max(consumed)
                max_j.append(peak)
                jain_vals.append(jain_index(consumed))
                lifetimes.append(battery_j / (peak / sim_time))
                pdrs.append(collect_result(net).pdr)
            out[proto] = {
                "max_j": float(np.mean(max_j)),
                "jain_energy": float(np.mean(jain_vals)),
                "lifetime_s": float(np.mean(lifetimes)),
                "pdr": float(np.mean(pdrs)),
            }
        return out

    table = _stored_rows("ext_energy", inputs, compute)
    rows = [
        [
            p_,
            round(table[p_]["pdr"], 4),
            round(table[p_]["max_j"], 2),
            round(table[p_]["jain_energy"], 4),
            round(table[p_]["lifetime_s"], 0),
        ]
        for p_ in protocols
    ]
    best = max(protocols, key=lambda p_: table[p_]["lifetime_s"])
    return FigureResult(
        name="ext_energy",
        title="Extension: communication energy and projected lifetime "
              f"({battery_j:.0f} J battery, first-node-death)",
        headers=["protocol", "pdr", "busiest_node_J", "jain_energy",
                 "lifetime_s"],
        rows=rows,
        expectation=(
            "NLR's load spreading lowers the busiest node's burn rate, so "
            "the first-node-death lifetime extends relative to shortest-hop "
            "AODV at equal-or-better delivery"
        ),
        notes=f"longest projected lifetime: {best}",
    )


# ---------------------------------------------------------------------- #
# Resilience under node churn (fault injection)
# ---------------------------------------------------------------------- #
def _nan_mean_total(results: Sequence[ScenarioResult], key: str) -> float:
    """NaN-safe mean of a ``totals`` entry across replications.

    Resilience counters only exist on runs that had a fault plan (and
    reconvergence can be NaN when no episode completed), so missing keys
    and NaNs are both skipped rather than poisoning the mean.
    """
    vals = [
        v for v in (r.totals.get(key, float("nan")) for r in results)
        if not np.isnan(v)
    ]
    return float(np.mean(vals)) if vals else float("nan")


def figure_resilience(quick: bool = True) -> FigureResult:
    """PDR and recovery time vs node-crash rate (the chaos figure).

    Every cell runs the same 4×4 mesh while :mod:`repro.faults` injects a
    Poisson node-crash process (MTTR 6 s); rate 0 is the fault-free
    baseline.  Beyond PDR, the per-run ResilienceCollector totals supply
    route re-convergence latency, steady-state recovery time, blackout
    loss, and control overhead spent on repair.
    """
    protocols = ["aodv", "gossip", "nlr"]
    rates_per_min = [0.0, 4.0, 8.0] if quick else [0.0, 2.0, 4.0, 8.0, 16.0]
    n_runs = _reps(quick)
    sim_time = 30.0 if quick else 60.0
    warmup = 5.0

    def _cell_config(proto: str, rate_per_min: float) -> ScenarioConfig:
        spec = None
        if rate_per_min > 0:
            # Crashes only inside the measured window: start after warmup,
            # stop 5 s before the end so the last MTTR can play out.
            # Victims are the 4×4 grid's interior nodes — the backbone
            # relays.  Crashing a flow endpoint loses packets identically
            # under every protocol; crashing a relay is the event routing
            # schemes can actually differ on (detect + re-route).
            spec = {
                "kind": "poisson_crashes",
                "rate_per_s": rate_per_min / 60.0,
                "mttr_s": 6.0,
                "start_s": warmup,
                "stop_s": sim_time - 5.0,
                "nodes": [5, 6, 9, 10],
            }
        # Seed varies per crash rate: numpy's exponential draws are the
        # same underlying bits scaled by 1/rate, so a shared seed would
        # give every rate the SAME crash schedule, merely time-scaled.
        return ScenarioConfig(
            protocol=proto, grid_nx=4, grid_ny=4, spacing_m=230.0,
            n_flows=8, flow_pattern="random", flow_rate_pps=15.0,
            sim_time_s=sim_time, warmup_s=warmup,
            seed=700 + 41 * rates_per_min.index(rate_per_min),
            fault_spec=spec,
        )

    keys: list[tuple[str, float]] = []
    configs: list[ScenarioConfig] = []
    tags: list[str] = []
    for proto in protocols:
        for rate in rates_per_min:
            base = _cell_config(proto, rate)
            for k in range(n_runs):
                keys.append((proto, rate))
                configs.append(replace(base, seed=base.seed + k))
                tags.append(f"{proto}@{rate:g}pm")
    results = run_configs(
        "figure_resilience", configs, policy=_campaign_policy(), tags=tags
    )
    grouped: dict[tuple[str, float], list[ScenarioResult]] = {}
    for key, result in zip(keys, results):
        grouped.setdefault(key, []).append(result)
    table: dict[str, dict[str, dict[str, float]]] = {}
    for (proto, rate), runs in grouped.items():
        table.setdefault(proto, {})[str(rate)] = {
            "pdr": float(np.mean([r.pdr for r in runs])),
            "reconv_s": _nan_mean_total(runs, "resilience_reconv_mean_s"),
            "recovery_s": _nan_mean_total(runs, "resilience_recovery_mean_s"),
            "repair_control": _nan_mean_total(runs, "resilience_repair_control"),
        }
    rows = []
    for rate in rates_per_min:
        key = str(rate)
        row: list[Any] = [rate]
        for proto in protocols:
            row.append(round(table[proto][key]["pdr"], 4))
        for proto in protocols:
            r = table[proto][key]["recovery_s"]
            row.append("-" if np.isnan(r) else round(r, 2))
        rows.append(row)
    top = str(rates_per_min[-1])
    note = (
        f"at {rates_per_min[-1]:g} crashes/min: nlr pdr "
        f"{table['nlr'][top]['pdr']:.3f} vs aodv "
        f"{table['aodv'][top]['pdr']:.3f}; mean reconvergence nlr "
        f"{table['nlr'][top]['reconv_s']:.2f} s vs aodv "
        f"{table['aodv'][top]['reconv_s']:.2f} s; repair control nlr "
        f"{table['nlr'][top]['repair_control']:.0f} vs aodv "
        f"{table['aodv'][top]['repair_control']:.0f} pkts"
    )
    return FigureResult(
        name="resilience",
        title="Resilience: delivery and recovery vs node-crash rate "
              "(Poisson crashes, MTTR 6 s)",
        headers=(
            ["crash_per_min"]
            + [f"{p}_pdr" for p in protocols]
            + [f"{p}_recov_s" for p in protocols]
        ),
        rows=rows,
        expectation=(
            "all schemes lose delivery as churn rises; NLR degrades more "
            "gracefully than AODV because HELLO-fed neighbourhood state "
            "detects dead next hops and re-routes around them, while "
            "gossip's redundant flooding buys robustness at the highest "
            "overhead"
        ),
        notes=note,
    )


#: Registry used by the CLI and the EXPERIMENTS.md generator.
ALL_FIGURES: dict[str, Callable[[bool], FigureResult]] = {
    "table1": table1_parameters,
    "fig1": fig1_pdr_vs_load,
    "fig2": fig2_delay_vs_load,
    "fig3": fig3_throughput_vs_flows,
    "fig4": fig4_overhead_vs_size,
    "fig5": fig5_load_distribution,
    "fig6": fig6_scalability,
    "fig7": fig7_broadcast_storm,
    "table2": table2_summary,
    "ablation_metric": ablation_metric,
    "ablation_policy": ablation_policy,
    "ext_mobility": ext_mobility,
    "ext_rtscts": ext_rtscts,
    "ext_energy": ext_energy,
    "validation_mac": validation_mac,
    "resilience": figure_resilience,
}
