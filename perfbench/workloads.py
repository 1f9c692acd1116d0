"""The configurations each benchmark workload hands to the simulator.

Every config is built here from the workload seed alone; the simulator
sees nothing else.  The seed orders a fixed set of scenarios (see
``DISCOVERY_SEEDS``), so every run does the same work.  Why each workload
exists:

* ``discovery`` — route discovery under churn on a 10x10 grid: roaming
  nodes and Poisson relay crashes break routes, forcing repeated RREQ
  floods, NLR forwarding decisions and RERRs while little data flows.
  Every layer from ``sim`` to ``experiments`` does work here.  Kernel
  flags stay at the library defaults (``python -m repro``).
* ``campaign`` — a burst of small ``CampaignExecutor`` sweeps of short
  3x3/4x4 cells on two workers, some resumed from checkpoints, where
  process start-up, pickling, checkpoint I/O and progress logging weigh
  as much as simulation.  Kernel flags stay at the library defaults.

The figures' reference operating point (``figures.REFERENCE_POINT``) is
not a workload: its scenarios take seconds each, so a run of the length
the time budget leaves for a third workload holds too few of them to
stay steady on a shared host.
"""

from __future__ import annotations

import random

from repro.experiments.scenario import ScenarioConfig

#: Protocols each scenario workload runs per sample, in this order.
PROTOCOLS = ("nlr", "aodv")

#: Every workload draws its scenarios from a fixed ladder of simulation
#: seeds, as the figures replicate a point over ``seed + k``; the workload
#: seed sets the order in which a run walks the ladder (for ``campaign``,
#: the order of the cells in each sweep).  The discovery rungs, picked from
#: 1000-1011, are ones whose nlr + aodv pair does the same work (logical
#: events) to within 1.5%, so a run's timings do not depend on which rungs
#: it happens to cover; across those twelve seeds the pair work varies by
#: a quarter.
DISCOVERY_SEEDS = (1000, 1001, 1003, 1009)
#: Replicate ``k`` of every campaign sweep point runs seed ``1 + k``.
CAMPAIGN_SEED = 1

#: Workers of the campaign workload (the ``--workers 2`` path).
CAMPAIGN_WORKERS = 2

#: Seeds per sweep point of a campaign.  Cell times spread tenfold across
#: sweep points and vary by seed within one; replicating every point keeps
#: the median cell time steady.
CAMPAIGN_REPLICATES = 3


def discovery_config(protocol: str, sim_seed: int) -> ScenarioConfig:
    """Route discovery under mobility and relay crashes (default kernel)."""
    return ScenarioConfig(
        protocol=protocol,
        seed=sim_seed,
        grid_nx=10,
        grid_ny=10,
        spacing_m=200.0,
        n_flows=15,
        flow_rate_pps=1.0,
        # The 15 discoveries start between 1.0 s and 2.4 s.
        flow_stagger_s=0.1,
        mobility="rwp",
        mobile_fraction=0.05,
        fault_spec={"kind": "poisson_crashes", "rate_per_s": 0.5, "mttr_s": 1.5},
        warmup_s=1.0,
        sim_time_s=3.5,
    )


def scenario_config(protocol: str, seed: int, index: int) -> ScenarioConfig:
    """``protocol``'s discovery config in the ``index``-th sample of a run."""
    ladder = list(DISCOVERY_SEEDS)
    random.Random(seed).shuffle(ladder)
    return discovery_config(protocol, ladder[index % len(ladder)])


def campaign_burst(seed: int) -> list[tuple[str, list[ScenarioConfig]]]:
    """One burst of small sweeps: ``(campaign name, cell configs)`` each.

    Like the figure sweeps, every sweep point is replicated over
    ``CAMPAIGN_REPLICATES`` seeds.  The first cell of every sweep is the
    one checkpointed before timing, so each campaign mixes resumed and
    computed cells; ``seed`` shuffles the order of the others.
    """
    rng = random.Random(seed)
    small = dict(grid_nx=3, grid_ny=3, n_flows=3)
    large = dict(grid_nx=4, grid_ny=4, n_flows=4)
    sweeps = [
        ("bench-rate-3x3", [
            dict(protocol=p, flow_rate_pps=r, **small)
            for r in (2.0, 10.0) for p in PROTOCOLS
        ]),
        ("bench-protocol-3x3", [
            dict(protocol=p, flow_rate_pps=5.0, **small)
            for p in ("nlr", "aodv", "gossip", "counter")
        ]),
        ("bench-rate-4x4", [
            dict(protocol=p, flow_rate_pps=r, **large)
            for r in (5.0, 20.0) for p in PROTOCOLS
        ]),
    ]
    burst = []
    for name, points in sweeps:
        cells = [
            ScenarioConfig(
                seed=CAMPAIGN_SEED + k, spacing_m=200.0,
                warmup_s=1.0, sim_time_s=4.0, **fields,
            )
            for fields in points for k in range(CAMPAIGN_REPLICATES)
        ]
        rest = cells[1:]
        rng.shuffle(rest)
        burst.append((name, cells[:1] + rest))
    return burst
