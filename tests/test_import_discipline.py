"""The simulation path imports numpy and the stdlib only (DESIGN.md).

scipy (statistics, Bianchi) and networkx (the
oracle, the perfect MAC, random placement, ``Network.graph``) are
imported inside the functions that use them.  Loading them costs over a
second per process, so these tests pin two things:

* a process that cannot import either package still imports ``repro``,
  runs every scenario family and a two-worker campaign, and ends with
  neither package in ``sys.modules``;
* the code that now imports them lazily returns, float for float, the
  values it returned when they were imported at module level.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.bianchi import (
    saturation_throughput_bps,
    transmission_probability,
)
from repro.analysis.stats import t_critical
from repro.experiments.scenario import (
    DEFAULT_TX_RANGE_M,
    ScenarioConfig,
    build_network,
)
from repro.mac.csma import MacConfig
from repro.topology.graph import connectivity_graph

ROOT = Path(__file__).resolve().parent.parent

GUARDED_RUN = textwrap.dedent(
    """
    import importlib.abc
    import json
    import sys
    from dataclasses import replace

    BLOCKED = ("scipy", "networkx")

    class Blocker(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] in BLOCKED:
                raise ImportError(f"{name} is blocked on the simulation path")
            return None

    sys.meta_path.insert(0, Blocker())
    for name in BLOCKED:
        try:
            __import__(name)
        except ImportError:
            pass
        else:
            raise SystemExit(f"the blocker let {name} through")

    import repro
    from repro.exec import (
        Campaign, CampaignExecutor, ExecPolicy, shutdown_shared_pools,
    )
    from tests.golden_runs import FAMILIES, base_config, load_golden, run_digest

    golden = load_golden()
    digests = {}
    for protocol in ("nlr", "aodv", "gossip", "counter", "dsdv"):
        for family, overrides in FAMILIES.items():
            name = f"{protocol}/{family}/seed1"
            config = replace(base_config(), protocol=protocol, seed=1, **overrides)
            digests[name] = run_digest(config)

    configs = [replace(base_config(), protocol="nlr", seed=s) for s in (1, 2, 3)]
    policy = ExecPolicy(workers=2, checkpoint=False)
    outcomes = CampaignExecutor(policy=policy).run(
        Campaign.from_configs("guard", configs)
    ).outcomes
    shutdown_shared_pools()

    print(json.dumps({
        "digests": digests,
        "golden_matches": sorted(k for k in digests if golden.get(k) == digests[k]),
        "cells_ok": [o.ok for o in outcomes],
        "loaded": [m for m in BLOCKED if m in sys.modules],
    }))
    """
)


def test_simulation_path_runs_without_scipy_or_networkx(tmp_path):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        "REPRO_CACHE_DIR": str(tmp_path / "cache"),
    }
    done = subprocess.run(
        [sys.executable, "-c", GUARDED_RUN], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert len(report["digests"]) == 20
    # Every case the golden file pins (nlr/aodv in all four families,
    # the other three static) reproduces its committed digest.
    assert len(report["golden_matches"]) == 11
    assert report["cells_ok"] == [True, True, True]
    assert report["loaded"] == []


# Values taken with scipy imported at module level (before the imports
# moved into the functions); equality is exact on purpose.
T_CRITICAL = {
    2: 12.706204736174694,
    3: 4.302652729749462,
    10: 2.262157162798205,
    30: 2.045229642132703,
}

@pytest.mark.parametrize("n", sorted(T_CRITICAL))
def test_t_critical_pinned(n):
    assert t_critical(n) == T_CRITICAL[n]


def test_bianchi_pinned():
    mac = MacConfig()
    assert transmission_probability(10, mac) == (
        0.037305079954573474, 0.28977145822263584,
    )
    assert saturation_throughput_bps(10, mac) == 3649161.098821583


@pytest.mark.parametrize("mac", ["csma", "perfect"])
def test_network_graph_is_the_unit_disk_graph_of_its_positions(mac):
    net = build_network(ScenarioConfig(grid_nx=3, grid_ny=3, n_flows=2, mac=mac))
    graph = net.graph
    assert graph is net.graph  # built once, then cached
    expected = connectivity_graph(net.positions, DEFAULT_TX_RANGE_M)
    assert sorted(graph.edges) == sorted(expected.edges)
    assert dict(graph.nodes(data="pos")) == dict(expected.nodes(data="pos"))
