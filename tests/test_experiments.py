"""Tests for scenario construction, the runner, sweeps, cache, and CLI."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.cache import cache_key
from repro.experiments.runner import ScenarioResult, replicate, run_scenario
from repro.experiments.scenario import PROTOCOLS, ScenarioConfig, build_network
from repro.experiments.sweeps import sweep


def tiny(protocol="aodv", **kw):
    defaults = dict(
        protocol=protocol, grid_nx=3, grid_ny=3, n_flows=2,
        sim_time_s=8.0, warmup_s=1.0, seed=3,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestScenarioConfig:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(protocol="ospf")

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(topology="torus")

    def test_warmup_bound(self):
        with pytest.raises(ValueError):
            ScenarioConfig(sim_time_s=5.0, warmup_s=5.0)

    def test_node_count(self):
        assert ScenarioConfig(grid_nx=4, grid_ny=5).node_count == 20
        assert ScenarioConfig(topology="random", n_nodes=17).node_count == 17

    def test_registry_covers_all_variants(self):
        assert {"aodv", "gossip", "counter", "nlr", "oracle",
                "nlr-queue", "nlr-busy", "nlr-own", "nlr-noprob",
                "nlr-noselect"} <= set(PROTOCOLS)

    def test_mobile_fraction_bounds(self):
        with pytest.raises(ValueError):
            ScenarioConfig(mobile_fraction=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(mobile_fraction=1.5)

    def test_mobile_fraction_selects_highest_ids(self):
        # 9 nodes at 25% mobile → the last round(9·0.25) = 2 roam, the
        # rest are the static mesh backbone.
        net = build_network(tiny(mobility="rwp", mobile_fraction=0.25))
        assert net.mobility.node_ids == [7, 8]
        net = build_network(tiny(mobility="rwp"))
        assert net.mobility.node_ids == list(range(9))


class TestBuildNetwork:
    def test_grid_build(self):
        net = build_network(tiny())
        assert len(net.stacks) == 9
        assert net.channel is not None
        assert len(net.flows) == 2
        assert net.graph.number_of_nodes() == 9

    def test_perfect_mac_build(self):
        net = build_network(tiny(mac="perfect"))
        assert net.perfect_net is not None
        assert net.channel is None

    def test_random_topology_connected(self):
        import networkx as nx

        net = build_network(tiny(topology="random", n_nodes=12))
        assert nx.is_connected(net.graph)

    def test_gateway_pattern_selects_gateways(self):
        net = build_network(tiny(flow_pattern="gateway", n_gateways=2))
        assert len(net.gateways) == 2
        gws = set(net.gateways)
        assert all(f.src in gws or f.dst in gws for f in net.flows)

    def test_oracle_protocol_gets_oracle(self):
        net = build_network(tiny(protocol="oracle"))
        assert net.oracle is not None

    def test_per_protocol_variants_construct(self):
        for proto in PROTOCOLS:
            net = build_network(tiny(protocol=proto))
            assert net.stacks[0].routing is not None

    def test_shadowing_build(self):
        from repro.phy.propagation import LogNormalShadowing

        net = build_network(tiny(shadowing_sigma_db=4.0))
        assert isinstance(net.channel.propagation, LogNormalShadowing)


class TestRunner:
    def test_run_scenario_produces_result(self):
        r = run_scenario(tiny())
        assert isinstance(r, ScenarioResult)
        assert 0.0 <= r.pdr <= 1.0
        assert r.packets_sent > 0
        assert r.events_executed > 0
        assert len(r.per_node_forwarded) == 9

    def test_determinism_same_seed(self):
        a = run_scenario(tiny(seed=11))
        b = run_scenario(tiny(seed=11))
        assert a.pdr == b.pdr
        assert a.events_executed == b.events_executed
        assert (a.mean_delay_s == b.mean_delay_s) or (
            math.isnan(a.mean_delay_s) and math.isnan(b.mean_delay_s)
        )

    def test_different_seed_differs(self):
        a = run_scenario(tiny(seed=11))
        b = run_scenario(tiny(seed=12))
        # flows differ, so traffic volume or routing activity must differ
        assert (
            a.events_executed != b.events_executed
            or a.totals != b.totals
        )

    def test_as_dict_keys(self):
        r = run_scenario(tiny())
        d = r.as_dict()
        assert {"pdr", "mean_delay_s", "throughput_bps", "jain_fairness"} <= set(d)

    def test_replicate_summary(self):
        results, summary = replicate(tiny(), n_runs=2)
        assert len(results) == 2
        assert results[0].config.seed == 3
        assert results[1].config.seed == 4
        assert summary["pdr"].n == 2

    def test_replicate_validation(self):
        with pytest.raises(ValueError):
            replicate(tiny(), n_runs=0)


class TestSweep:
    def test_grid_of_points(self):
        points = sweep(
            tiny(sim_time_s=6.0),
            protocols=["aodv", "oracle"],
            values=[1, 2],
            apply=lambda c, v: replace(c, n_flows=v),
            n_runs=1,
        )
        assert len(points) == 4
        assert {(p.protocol, p.value) for p in points} == {
            ("aodv", 1), ("aodv", 2), ("oracle", 1), ("oracle", 2)
        }
        assert all(0.0 <= p.mean("pdr") <= 1.0 for p in points)
        assert all(p.ci("pdr") == 0.0 for p in points)  # single run


class TestCache:
    def test_key_stability(self):
        a = cache_key("x", {"p": 1, "q": "a"})
        b = cache_key("x", {"q": "a", "p": 1})
        assert a == b

    def test_key_sensitivity(self):
        assert cache_key("x", {"p": 1}) != cache_key("x", {"p": 2})

    def test_cached_roundtrip(self, tmp_path, monkeypatch):
        from repro.experiments.figures import _stored_rows

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        calls = []

        def compute():
            calls.append(1)
            return {"v": 42}

        assert _stored_rows("t", {"p": 1}, compute) == {"v": 42}
        assert _stored_rows("t", {"p": 1}, compute) == {"v": 42}
        assert len(calls) == 1  # second call read the stored rows
        assert _stored_rows("t", {"p": 2}, compute) == {"v": 42}
        assert len(calls) == 2  # different inputs, different key

    def test_no_cache_env(self, tmp_path, monkeypatch):
        from repro.experiments.figures import _stored_rows

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        calls = []
        for _ in range(2):
            _stored_rows("t", {"p": 1}, lambda: calls.append(1) or 1)
        assert len(calls) == 2
        # Writes still happen: without the override the rows are served.
        monkeypatch.delenv("REPRO_NO_CACHE")
        _stored_rows("t", {"p": 1}, lambda: calls.append(1) or 1)
        assert len(calls) == 2


class TestSweepCheckpoints:
    """Figure sweeps reassemble from content-hashed cell checkpoints."""

    @pytest.fixture
    def outcomes(self, tmp_path, monkeypatch):
        """Fresh cache dir; collects every campaign's outcomes per call."""
        from repro.exec import CampaignExecutor

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        seen: list = []
        original = CampaignExecutor.run

        def run(self, campaign):
            result = original(self, campaign)
            seen.extend(result.outcomes)
            return result

        monkeypatch.setattr(CampaignExecutor, "run", run)
        return seen

    @staticmethod
    def sweep_at(rate):
        from repro.experiments.figures import _protocol_sweep

        return _protocol_sweep(
            "stale_sweep", tiny(sim_time_s=6.0), [1],
            lambda c, _v: replace(c, flow_rate_pps=rate), quick=True,
            protocols=("aodv",),
        )

    def test_changed_apply_is_not_served_stale(self, outcomes):
        from repro.experiments.figures import _summarize_cell

        first = self.sweep_at(2.0)
        second = self.sweep_at(12.0)
        cell = replace(tiny(sim_time_s=6.0), flow_rate_pps=12.0)
        expected = _summarize_cell(
            [run_scenario(replace(cell, seed=cell.seed + k)) for k in range(2)]
        )
        assert json.dumps(second["aodv"]["1"]) == json.dumps(expected)
        assert second != first

    def test_repeat_runs_zero_cells_and_no_cache_recomputes(
        self, outcomes, monkeypatch
    ):
        first = self.sweep_at(4.0)
        assert outcomes and all(o.source == "run" for o in outcomes)
        outcomes.clear()
        assert self.sweep_at(4.0) == first
        assert outcomes and all(o.source == "checkpoint" for o in outcomes)
        outcomes.clear()
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert json.dumps(self.sweep_at(4.0)) == json.dumps(first)
        assert outcomes and all(o.source == "run" for o in outcomes)


class TestStorm:
    def test_blind_reaches_most(self):
        from repro.experiments.storm import run_storm

        r = run_storm(policy="blind", n_nodes=15, n_floods=3, seed=2)
        assert r["reachability"] > 0.8
        assert r["saved_rebroadcast_ratio"] <= 0.05

    def test_gossip_saves_rebroadcasts(self):
        from repro.experiments.storm import run_storm

        blind = run_storm(policy="blind", n_nodes=20, n_floods=3, seed=2)
        gossip = run_storm(policy="gossip", n_nodes=20, n_floods=3, seed=2)
        assert gossip["rebroadcasts"] < blind["rebroadcasts"]

    def test_unknown_policy(self):
        from repro.experiments.storm import run_storm

        with pytest.raises(ValueError):
            run_storm(policy="quantum")


class TestCli:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "table2" in out

    def test_table1_renders(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--figure", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Two-ray ground" in out

    def test_unknown_figure_errors(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["--figure", "fig99"])
