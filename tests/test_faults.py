"""Tests for the declarative fault-injection subsystem (repro.faults).

The ``chaos``-marked tests are the CI failure-injection suite: the workflow
re-runs them under several seeds via ``REPRO_CHAOS_SEED``, so they must
hold for *any* seed, not one golden value.
"""

import json
import math
import os

import pytest

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import ScenarioConfig, build_network
from repro.experiments.serialization import config_from_dict, config_to_dict
from repro.faults import (
    FaultPlan,
    NodeCrash,
    NodeRecover,
    plan_from_spec,
    poisson_crashes,
)
from repro.sim.rng import RandomStreams

#: CI varies this across jobs; locally it defaults to 1.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1"))


#: Node 4 (the centre of a 3×3 grid) crashed twice and recovered twice;
#: the second crash and the second recovery find it already down / up.
TWICE_SPEC = {"kind": "events", "events": [
    {"kind": "node_crash", "node": 4, "at_s": 3.0},
    {"kind": "node_crash", "node": 4, "at_s": 4.0},
    {"kind": "node_recover", "node": 4, "at_s": 6.0},
    {"kind": "node_recover", "node": 4, "at_s": 7.0},
]}

#: Stochastic relay crashes inside the run, as the resilience figure runs.
POISSON_SPEC = {"kind": "poisson_crashes", "rate_per_s": 0.2, "mttr_s": 3.0,
                "start_s": 2.0, "stop_s": 12.0}


# ---------------------------------------------------------------------- #
# Plan construction + JSON round-trip
# ---------------------------------------------------------------------- #
class TestFaultPlan:
    def test_round_trip_through_json(self):
        wire = json.loads(json.dumps(TWICE_SPEC))
        assert FaultPlan.from_dict(wire) == FaultPlan([
            NodeCrash(node=4, at_s=3.0),
            NodeCrash(node=4, at_s=4.0),
            NodeRecover(node=4, at_s=6.0),
            NodeRecover(node=4, at_s=7.0),
        ])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault event kind"):
            FaultPlan.from_dict({"events": [{"kind": "meteor", "node": 0}]})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown NodeCrash keys"):
            FaultPlan.from_dict(
                {"events": [{"kind": "node_crash", "node": 0, "at_s": 1.0,
                             "severity": 9}]}
            )

    def test_validate_rejects_out_of_range_node(self):
        plan = FaultPlan([NodeCrash(node=7, at_s=1.0)])
        with pytest.raises(ValueError, match="references node 7"):
            plan.validate(4)

    def test_sorted_events_by_start_time(self):
        plan = FaultPlan([
            NodeRecover(node=2, at_s=9.0),
            NodeCrash(node=2, at_s=4.0),
            NodeCrash(node=1, at_s=4.0),
            NodeRecover(node=1, at_s=5.0),
        ])
        assert [(ev.node, ev.at_s) for ev in plan.sorted_events()] == [
            (2, 4.0), (1, 4.0), (1, 5.0), (2, 9.0),
        ]

    @pytest.mark.parametrize("bad", [
        lambda: NodeCrash(node=-1, at_s=0.0),
        lambda: NodeCrash(node=0, at_s=-1.0),
        lambda: NodeCrash(node=0, at_s=math.nan),
        lambda: NodeRecover(node=-1, at_s=0.0),
        lambda: NodeRecover(node=0, at_s=-0.5),
        lambda: NodeRecover(node=0, at_s=math.inf),
        lambda: FaultPlan(["node_crash"]),
    ])
    def test_event_validation(self, bad):
        with pytest.raises(ValueError):
            bad()


# ---------------------------------------------------------------------- #
# Stochastic generators + spec expansion
# ---------------------------------------------------------------------- #
class TestGenerators:
    def test_poisson_deterministic_per_seed(self):
        def gen(seed):
            rng = RandomStreams(seed).stream("faults.plan")
            return poisson_crashes(
                0.5, 4.0, nodes=range(9), rng=rng, stop_s=60.0
            )

        assert gen(42) == gen(42)
        assert gen(42) != gen(43)

    def test_poisson_crash_recover_pairing(self):
        rng = RandomStreams(7).stream("faults.plan")
        plan = poisson_crashes(0.5, 4.0, nodes=range(9), rng=rng, stop_s=60.0)
        crashes = [e for e in plan.events if isinstance(e, NodeCrash)]
        recovers = [e for e in plan.events if isinstance(e, NodeRecover)]
        assert crashes and len(crashes) == len(recovers)
        # No node is crashed twice while still down.
        down_until: dict[int, float] = {}
        for ev in plan.sorted_events():
            if isinstance(ev, NodeCrash):
                assert down_until.get(ev.node, -1.0) <= ev.at_s
            elif isinstance(ev, NodeRecover):
                down_until[ev.node] = ev.at_s

    def test_spec_unknown_kind_and_keys(self):
        streams = RandomStreams(1)
        with pytest.raises(ValueError, match="unknown fault spec kind"):
            plan_from_spec({"kind": "nope"}, streams=streams,
                           node_count=4, sim_time_s=10.0)
        with pytest.raises(ValueError, match="missing keys"):
            plan_from_spec({"kind": "poisson_crashes", "rate_per_s": 1.0},
                           streams=streams, node_count=4, sim_time_s=10.0)
        with pytest.raises(ValueError, match="unknown fault spec keys"):
            plan_from_spec(
                {"kind": "poisson_crashes", "rate_per_s": 1.0, "mttr_s": 2.0,
                 "color": "red"},
                streams=streams, node_count=4, sim_time_s=10.0,
            )


# ---------------------------------------------------------------------- #
# Injector behaviour on live networks
# ---------------------------------------------------------------------- #
def grid_config(**kw) -> ScenarioConfig:
    defaults = dict(
        protocol="aodv", grid_nx=3, grid_ny=3, spacing_m=200.0,
        n_flows=2, flow_rate_pps=10.0, sim_time_s=15.0, warmup_s=1.0,
        seed=CHAOS_SEED,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestInjector:
    def test_requires_real_mac(self):
        with pytest.raises(ValueError, match="needs the real PHY/MAC"):
            grid_config(mac="perfect", fault_spec=TWICE_SPEC)

    @pytest.mark.chaos
    def test_compound_plan_never_raises(self):
        # Faults surface as metrics, never exceptions, and the guard
        # counter stays clean; a repeated crash or recovery is a no-op.
        for spec in (TWICE_SPEC, POISSON_SPEC):
            net = build_network(grid_config(fault_spec=spec))
            assert net.injector is not None and net.resilience is not None
            net.start()
            net.sim.run(until=15.0)
            net.stop()
            assert net.injector.errors == 0
            assert net.injector.applied == len(net.injector.plan.events) > 0
            totals = net.resilience.totals()
            assert totals["resilience_faults"] > 0
            assert totals["resilience_episodes"] > 0
        # Only the first crash and the first recovery of node 4 took effect.
        net = build_network(grid_config(fault_spec=TWICE_SPEC))
        net.start()
        net.sim.run(until=15.0)
        net.stop()
        assert net.resilience.fault_counts == {"node_crash": 2}
        assert net.resilience.totals()["resilience_episodes"] == 1

    @pytest.mark.chaos
    def test_replay_is_byte_identical(self):
        def run(spec):
            net = build_network(grid_config(fault_spec=spec))
            net.start()
            net.sim.run(until=15.0)
            net.stop()
            assert net.injector is not None and net.injector.errors == 0
            assert net.resilience is not None
            return net.resilience.summary_json()

        for spec in (TWICE_SPEC, POISSON_SPEC):
            assert run(spec) == run(spec)

    def test_crash_flushes_mac_queue_and_recovery_restores_radio(self):
        net = build_network(grid_config(seed=9, fault_spec=TWICE_SPEC))
        mac = net.stacks[4].mac
        net.start()
        net.sim.run(until=5.0)
        assert not mac.radio.powered
        assert len(mac.queue) == 0 and mac._current is None
        net.sim.run(until=15.0)
        net.stop()
        assert net.injector is not None and net.injector.errors == 0
        assert mac.radio.powered


# ---------------------------------------------------------------------- #
# Scenario/config/executor integration
# ---------------------------------------------------------------------- #
class TestScenarioIntegration:
    def test_fault_spec_config_round_trips(self):
        config = grid_config(fault_spec={
            "kind": "poisson_crashes", "rate_per_s": 0.1, "mttr_s": 5.0,
        })
        assert config_from_dict(config_to_dict(config)) == config

    def test_fault_plan_config_round_trips(self):
        # A literal plan travels as an ``events`` spec and expands to the
        # same plan after its config's trip through JSON.
        config = grid_config(fault_spec=TWICE_SPEC)
        rebuilt = config_from_dict(
            json.loads(json.dumps(config_to_dict(config)))
        )
        assert rebuilt == config
        def expand(c):
            return plan_from_spec(
                c.fault_spec, streams=RandomStreams(c.seed),
                node_count=c.node_count, sim_time_s=c.sim_time_s,
            )

        assert expand(rebuilt) == expand(config) == FaultPlan.from_dict(
            TWICE_SPEC
        )

    @pytest.mark.parametrize("spec", [
        {"kind": "meteor"},
        {"kind": "poisson_crashes", "rate_per_s": 0.5},
        {"kind": "events", "events": [
            {"kind": "node_crash", "node": 99, "at_s": 2.0}]},
        {"kind": "flapping", "period_s": 2.0, "duty_on": 0.5},
        {"kind": "events", "events": [
            {"kind": "radio_flap", "node": 4, "start_s": 2.0,
             "period_s": 2.0, "duty_on": 0.5, "until_s": 8.0}]},
    ], ids=["unknown-kind", "no-mttr", "node-99", "flapping", "radio-flap"])
    def test_bad_fault_spec_rejected_at_construction(self, spec):
        # Rejected before a campaign or DSE worker ever builds the network.
        with pytest.raises(ValueError):
            grid_config(fault_spec=spec)

    @pytest.mark.chaos
    def test_resilience_totals_ride_on_scenario_result(self):
        result = run_scenario(grid_config(fault_spec={
            "kind": "poisson_crashes", "rate_per_s": 0.25, "mttr_s": 3.0,
            "start_s": 2.0, "stop_s": 10.0,
        }))
        assert result.totals["resilience_faults"] > 0
        assert result.totals["resilience_episodes"] > 0
        assert 0.0 <= result.pdr <= 1.0
        # healthy runs carry no resilience keys
        healthy = run_scenario(grid_config())
        assert "resilience_faults" not in healthy.totals

    @pytest.mark.chaos
    def test_exec_campaign_checkpoints_and_resumes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.exec import ExecPolicy, run_configs
        from repro.experiments.serialization import result_to_dict

        configs = [
            grid_config(sim_time_s=8.0, fault_spec=TWICE_SPEC,
                        seed=CHAOS_SEED + k)
            for k in range(2)
        ]
        first = run_configs(
            "chaos-resume-test", configs, policy=ExecPolicy(checkpoint=True)
        )
        cells = list((tmp_path / "cells").glob("*.json"))
        assert len(cells) == 2
        # Resumed campaign loads the checkpoints and reproduces the
        # results byte-identically (full round-trip through JSON).
        resumed = run_configs(
            "chaos-resume-test", configs, policy=ExecPolicy(resume=True)
        )
        for a, b in zip(first, resumed):
            assert json.dumps(result_to_dict(a), sort_keys=True) == \
                json.dumps(result_to_dict(b), sort_keys=True)


# ---------------------------------------------------------------------- #
# Resilience metric edge cases (pure unit tests)
# ---------------------------------------------------------------------- #
class TestResilienceCollector:
    def test_empty_run_yields_nan_not_crash(self):
        from repro.faults import ResilienceCollector

        rc = ResilienceCollector([])
        rc.finalize(10.0)
        totals = rc.totals()
        assert totals["resilience_faults"] == 0.0
        assert math.isnan(totals["resilience_reconv_mean_s"])
        json.loads(rc.summary_json())  # parses cleanly

    def test_blackout_loss_counts_only_window_losses(self):
        from repro.faults import ResilienceCollector
        from repro.net.packet import Packet, PacketKind

        class Flow:
            flow_id = 0
            rate_pps = 10.0

        rc = ResilienceCollector([Flow()])

        def pkt(seq, t):
            return Packet(kind=PacketKind.DATA, src=0, dst=1, ttl=8,
                          flow_id=0, seq=seq, created_at=t)

        for seq, t in enumerate([1.0, 2.0, 5.0, 5.5, 9.0]):
            rc.on_send(pkt(seq, t))
        # deliveries: everything except the two sent inside the window
        for seq, t in ((0, 1.1), (1, 2.1), (4, 9.1)):
            rc.on_receive(pkt(seq, [1.0, 2.0, 5.0, 5.5, 9.0][seq]), t)
        rc.on_fault("node_crash", time=4.0, onset=True, key=3)
        rc.on_fault("node_crash", time=7.0, onset=False, key=3)
        rc.finalize(10.0)
        assert rc.blackout_loss() == 2
