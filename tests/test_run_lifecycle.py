"""A finished simulation is freed before its runner returns.

A wired network is one web of reference cycles, so only the cyclic
collector frees it.  ``runner.frees_simulation`` collects it before the
runner returns; these tests pin that with automatic collection switched
off, so nothing but the runner itself can have freed what they check.
"""

from __future__ import annotations

import gc
import signal
import weakref
from dataclasses import replace

import pytest

from repro.exec.worker import execute_payload, payload_for_config
from repro.experiments import runner
from repro.experiments.storm import run_storm
from repro.experiments.validation import run_saturation
from repro.sim.engine import Simulator
from tests.golden_runs import FAMILIES, golden_configs


@pytest.fixture(autouse=True)
def no_auto_gc():
    """Automatic collection off for the test; entry state restored after."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


@pytest.fixture
def network_refs(monkeypatch) -> list[weakref.ref]:
    """Weak references to every network ``run_scenario`` builds."""
    refs: list[weakref.ref] = []
    build = runner.build_network

    def spy(config):
        net = build(config)
        refs.append(weakref.ref(net))
        return net

    monkeypatch.setattr(runner, "build_network", spy)
    return refs


def _config(family: str = "static"):
    return golden_configs()[f"nlr/{family}/seed1"]


def _live_simulators() -> int:
    return sum(isinstance(obj, Simulator) for obj in gc.get_objects())


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_network_dead_when_run_scenario_returns(family, network_refs):
    result = runner.run_scenario(_config(family))
    assert result.events_executed > 0
    assert len(network_refs) == 1
    assert network_refs[0]() is None
    assert gc.get_freeze_count() == 0


def test_network_dead_when_the_run_raises(monkeypatch, network_refs):
    real_run = Simulator.run

    def crash_mid_run(self, until=float("inf"), max_events=None):
        real_run(self, until=until / 2)
        raise RuntimeError("simulated crash")

    monkeypatch.setattr(Simulator, "run", crash_mid_run)
    entry = gc.get_freeze_count()
    with pytest.raises(RuntimeError, match="simulated crash"):
        runner.run_scenario(_config())
    assert network_refs[0]() is None
    assert gc.get_freeze_count() == entry


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                    reason="worker timeouts need SIGALRM")
def test_network_dead_when_the_worker_times_out(network_refs):
    # Long enough that the 50 ms alarm always lands mid-simulation.
    config = replace(_config(), sim_time_s=600.0)
    outcome = execute_payload(payload_for_config(config, timeout_s=0.05))
    assert outcome["ok"] is False and outcome["kind"] == "timeout"
    assert network_refs[0]() is None
    assert gc.get_freeze_count() == 0


def test_objects_the_caller_froze_stay_frozen(network_refs):
    marker = [object()]
    gc.freeze()
    try:
        runner.run_scenario(_config())
        # get_objects() lists the collector's generations, never the
        # frozen (permanent) one.  (The freeze count itself may shrink:
        # refcounting still frees frozen objects.)
        assert gc.get_freeze_count() > 0
        assert not any(obj is marker for obj in gc.get_objects())
        assert network_refs[0]() is None
    finally:
        gc.unfreeze()


def test_nested_use_closes_one_bracket(network_refs):
    @runner.frees_simulation
    def two_runs():
        return [runner.run_scenario(_config()) for _ in range(2)]

    assert len(two_runs()) == 2
    assert [ref() for ref in network_refs] == [None, None]
    assert gc.get_freeze_count() == 0


def test_run_storm_leaves_no_simulator():
    gc.collect()
    before = _live_simulators()
    run_storm(policy="nlr", n_nodes=12, n_floods=2, seed=3)
    assert _live_simulators() == before


def test_run_saturation_leaves_no_simulator():
    gc.collect()
    before = _live_simulators()
    assert run_saturation(3, duration_s=0.5) > 0
    assert _live_simulators() == before
