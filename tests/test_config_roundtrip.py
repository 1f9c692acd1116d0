"""Property-style tests: ScenarioConfig survives its JSON round-trip.

``config_from_dict(config_to_dict(c)) == c`` must hold for *any*
constructible config — including declarative ``fault_spec`` /
``trace_spec`` payloads and literal ``events`` fault plans — because
the exec fabric hashes configs through exactly this path: a field that
does not round-trip is a field that silently changes a cell's identity.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.experiments.scenario import ScenarioConfig
from repro.experiments.serialization import config_from_dict, config_to_dict


def round_trip(config: ScenarioConfig) -> ScenarioConfig:
    # Through real JSON text, not just dicts — exactness of floats and
    # tuple/list canonicalisation both matter.
    return config_from_dict(json.loads(json.dumps(config_to_dict(config))))


@st.composite
def fault_specs(draw, node_count: int, sim_time_s: float) -> dict:
    """A valid spec of one of the two kinds: ``poisson_crashes`` or a
    literal ``events`` plan."""
    node = st.integers(min_value=0, max_value=node_count - 1)
    at = st.floats(min_value=0.0, max_value=sim_time_s, allow_nan=False)
    if draw(st.booleans()):
        spec = {
            "kind": "poisson_crashes",
            "rate_per_s": draw(st.floats(min_value=0.01, max_value=2.0,
                                         allow_nan=False)),
            "mttr_s": draw(st.floats(min_value=0.1, max_value=20.0,
                                     allow_nan=False)),
        }
        if draw(st.booleans()):
            spec["nodes"] = draw(st.lists(node, min_size=1, max_size=4))
        return spec
    kinds = st.sampled_from(["node_crash", "node_recover"])
    return {"kind": "events", "events": draw(st.lists(
        st.fixed_dictionaries({"kind": kinds, "node": node, "at_s": at}),
        max_size=4,
    ))}


@st.composite
def scenario_configs(draw) -> ScenarioConfig:
    n_flows = draw(st.integers(min_value=1, max_value=12))
    kwargs = {
        "protocol": draw(st.sampled_from(["nlr", "aodv", "dsdv", "gossip"])),
        "seed": draw(st.integers(min_value=0, max_value=2**31 - 1)),
        "grid_nx": draw(st.integers(min_value=2, max_value=6)),
        "grid_ny": draw(st.integers(min_value=2, max_value=6)),
        "spacing_m": draw(st.floats(min_value=50.0, max_value=500.0,
                                    allow_nan=False)),
        "area_m": (
            draw(st.floats(min_value=100.0, max_value=2000.0, allow_nan=False)),
            draw(st.floats(min_value=100.0, max_value=2000.0, allow_nan=False)),
        ),
        "gossip_p": draw(st.floats(min_value=0.01, max_value=1.0,
                                   allow_nan=False)),
        "counter_threshold": draw(st.integers(min_value=1, max_value=8)),
        "n_flows": n_flows,
        "flow_rate_pps": draw(st.floats(min_value=0.1, max_value=50.0,
                                        allow_nan=False)),
        "traffic": draw(st.sampled_from(["cbr", "poisson", "onoff"])),
        "warmup_s": 0.5,
        # Past the last flow start, 1.0 + (n_flows - 1) * 0.5 s at the
        # default start and stagger: a config that can never run is
        # rejected at construction.
        "sim_time_s": draw(st.floats(min_value=1.0 + 0.5 * n_flows,
                                     max_value=100.0, allow_nan=False)),
    }
    if draw(st.booleans()):
        kwargs["fault_spec"] = draw(fault_specs(
            kwargs["grid_nx"] * kwargs["grid_ny"], kwargs["sim_time_s"]
        ))
    if draw(st.booleans()):
        # trace_spec has a strict schema (obs.TraceSpec) — draw valid specs.
        spec: dict = {}
        if draw(st.booleans()):
            spec["categories"] = draw(
                st.lists(st.sampled_from(["mac", "net", "phy", "app"]),
                         min_size=1, max_size=3, unique=True)
            )
        if draw(st.booleans()):
            spec["ring"] = draw(st.integers(min_value=1, max_value=4096))
        if draw(st.booleans()):
            spec["path"] = draw(st.sampled_from(
                ["t.jsonl", "{protocol}-s{seed}/t.jsonl.gz", "{task_id}/t.jsonl"]
            ))
        kwargs["trace_spec"] = spec
    return ScenarioConfig(**kwargs)


@given(scenario_configs())
@settings(max_examples=60, deadline=None)
def test_random_config_round_trips_exactly(config):
    assert round_trip(config) == config


def test_fault_spec_round_trips():
    cfg = ScenarioConfig(
        fault_spec={"kind": "poisson_crashes", "rate_per_s": 0.02,
                    "mttr_s": 5.0, "nodes": [1, 2, 3]},
    )
    again = round_trip(cfg)
    assert again.fault_spec == cfg.fault_spec
    assert again == cfg


def test_trace_spec_round_trips():
    cfg = ScenarioConfig(trace_spec={"categories": ["mac", "net"], "ring": 128})
    assert round_trip(cfg) == cfg


def test_fault_plan_round_trips():
    # A literal plan is declared as an ``events`` spec.
    spec = {"kind": "events", "events": [
        {"kind": "node_crash", "node": 4, "at_s": 3.0},
        {"kind": "node_recover", "node": 4, "at_s": 8.0},
    ]}
    cfg = ScenarioConfig(fault_spec=spec)
    again = round_trip(cfg)
    assert again.fault_spec == spec
    assert again == cfg


def test_numpy_scalars_canonicalised_not_stringified():
    # A config carrying numpy scalars (e.g. DSE mutation output) must
    # serialise to real JSON numbers and compare equal after the trip.
    cfg = ScenarioConfig(
        gossip_p=np.float64(0.5),
        counter_threshold=int(np.int64(2)),
        trace_spec={"ring": np.int64(64), "path": "t.jsonl"},
    )
    data = json.loads(json.dumps(config_to_dict(cfg)))
    assert data["gossip_p"] == 0.5
    assert data["trace_spec"] == {"ring": 64, "path": "t.jsonl"}
    assert config_from_dict(data).trace_spec == {"ring": 64, "path": "t.jsonl"}


def test_tuple_specs_canonicalised_at_construction():
    cfg = ScenarioConfig(trace_spec={"categories": ("mac", "net")})
    assert cfg.trace_spec == {"categories": ["mac", "net"]}
    assert round_trip(cfg) == cfg
