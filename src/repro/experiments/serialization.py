"""Scenario config and result ⇄ JSON serialisation.

Lets a run's exact configuration travel with its results (reproducibility)
and lets the CLI accept ``--config scenario.json``.  Nested config
dataclasses (PHY, MAC, AODV, NLR) round-trip too; unknown keys are
rejected loudly rather than silently ignored, so stale config files fail
fast instead of silently running something else.

:class:`~repro.experiments.runner.ScenarioResult` round-trips as well
(:func:`result_to_dict` / :func:`result_from_dict`) — this is how the
parallel executor ships results across process boundaries and how
checkpoints persist them.  Floats survive exactly: JSON emits the shortest
round-tripping ``repr``, so a deserialised result aggregates byte-identically
to the in-process original.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.nlr import NlrConfig
from repro.experiments.runner import ScenarioResult
from repro.experiments.scenario import ScenarioConfig
from repro.mac.csma import MacConfig
from repro.net.aodv import AodvConfig
from repro.phy.radio import PhyConfig

__all__ = [
    "config_to_dict",
    "config_from_dict",
    "save_config",
    "load_config",
    "result_to_dict",
    "result_from_dict",
]

_NESTED_TYPES = {
    "phy": PhyConfig,
    "mac_config": MacConfig,
    "aodv": AodvConfig,
    "nlr": NlrConfig,
}


def _dataclass_to_dict(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _dataclass_to_dict(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, (tuple, list)):
        return [_dataclass_to_dict(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _dataclass_to_dict(v) for k, v in obj.items()}
    if isinstance(obj, np.generic):
        # Numpy scalars (e.g. a mutation drawn from a Generator) would
        # otherwise be stringified by ``json.dump(default=str)`` — the
        # config would hash and persist differently from its round-trip.
        return obj.item()
    return obj


def config_to_dict(config: ScenarioConfig) -> dict[str, Any]:
    """Plain JSON-ready dict capturing every field of ``config``."""
    return _dataclass_to_dict(config)


def _build(cls: type, data: dict[str, Any]) -> Any:
    field_names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - field_names
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    kwargs: dict[str, Any] = {}
    for name, value in data.items():
        if name in _NESTED_TYPES and isinstance(value, dict):
            # Covers ScenarioConfig.{phy,mac_config,aodv,nlr} and, because
            # _build recurses, NlrConfig's own nested aodv too.
            kwargs[name] = _build(_NESTED_TYPES[name], value)
        elif isinstance(value, list) and name in ("area_m", "speed_range"):
            kwargs[name] = tuple(value)
        else:
            kwargs[name] = value
    return cls(**kwargs)


def config_from_dict(data: dict[str, Any]) -> ScenarioConfig:
    """Reconstruct a :class:`ScenarioConfig`, validating every key."""
    return _build(ScenarioConfig, data)


def save_config(config: ScenarioConfig, path: str | Path) -> Path:
    """Write ``config`` as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(config_to_dict(config), indent=2) + "\n")
    return path


def load_config(path: str | Path) -> ScenarioConfig:
    """Load a :class:`ScenarioConfig` from a JSON file."""
    with Path(path).open() as fh:
        return config_from_dict(json.load(fh))


def result_to_dict(result: ScenarioResult) -> dict[str, Any]:
    """JSON-ready dict capturing every field of a :class:`ScenarioResult`."""
    return {
        "config": config_to_dict(result.config),
        "metrics": result.as_dict(),
        "packets_sent": result.packets_sent,
        "packets_received": result.packets_received,
        "per_node_forwarded": [float(x) for x in result.per_node_forwarded],
        "totals": {k: float(v) for k, v in result.totals.items()},
        "events_executed": result.events_executed,
        "wallclock_s": result.wallclock_s,
        "metrics_snapshot": {
            k: float(v) for k, v in result.metrics_snapshot.items()
        },
    }


def result_from_dict(data: dict[str, Any]) -> ScenarioResult:
    """Reconstruct a :class:`ScenarioResult` written by :func:`result_to_dict`."""
    m = data["metrics"]
    return ScenarioResult(
        config=config_from_dict(data["config"]),
        pdr=m["pdr"],
        mean_delay_s=m["mean_delay_s"],
        throughput_bps=m["throughput_bps"],
        mean_hops=m["mean_hops"],
        rreq_tx=m["rreq_tx"],
        control_packets=m["control_packets"],
        control_bytes=m["control_bytes"],
        normalized_routing_load=m["normalized_routing_load"],
        jain_fairness=m["jain_fairness"],
        packets_sent=data["packets_sent"],
        packets_received=data["packets_received"],
        per_node_forwarded=np.asarray(data["per_node_forwarded"], dtype=float),
        totals=dict(data["totals"]),
        events_executed=data["events_executed"],
        wallclock_s=data["wallclock_s"],
        # Absent in results serialised before the obs subsystem existed.
        metrics_snapshot=dict(data.get("metrics_snapshot", {})),
    )
