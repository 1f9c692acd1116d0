"""``ScenarioConfig.trace_spec`` parsing and per-run observability wiring.

A *trace spec* is a small JSON-able dict riding inside the scenario
config — so it content-hashes into exec campaign cells like any other
parameter and travels to worker processes for free:

.. code-block:: python

    ScenarioConfig(
        ...,
        trace_spec={
            "path": "{protocol}-s{seed}/trace.jsonl.gz",  # streaming JSONL
            "categories": ["net", "app"],                  # optional filter
            "ring": 5000,                                  # last-N forensics
        },
        profile=True,                                      # engine profiler
    )

Recognised keys — exactly these three, all optional (an empty dict just
enables tracing):

* ``path`` — JSONL artifact; ``.gz`` enables gzip.  Relative paths land
  under :func:`artifact_root` (``results/obs/`` by default, override with
  ``REPRO_OBS_DIR``).  Placeholders ``{protocol}``, ``{seed}``, and
  ``{task_id}`` (the exec cell's content hash) are expanded, so a
  ``--workers N`` campaign writes one artifact tree per cell with zero
  coordination.
* ``categories`` — record only these trace categories.
* ``ring`` — capacity of the in-memory :class:`~repro.obs.sinks.RingSink`
  ``net.trace_ring`` (query it with ``filter``/``count``).  Without a
  ``path`` it defaults to :data:`DEFAULT_RING`, so ``trace_spec={}``
  keeps a run's records in memory; with one, no ring unless asked for.

:func:`attach_observability` applies a parsed spec to a freshly built
network (sinks, tracer settings, profiler, metric namespace);
:func:`finalize_observability` flushes and closes artifacts after a run
and writes the ``metrics.json`` / ``profile.json`` companions.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.obs.profiler import EngineProfiler
from repro.obs.sinks import CompositeSink, JsonlTraceSink, RingSink
from repro.obs.wiring import register_network_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.scenario import Network, ScenarioConfig

__all__ = [
    "DEFAULT_RING",
    "TraceSpec",
    "artifact_root",
    "attach_observability",
    "finalize_observability",
]

_ALLOWED_KEYS = {"path", "categories", "ring"}

#: Ring capacity when a spec names no ``path`` and no ``ring``.
DEFAULT_RING = 1_000_000


def artifact_root() -> Path:
    """Root directory for relative trace artifacts.

    Defaults to ``<repo>/results/obs``; override with ``REPRO_OBS_DIR``
    (campaign tooling and tests point this at scratch space).
    """
    env = os.environ.get("REPRO_OBS_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "results" / "obs"


@dataclass(slots=True)
class TraceSpec:
    """Validated form of the ``trace_spec`` dict (see module docstring)."""

    path: str | None = None
    categories: tuple[str, ...] | None = None
    ring: int | None = None

    @classmethod
    def from_dict(cls, spec: dict[str, Any]) -> "TraceSpec":
        """Parse and validate; unknown keys fail loudly (config hygiene)."""
        if not isinstance(spec, dict):
            raise ValueError(
                f"trace_spec must be a dict, got {type(spec).__name__}"
            )
        unknown = set(spec) - _ALLOWED_KEYS
        if unknown:
            raise ValueError(
                f"unknown trace_spec keys {sorted(unknown)}; "
                f"allowed: {sorted(_ALLOWED_KEYS)}"
            )
        categories = spec.get("categories")
        if categories is not None:
            if not categories or not all(isinstance(c, str) for c in categories):
                raise ValueError(
                    "trace_spec categories must be a non-empty list of strings"
                )
            categories = tuple(categories)
        path = spec.get("path")
        if path is not None and not isinstance(path, str):
            raise ValueError(f"trace_spec path must be a string, got {path!r}")
        ring = spec.get("ring")
        if ring is None and path is None:
            ring = DEFAULT_RING
        if ring is not None and (
            not isinstance(ring, int) or isinstance(ring, bool) or ring < 1
        ):
            raise ValueError(f"trace_spec ring must be a positive int, got {ring!r}")
        return cls(path=path, categories=categories, ring=ring)

    def resolve_path(self, config: "ScenarioConfig") -> Path | None:
        """Expand placeholders and anchor relative paths under the root."""
        if self.path is None:
            return None
        text = self.path
        if "{task_id}" in text:
            # Late import: the cell hash lives above this layer.
            from repro.exec.task import task_id_for

            text = text.replace("{task_id}", task_id_for(config))
        text = text.replace("{protocol}", config.protocol)
        text = text.replace("{seed}", str(config.seed))
        path = Path(text)
        if not path.is_absolute():
            path = artifact_root() / path
        return path


def _header_meta(config: "ScenarioConfig") -> dict[str, Any]:
    """Run metadata for the trace header: enough to re-derive the run's
    headline counters (RREQ storm size, PDR window) from the artifact."""
    return {
        "protocol": config.protocol,
        "seed": config.seed,
        "nodes": config.node_count,
        "sim_time_s": config.sim_time_s,
        "warmup_s": config.warmup_s,
        "n_flows": config.n_flows,
    }


def attach_observability(net: "Network") -> None:
    """Wire sinks, profiler, and the metric namespace into ``net``.

    Called by :func:`~repro.experiments.scenario.build_network` once the
    stacks exist.  Reconfigures the shared tracer in place (every layer
    already holds a reference to it).
    """
    config = net.config
    register_network_metrics(net)

    if config.trace_spec is not None:
        spec = TraceSpec.from_dict(config.trace_spec)
        tracer = net.tracer
        tracer.enabled = True
        if spec.categories is not None:
            tracer._categories = set(spec.categories)

        sinks = []
        path = spec.resolve_path(config)
        if path is not None:
            net.trace_sink = JsonlTraceSink(path, meta=_header_meta(config))
            sinks.append(net.trace_sink)
        if spec.ring is not None:
            net.trace_ring = RingSink(spec.ring)
            sinks.append(net.trace_ring)
        # from_dict guarantees a path or a ring.
        tracer.set_sink(sinks[0] if len(sinks) == 1 else CompositeSink(*sinks))

    if config.profile:
        net.profiler = EngineProfiler()
        net.sim.set_profiler(net.profiler)


def finalize_observability(
    net: "Network", metrics: dict[str, float] | None = None
) -> dict[str, Path]:
    """Close trace artifacts and write their companions; returns paths.

    Writes, next to a streaming trace (when one was configured):

    * ``*.metrics.json`` — the canonical metrics snapshot (sorted keys,
      byte-identical across serial/parallel execution);
    * ``*.profile.json`` / ``*.profile.txt`` — profiler attribution,
      when profiling was enabled.

    Safe to call more than once; later calls are no-ops for the sink.
    """
    artifacts: dict[str, Path] = {}
    sink = net.trace_sink
    if sink is not None and not sink._closed:
        ring = net.trace_ring
        sink.dropped = ring.dropped if ring is not None else 0
        sink.close()
        artifacts["trace"] = sink.path
        stem = sink.path.name
        for suffix in (".gz", ".jsonl", ".json"):
            if stem.endswith(suffix):
                stem = stem[: -len(suffix)]
        if metrics is None:
            metrics = net.metrics.metrics_json()
        metrics_path = sink.path.with_name(f"{stem}.metrics.json")
        metrics_path.write_text(
            json.dumps(metrics, sort_keys=True, indent=1) + "\n"
        )
        artifacts["metrics"] = metrics_path
        if net.profiler is not None:
            profile_path = sink.path.with_name(f"{stem}.profile.json")
            profile_path.write_text(
                json.dumps(net.profiler.as_dict(), indent=1) + "\n"
            )
            report_path = sink.path.with_name(f"{stem}.profile.txt")
            report_path.write_text(net.profiler.report() + "\n")
            artifacts["profile"] = profile_path
            artifacts["profile_report"] = report_path
    return artifacts
