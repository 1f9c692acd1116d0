"""Unified observability layer: trace sinks, metrics, and profiling.

The :mod:`repro.obs` package is the production-style telemetry backbone
the NLR evaluation runs on:

* :mod:`~repro.obs.schema` — the versioned JSONL trace schema shared by
  the writer (:class:`JsonlTraceSink`) and every reader (``repro-trace``,
  the CI validator, tests).
* :mod:`~repro.obs.sinks` — streaming :class:`TraceSink` implementations:
  :class:`JsonlTraceSink` (durable, gzip-capable, bounded memory) and
  :class:`RingSink` ("last N events before failure" forensics), pluggable
  into :class:`~repro.sim.trace.Tracer` without changing its
  disabled-path cost.
* :mod:`~repro.obs.metrics` — the metrics snapshot:
  :func:`~repro.obs.metrics.network_metrics` reads a network's live
  counters into the flat ``repro_*`` series that travel with every
  :class:`~repro.experiments.runner.ScenarioResult`.
* :mod:`~repro.obs.profiler` — opt-in wall-time attribution for the
  engine's event loop, keyed by layer/callback.
* :mod:`~repro.obs.spec` — ``ScenarioConfig.trace_spec`` parsing and the
  network wiring that attaches sinks/profiler to a run.
* :mod:`~repro.obs.trace_cli` — the ``repro-trace`` analysis CLI.
"""

from repro.obs.profiler import EngineProfiler
from repro.obs.schema import (
    TRACE_SCHEMA_VERSION,
    record_to_dict,
    trace_header,
    validate_trace_line,
)
from repro.obs.sinks import CompositeSink, JsonlTraceSink, RingSink, TraceSink
from repro.obs.spec import TraceSpec, attach_observability, finalize_observability

__all__ = [
    "CompositeSink",
    "EngineProfiler",
    "JsonlTraceSink",
    "RingSink",
    "TRACE_SCHEMA_VERSION",
    "TraceSink",
    "TraceSpec",
    "attach_observability",
    "finalize_observability",
    "record_to_dict",
    "trace_header",
    "validate_trace_line",
]
