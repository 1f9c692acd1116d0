"""Structured event tracing.

A :class:`Tracer` hands :class:`TraceRecord` tuples — ``(time, category,
node, event, details)`` — from every layer to a sink.  It is the
debugging backbone of the simulator: tests assert on traces, examples
print filtered views, and streaming sinks (:mod:`repro.obs.sinks`)
persist full runs as JSONL.

Tracing is off by default and costs one attribute check per call site when
disabled, so leaving trace calls in hot paths is acceptable.

Memory model: the tracer keeps nothing.  Every accepted record goes to
its sink; in-memory queries read a bounded
:class:`~repro.obs.sinks.RingSink` (``net.trace_ring``), and a streaming
sink captures a million-event discovery storm whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["TraceRecord", "Tracer"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One traced occurrence.

    Attributes
    ----------
    time:
        Simulation time of the occurrence.
    category:
        Layer or subsystem tag: in a simulation run one of
        :data:`repro.obs.schema.TRACE_CATEGORIES` (``"app"``,
        ``"fault"``, ``"mac"``, ``"net"``, ``"phy"``); campaign run logs
        use ``"exec"``.
    node:
        Node identifier the record pertains to (-1 for global records).
    event:
        Short machine-readable event name, e.g. ``"tx_start"``.
    details:
        Free-form mapping with event-specific fields.
    """

    time: float
    category: str
    node: int
    event: str
    details: dict[str, Any]

    def __str__(self) -> str:
        kv = " ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        return f"[{self.time:12.6f}] {self.category:<4} n{self.node:<4} {self.event} {kv}"


class Tracer:
    """Forwards trace records to a sink, with optional category filtering.

    Parameters
    ----------
    enabled:
        When False (default) every :meth:`record` call is a cheap no-op.
    categories:
        If given, only these categories are recorded.
    sink:
        Optional callable invoked with each accepted record (e.g. ``print``,
        a :class:`~repro.obs.sinks.RingSink` for in-memory queries or a
        :class:`~repro.obs.sinks.JsonlTraceSink`).  The tracer itself keeps
        no records; :attr:`recorded` counts the accepted ones.
    """

    def __init__(
        self,
        enabled: bool = False,
        categories: set[str] | None = None,
        sink: Callable[[TraceRecord], None] | None = None,
    ) -> None:
        self.enabled = enabled
        self._categories = categories
        self._sink = sink
        self.recorded = 0

    @property
    def sink(self) -> Callable[[TraceRecord], None] | None:
        """The attached sink, if any."""
        return self._sink

    def set_sink(self, sink: Callable[[TraceRecord], None] | None) -> None:
        """Attach (or detach) the sink."""
        self._sink = sink

    def record(
        self, time: float, category: str, node: int, event: str, **details: Any
    ) -> None:
        """Record one occurrence (no-op when disabled or filtered out)."""
        if not self.enabled:
            return
        if self._categories is not None and category not in self._categories:
            return
        self.recorded += 1
        if self._sink is not None:
            self._sink(TraceRecord(time, category, node, event, details))
