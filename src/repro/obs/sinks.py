"""Streaming trace sinks: durable JSONL and in-memory ring forensics.

A sink is any callable accepting one :class:`~repro.sim.trace.TraceRecord`
— exactly the ``sink=`` contract :class:`~repro.sim.trace.Tracer` already
exposes — plus an optional ``close()``.  Sinks stream: memory stays
bounded no matter how many events a chaos run emits, which is what lets
million-event discovery storms be captured whole.  The same
:class:`JsonlTraceSink` writes every artifact the repository produces —
traces, campaign run logs and adaptive audits — so one reader and one
validator (``repro-trace``) cover them all.
"""

from __future__ import annotations

import gzip
import io
import json
import os
from collections import deque
from pathlib import Path
from typing import Any, Iterator

from repro.obs.schema import record_to_dict, trace_footer, trace_header
from repro.sim.trace import TraceRecord

__all__ = ["TraceSink", "JsonlTraceSink", "RingSink", "CompositeSink"]

#: Lines :class:`JsonlTraceSink` holds before hitting the OS — bounds both
#: the syscall rate and the buffer's memory.
BUFFER_LINES = 512


class TraceSink:
    """Base class: a callable record consumer with lifecycle hooks."""

    def __call__(self, record: TraceRecord) -> None:
        self.emit(record)

    def emit(self, record: TraceRecord) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; idempotent."""


class JsonlTraceSink(TraceSink):
    """Streams records to a JSONL file, one JSON object per line.

    Parameters
    ----------
    path:
        Output file.  A ``.gz`` suffix enables gzip compression (override
        with ``compress=``).  Parent directories are created.
    meta:
        Run metadata written into the schema-versioned header line.
    compress:
        Force gzip on/off; default inferred from the path suffix.

    Lines are buffered (:data:`BUFFER_LINES`) and reach the OS on
    overflow, :meth:`flush` and :meth:`close`.  The sink counts what it
    writes (``recorded``, per-category) and appends a footer line with
    the totals on close, then fsyncs, so a reader can detect a truncated
    artifact (missing footer) and a finished one survives a power cut.
    """

    def __init__(
        self,
        path: str | Path,
        meta: dict[str, Any] | None = None,
        compress: bool | None = None,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if compress is None:
            compress = self.path.suffix == ".gz"
        self.compressed = compress
        self.recorded = 0
        self.by_category: dict[str, int] = {}
        self.dropped = 0  # set by the owner before close (ring evictions)
        self._buffer: list[str] = []
        self._closed = False
        self._raw = stream = self.path.open("wb")
        if compress:
            stream = gzip.GzipFile(fileobj=self._raw, mode="wb")
        self._fh = io.TextIOWrapper(stream, encoding="utf-8")
        self._write_line(trace_header(meta))

    # ------------------------------------------------------------------ #
    def emit(self, record: TraceRecord) -> None:
        if self._closed:
            return
        self.recorded += 1
        cat = record.category
        self.by_category[cat] = self.by_category.get(cat, 0) + 1
        self._write_line(record_to_dict(record))

    def flush(self) -> None:
        """Push buffered lines to the OS."""
        if not self._closed:
            self._drain()
            self._fh.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._write_line(
            trace_footer(self.recorded, self.dropped, self.by_category)
        )
        self._drain()
        self._closed = True
        if self.compressed:
            self._fh.close()  # writes the gzip trailer; the file stays open
        else:
            self._fh.flush()
        self._raw.flush()
        os.fsync(self._raw.fileno())
        self._raw.close()

    # ------------------------------------------------------------------ #
    def _write_line(self, obj: dict[str, Any]) -> None:
        self._buffer.append(json.dumps(obj))
        if len(self._buffer) >= BUFFER_LINES:
            self._drain()

    def _drain(self) -> None:
        if self._buffer:
            self._fh.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"JsonlTraceSink({str(self.path)!r}, recorded={self.recorded}, "
            f"gzip={self.compressed})"
        )


class RingSink(TraceSink):
    """Keeps the last ``capacity`` records — pre-failure forensics.

    O(1) per record, strictly bounded memory.  After a crash or an
    assertion failure, :meth:`records` (or :meth:`dump`) yields the
    events that immediately preceded it, newest last.
    """

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.seen = 0
        self._ring: deque[TraceRecord] = deque(maxlen=capacity)

    def emit(self, record: TraceRecord) -> None:
        self.seen += 1
        self._ring.append(record)

    @property
    def dropped(self) -> int:
        """Records evicted to respect ``capacity``."""
        return self.seen - len(self._ring)

    def records(self) -> list[TraceRecord]:
        """Retained records, oldest first."""
        return list(self._ring)

    def filter(
        self,
        category: str | None = None,
        node: int | None = None,
        event: str | None = None,
    ) -> list[TraceRecord]:
        """Retained records matching every given criterion."""
        return [
            r for r in self._ring
            if (category is None or r.category == category)
            and (node is None or r.node == node)
            and (event is None or r.event == event)
        ]

    def count(self, **criteria: Any) -> int:
        """Number of retained records matching :meth:`filter` criteria."""
        return len(self.filter(**criteria))

    def dump(self) -> str:
        """Human-readable dump of the retained window."""
        lines = [
            f"# ring: last {len(self._ring)} of {self.seen} records"
        ]
        lines.extend(str(r) for r in self._ring)
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._ring)


class CompositeSink(TraceSink):
    """Fans one record stream out to several sinks (e.g. JSONL + ring)."""

    def __init__(self, *sinks: TraceSink) -> None:
        if not sinks:
            raise ValueError("need at least one sink")
        self.sinks = list(sinks)

    def emit(self, record: TraceRecord) -> None:
        for sink in self.sinks:
            sink(record)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
