"""The versioned JSONL trace schema.

A trace artifact is a sequence of JSON objects, one per line:

* line 1 is a **header**: ``{"schema": N, "kind": "header", ...}`` carrying
  run metadata (protocol, seed, node count, measurement window) so an
  artifact is self-describing — ``repro-trace summary`` reproduces a run's
  counters from the file alone;
* every following line is a **record**: ``{"t": ..., "cat": ..., "node":
  ..., "ev": ..., ...details}`` — one :class:`~repro.sim.trace.TraceRecord`;
* the writer may append a **footer**: ``{"kind": "footer", ...}`` with
  recorded/dropped totals, written on close.

Writer (:class:`~repro.obs.sinks.JsonlTraceSink`) and readers
(``repro-trace``, the CI validator) share this module, so the schema can
only evolve in one place.  Bump :data:`TRACE_SCHEMA_VERSION` on any
incompatible layout change; readers reject versions they don't know.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.trace import TraceRecord

__all__ = [
    "TRACE_CATEGORIES",
    "TRACE_SCHEMA_VERSION",
    "record_to_dict",
    "trace_header",
    "trace_footer",
    "validate_trace_line",
]

#: Current trace artifact layout version.
TRACE_SCHEMA_VERSION = 1

#: The record categories a simulation run emits (a record's ``cat``); a
#: ``trace_spec`` category filter may name only these.
TRACE_CATEGORIES = ("app", "fault", "mac", "net", "phy")

#: Keys every record line carries (details ride alongside them).
RECORD_KEYS = ("t", "cat", "node", "ev")

#: Keys reserved for the envelope; detail fields may not shadow them.
RESERVED_KEYS = frozenset(RECORD_KEYS) | {"schema", "kind"}


def record_to_dict(record: "TraceRecord") -> dict[str, Any]:
    """Flatten one trace record into its JSON line layout.

    Detail fields are inlined next to the envelope keys; a detail that
    collides with a reserved key is prefixed with ``x_`` rather than
    silently overwriting the envelope.
    """
    out: dict[str, Any] = {
        "t": record.time,
        "cat": record.category,
        "node": record.node,
        "ev": record.event,
    }
    for key, value in record.details.items():
        out[f"x_{key}" if key in RESERVED_KEYS else key] = value
    return out


def trace_header(meta: dict[str, Any] | None = None) -> dict[str, Any]:
    """The artifact's first line: schema version plus run metadata."""
    out: dict[str, Any] = {"schema": TRACE_SCHEMA_VERSION, "kind": "header"}
    if meta:
        out.update({k: v for k, v in meta.items() if k not in ("schema", "kind")})
    return out


def trace_footer(
    recorded: int, dropped: int, by_category: dict[str, int]
) -> dict[str, Any]:
    """The artifact's closing line: what the sink actually wrote."""
    return {
        "schema": TRACE_SCHEMA_VERSION,
        "kind": "footer",
        "recorded": recorded,
        "dropped": dropped,
        "by_category": dict(sorted(by_category.items())),
    }


def validate_trace_line(obj: Any, lineno: int | None = None) -> list[str]:
    """Schema-validate one parsed JSONL line; returns error strings.

    An empty list means the line is valid.  Used by ``repro-trace
    validate`` and the CI artifact check.
    """
    where = f"line {lineno}: " if lineno is not None else ""
    if not isinstance(obj, dict):
        return [f"{where}expected a JSON object, got {type(obj).__name__}"]
    kind = obj.get("kind")
    if kind in ("header", "footer"):
        errors = []
        if obj.get("schema") != TRACE_SCHEMA_VERSION:
            errors.append(
                f"{where}{kind} schema {obj.get('schema')!r} != "
                f"{TRACE_SCHEMA_VERSION}"
            )
        if kind == "footer":
            for key in ("recorded", "dropped"):
                if not isinstance(obj.get(key), int):
                    errors.append(f"{where}footer {key!r} must be an int")
        return errors

    errors = []
    for key in RECORD_KEYS:
        if key not in obj:
            errors.append(f"{where}record missing {key!r}")
    t = obj.get("t")
    if not isinstance(t, (int, float)) or isinstance(t, bool) or (
        isinstance(t, float) and not math.isfinite(t)
    ):
        errors.append(f"{where}'t' must be a finite number, got {t!r}")
    if not isinstance(obj.get("cat"), str):
        errors.append(f"{where}'cat' must be a string")
    node = obj.get("node")
    if not isinstance(node, int) or isinstance(node, bool):
        errors.append(f"{where}'node' must be an int")
    if not isinstance(obj.get("ev"), str):
        errors.append(f"{where}'ev' must be a string")
    return errors
