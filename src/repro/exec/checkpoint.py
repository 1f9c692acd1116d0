"""Per-cell checkpoints: one JSON file per completed simulation task.

The :class:`CheckpointStore` persists every finished cell individually
under ``results/cache/cells/<task_id>.json``; a resumed campaign loads
finished cells and only recomputes the rest, so a crash halfway through a
40-cell sweep loses at most the cells in flight.  Figure tables are
always reassembled from these checkpoints — there is no second,
whole-sweep cache.

Entries carry a schema version; corrupt or stale files are deleted and
read as misses (the cell simply recomputes), never raised to the caller.
Writes reuse the cache's unique-temp-file + atomic-replace path, so
concurrent workers finishing the same cell cannot interleave bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.experiments.cache import atomic_write_json, cache_dir

__all__ = ["CHECKPOINT_SCHEMA", "CheckpointStore"]

#: Bump when the stored result payload layout changes.
CHECKPOINT_SCHEMA = 1


class CheckpointStore:
    """Content-addressed store of finished-cell result payloads."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else cache_dir() / "cells"
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, task_id: str) -> Path:
        """Checkpoint file for ``task_id``."""
        return self.root / f"{task_id}.json"

    def load(self, task_id: str) -> dict[str, Any] | None:
        """Stored result payload, or ``None`` on miss/corruption/stale schema.

        A bad entry is deleted so the cell recomputes cleanly.
        """
        path = self.path(task_id)
        try:
            with path.open() as fh:
                data = json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            path.unlink(missing_ok=True)
            return None
        if (
            not isinstance(data, dict)
            or data.get("schema") != CHECKPOINT_SCHEMA
            or not isinstance(data.get("result"), dict)
        ):
            path.unlink(missing_ok=True)
            return None
        return data["result"]

    def store(self, task_id: str, result_payload: dict[str, Any]) -> None:
        """Persist one finished cell (atomic, concurrency-safe)."""
        atomic_write_json(
            self.path(task_id),
            {"schema": CHECKPOINT_SCHEMA, "task_id": task_id,
             "result": result_payload},
        )

    def __contains__(self, task_id: str) -> bool:
        return self.path(task_id).exists()

    def clear(self) -> int:
        """Delete every checkpoint; returns how many were removed."""
        n = 0
        for path in self.root.glob("*.json"):
            path.unlink(missing_ok=True)
            n += 1
        return n
