"""Cache location, content keys and atomic JSON writes.

Every experiment result persists as content-keyed JSON under
:func:`cache_dir`: one checkpoint per simulated exec cell (see
:mod:`repro.exec.checkpoint`) — plus, in the same store, the rows of the
few figures that do not run on exec cells.  Campaign run logs live in
its ``runs/`` directory.
:func:`cache_key` is the stable content hash the cell ids are built from;
it folds in :data:`SEMANTICS_STAMP`, so a change of simulator behaviour
(which must rewrite ``tests/golden_runs.json``, and with it the stamp)
leaves every older checkpoint unread;
:func:`atomic_write_json` writes through a per-process unique temp file
followed by an atomic ``os.replace``, so concurrent writers of the same
key (e.g. parallel campaign workers) can never interleave bytes — last
writer wins with a complete file.

Delete ``results/cache/`` (or point ``REPRO_CACHE_DIR`` elsewhere) to
start from nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

__all__ = ["SEMANTICS_STAMP", "atomic_write_json", "cache_dir", "cache_key"]

#: The first 16 hex digits of sha256(``tests/golden_runs.json``); a test
#: keeps the two equal.
SEMANTICS_STAMP = "7aed955c70d64263"


def cache_dir() -> Path:
    """Directory for cell checkpoints and run logs (created on demand).

    Defaults to ``<repo>/results/cache``; override with ``REPRO_CACHE_DIR``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        path = Path(env)
    else:
        path = Path(__file__).resolve().parents[3] / "results" / "cache"
    path.mkdir(parents=True, exist_ok=True)
    return path


def cache_key(name: str, params: dict[str, Any]) -> str:
    """Stable content hash for ``name`` with ``params`` under this
    simulator's :data:`SEMANTICS_STAMP`."""
    blob = json.dumps(
        {"name": name, "params": params, "semantics": SEMANTICS_STAMP},
        sort_keys=True, default=str,
    )
    return f"{name}-{hashlib.sha256(blob.encode()).hexdigest()[:16]}"


def atomic_write_json(path: Path, payload: Any) -> None:
    """Write ``payload`` as JSON via a unique temp file + atomic replace.

    ``tempfile`` names the temp file uniquely per process/thread, so two
    writers of the same key never share a partially written file; the
    final ``os.replace`` is atomic on POSIX.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f"{path.stem}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, default=str)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
