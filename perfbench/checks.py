"""Output checks: every scenario result must be sane and reproducible.

A result's digest is a sha256 over ``as_dict()``, ``metrics_snapshot``
and ``events_executed``.  One config (identified by its exec task id,
a content hash of the full config) must map to one digest: across the
samples of a run, between traced and untraced runs, between campaign
cells and the same config run in-process, and across runs of the same
source tree (the digests of earlier runs are kept per source revision).
"""

from __future__ import annotations

import json
import hashlib
import os
from pathlib import Path

from repro.exec import Task
from repro.experiments.runner import ScenarioResult
from repro.experiments.scenario import ScenarioConfig


def result_digest(result: ScenarioResult) -> str:
    """sha256 of the simulation outputs a benchmark run must reproduce."""
    payload = {
        "as_dict": {k: float(v) for k, v in result.as_dict().items()},
        "metrics_snapshot": {
            k: float(v) for k, v in result.metrics_snapshot.items()
        },
        "events_executed": int(result.events_executed),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


class OutputChecks:
    """Checks results and remembers one digest per config.

    ``known`` seeds the memory with digests from earlier runs of the same
    source revision, so a run that disagrees with them fails.
    """

    def __init__(self, known: dict[str, str] | None = None) -> None:
        self.known = dict(known or {})
        self.seen: dict[str, str] = {}
        self.problems: list[str] = []

    def check(self, config: ScenarioConfig, result: ScenarioResult) -> bool:
        """Record ``result`` for ``config``; False (and a problem) on a miss."""
        key = Task(config).task_id
        label = f"{config.protocol} seed {config.seed}"
        digest = result_digest(result)
        problems = []
        if not (0.0 <= result.pdr <= 1.0):  # also rejects NaN
            problems.append(f"{label}: pdr {result.pdr!r} outside [0, 1]")
        if result.packets_sent <= 0:
            problems.append(f"{label}: no packets sent")
        expected = self.seen.get(key, self.known.get(key))
        if expected is not None and expected != digest:
            problems.append(
                f"{label}: digest {digest[:12]} differs from {expected[:12]}"
            )
        self.seen.setdefault(key, digest)
        self.problems += problems
        return not problems


def load_digests(path: Path) -> dict[str, str]:
    """Digests recorded by earlier runs, or nothing."""
    try:
        with path.open() as fh:
            data = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        return {}
    return data if isinstance(data, dict) else {}


def save_digests(path: Path, digests: dict[str, str]) -> None:
    """Merge ``digests`` into the file at ``path`` (atomic replace)."""
    merged = {**load_digests(path), **digests}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(merged, sort_keys=True, indent=0))
    os.replace(tmp, path)

