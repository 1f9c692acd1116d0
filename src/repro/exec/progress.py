"""Campaign progress: throttled status lines + the run log.

One :class:`ProgressReporter` observes one campaign at a time.  When given
a stream it prints a human-facing status line at most every
``min_interval_s`` seconds (``[name] done/total ok, N failed, M cached |
X ev/s | ETA Ys``).  It always writes the campaign's *run log*: a
:class:`RunLog` artifact on the trace line protocol
(:mod:`repro.obs.schema`), so ``repro-trace validate`` reads it like any
trace.

* **Header:** ``campaign``, ``tasks``, ``workers``, ``host``, ``pid`` and
  ``start_time`` (epoch seconds).
* **Records:** ``cat="exec"``, ``node=-1``, ``t`` in seconds since the
  header.  ``ev="task_done"`` carries task id, status, source (fresh run
  vs checkpoint), attempts, duration, simulated events, seed, protocol
  and, for a failed cell, its error and failure kind (written ``x_kind``:
  the schema reserves ``kind``).  ``ev="campaign_end"`` carries the
  ok/failed/cached totals, wall time and events/s.
* **Footer** on close.

Durability: every record is flushed as it is written, so a killed run
leaves only whole lines behind (and no footer); closing fsyncs.  The log
is the post-mortem record of every terminally failed cell — it must be
parseable after any crash.

Retention: :func:`prune_run_logs` keeps the newest :data:`RUN_LOG_KEEP`
artifacts of a log dir by mtime; the CLIs apply it once per invocation.
A live log is flushed after every record, so it is never among the oldest.
"""

from __future__ import annotations

import os
import socket
import time
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any

from repro.experiments.cache import cache_dir
from repro.obs.sinks import JsonlTraceSink
from repro.sim.trace import TraceRecord

__all__ = ["ProgressReporter", "RunLog", "RUN_LOG_KEEP", "prune_run_logs"]

#: Run logs and adaptive audits a log dir keeps (newest by mtime).
RUN_LOG_KEEP = 200

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.policy import ExecPolicy
    from repro.exec.scheduler import CampaignResult, TaskOutcome
    from repro.exec.task import Campaign


class RunLog:
    """One exec artifact — run log or adaptive audit — on the trace protocol.

    The file is ``{stem}-{pid}-{ts}.jsonl`` under ``log_dir`` (default
    ``cache_dir()/runs``); ``ts`` is in nanoseconds, so every artifact gets
    its own file.  The header carries ``meta`` plus ``host``, ``pid`` and
    ``start_time``.  I/O errors — an unwritable log dir included — are
    swallowed: telemetry must never kill a campaign.
    """

    def __init__(
        self, stem: str, log_dir: Path | None = None, **meta: Any
    ) -> None:
        self._t0 = time.monotonic()
        header = {
            **meta,
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "start_time": round(time.time(), 3),
        }
        self._sink: JsonlTraceSink | None = None
        try:
            log_dir = log_dir or cache_dir() / "runs"
            path = log_dir / f"{stem}-{os.getpid()}-{time.time_ns()}.jsonl"
            self._sink = JsonlTraceSink(path, meta=header)
            self._sink.flush()
        except OSError:
            pass

    def write(self, event: str, **details: Any) -> None:
        """Append one flushed ``exec`` record."""
        if self._sink is None:
            return
        t = round(time.monotonic() - self._t0, 6)
        try:
            self._sink(TraceRecord(t, "exec", -1, event, details))
            self._sink.flush()
        except OSError:
            pass

    def close(self) -> None:
        """Write the footer and fsync."""
        if self._sink is not None:
            try:
                self._sink.close()
            except OSError:
                pass


def prune_run_logs(log_dir: Path | None = None) -> None:
    """Delete all but the newest :data:`RUN_LOG_KEEP` ``*.jsonl`` files in
    ``log_dir`` (default ``cache_dir()/runs``).  Like the logs themselves,
    never raises: an I/O error leaves the remaining files in place."""
    try:
        log_dir = log_dir or cache_dir() / "runs"
        logs = sorted(
            (p.stat().st_mtime_ns, p.name, p) for p in log_dir.glob("*.jsonl")
        )
        for *_, path in logs[: max(0, len(logs) - RUN_LOG_KEEP)]:
            path.unlink(missing_ok=True)
    except OSError:
        pass


class ProgressReporter:
    """Streams campaign progress to an optional status stream and the run log.

    ``stream`` receives the status lines (``None``: no status lines).
    Each campaign gets a fresh ``{campaign}-{pid}-{ts}.jsonl`` run log
    under the policy's ``log_dir``.
    """

    def __init__(
        self, stream: IO[str] | None = None, min_interval_s: float = 1.0
    ) -> None:
        self.stream = stream
        self.min_interval_s = min_interval_s
        self._out: RunLog | None = None

    # ------------------------------------------------------------------ #
    # Event hooks (called by the executor)
    # ------------------------------------------------------------------ #
    def campaign_started(
        self, campaign: "Campaign", policy: "ExecPolicy"
    ) -> None:
        self._name = campaign.name
        self._total = len(campaign)
        self._workers = policy.workers
        self._ok = self._failed = self._cached = self._events = self._runs = 0
        self._run_time_s = 0.0  # summed per-task durations (fresh runs)
        self._t0 = time.monotonic()
        self._last_line = 0.0
        self._out = RunLog(
            campaign.name,
            log_dir=policy.log_dir,
            campaign=campaign.name,
            tasks=len(campaign),
            workers=policy.workers,
        )

    def task_finished(self, outcome: "TaskOutcome") -> None:
        events = outcome.result.events_executed if outcome.result else 0
        if outcome.status == "ok":
            self._ok += 1
            self._events += events
        else:
            self._failed += 1
        if outcome.source == "checkpoint":
            self._cached += 1
        else:
            self._runs += 1
            self._run_time_s += outcome.duration_s
        config = outcome.task.config
        self._out.write(
            "task_done",
            campaign=self._name,
            task_id=outcome.task.task_id,
            task=outcome.task.describe(),
            status=outcome.status,
            source=outcome.source,
            kind=outcome.kind,
            attempts=outcome.attempts,
            duration_s=round(outcome.duration_s, 6),
            events_executed=events,
            error=outcome.error,
            seed=config.seed,
            protocol=config.protocol,
        )
        # The last cell's line is campaign_finished's to print.
        if self._ok + self._failed < self._total:
            self._line()

    def campaign_finished(self, result: "CampaignResult") -> None:
        wall = max(time.monotonic() - self._t0, 1e-9)
        self._out.write(
            "campaign_end",
            campaign=self._name,
            ok=self._ok,
            failed=self._failed,
            cached=self._cached,
            wall_s=round(wall, 3),
            events_per_s=round(self._events / wall, 1),
        )
        self._out.close()
        self._line(final=True)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def _line(self, final: bool = False) -> None:
        if self.stream is None:
            return
        now = time.monotonic()
        if not final and now - self._last_line < self.min_interval_s:
            return
        self._last_line = now
        wall = max(now - self._t0, 1e-9)
        done = self._ok + self._failed
        parts = [f"[{self._name}] {done}/{self._total} done"]
        if self._failed:
            parts.append(f"{self._failed} failed")
        if self._cached:
            parts.append(f"{self._cached} cached")
        parts.append(f"{self._events / wall:,.0f} ev/s")
        remaining = self._total - done
        if remaining and self._runs:
            eta = remaining * (self._run_time_s / self._runs) / self._workers
            parts.append(f"ETA {eta:,.0f}s")
        print(" | ".join(parts), file=self.stream, flush=True)
