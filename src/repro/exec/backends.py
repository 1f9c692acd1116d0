"""Where a batch of campaign cells runs: in-process or on the shared pool.

The :class:`~repro.exec.scheduler.CampaignExecutor` owns *orchestration* —
resume, retry rounds, crash budgets, outcome ordering — and hands each
batch of cells to one of two functions, chosen by ``policy.workers``:

:func:`run_serial` (``workers == 1``)
    Cells execute in-process, in order: the byte-identity reference.

:func:`run_pool` (``workers > 1``)
    Cells fan out over one process-wide ``ProcessPoolExecutor`` (default
    start method, sized ``policy.workers``).  The executor stays up across
    batches and campaigns, so a burst of small campaigns (replicate waves,
    DSE generations) forks its workers once; it is re-forked only when a
    batch asks for a different size, when it is found broken, or on
    :func:`shutdown_shared_pools`.  Workers keep the environment they were
    forked with.  Hard worker death breaks the whole pool, so the
    scheduler re-runs every in-flight sibling as a crash suspect.

Kill safety comes from the per-cell checkpoints, not from here: a
campaign re-run with ``resume=True`` loads what finished.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, Sequence

from repro.exec.worker import execute_payload, payload_for_config, watch_parent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.policy import ExecPolicy
    from repro.exec.task import Campaign

__all__ = ["run_pool", "run_serial", "shutdown_shared_pools"]

#: ``(index, attempt, crashes)`` — the scheduler's retry-queue entry.
Entry = tuple[int, int, int]
#: ``absorb(index, attempt, crashes, out_dict)`` — structured completion.
Absorb = Callable[[int, int, int, dict], None]
#: ``crashed(index, attempt, crashes)`` — hard worker death on this cell.
Crashed = Callable[[int, int, int], None]


def run_serial(
    campaign: "Campaign",
    batch: Sequence[Entry],
    policy: "ExecPolicy",
    absorb: Absorb,
    crashed: Crashed,
) -> None:
    """Run ``batch`` in-process, in order; every entry reaches ``absorb``."""
    for i, attempt, crashes in batch:
        out = execute_payload(
            payload_for_config(campaign.tasks[i].config, policy.task_timeout_s)
        )
        absorb(i, attempt, crashes, out)


# --------------------------------------------------------------------- #
# one process-wide ProcessPoolExecutor, kept up across batches
# --------------------------------------------------------------------- #
_shared_pool: ProcessPoolExecutor | None = None
_shared_workers = 0


def _pool(workers: int) -> ProcessPoolExecutor:
    """The process-wide executor, forked on first use and re-forked when a
    batch asks for a different size."""
    global _shared_pool, _shared_workers
    if _shared_pool is not None and _shared_workers != workers:
        shutdown_shared_pools()
    if _shared_pool is None:
        _shared_pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=watch_parent,
            initargs=(os.getpid(),),
        )
        _shared_workers = workers
    return _shared_pool


def shutdown_shared_pools() -> None:
    """Shut the shared pool down; the next parallel batch forks a new one.

    Workers keep the environment they were forked with, so call this after
    changing ``REPRO_*`` variables (or the cwd) that cells should see.
    """
    global _shared_pool
    pool, _shared_pool = _shared_pool, None
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


def run_pool(
    campaign: "Campaign",
    batch: Sequence[Entry],
    policy: "ExecPolicy",
    absorb: Absorb,
    crashed: Crashed,
) -> None:
    """Run ``batch`` on the shared pool; a broken pool crash-suspects every
    unfinished entry (it cannot say which cell killed it) and is replaced
    before the next batch."""

    def submit_all() -> dict:
        pool = _pool(policy.workers)
        return {
            pool.submit(
                execute_payload,
                payload_for_config(campaign.tasks[i].config, policy.task_timeout_s),
            ): (i, attempt, crashes)
            for i, attempt, crashes in batch
        }

    try:
        futures = submit_all()
    except BrokenProcessPool:
        # A worker died while the pool sat idle (OOM killer, SIGKILL):
        # none of our cells ran, so fork a fresh pool and resubmit.
        shutdown_shared_pools()
        futures = submit_all()
    healthy = False
    try:
        for fut in as_completed(futures):
            i, attempt, crashes = futures.pop(fut)
            try:
                out = fut.result()
            except BrokenProcessPool:
                futures[fut] = (i, attempt, crashes)
                raise
            except Exception as exc:  # e.g. result unpickling
                out = {
                    "ok": False,
                    "kind": "error",
                    "error": repr(exc),
                    "duration_s": 0.0,
                }
            absorb(i, attempt, crashes, out)
        healthy = True
    except BrokenProcessPool:
        # A worker died hard.  Finished futures that slipped through
        # before the break are absorbed normally; the rest (victim plus
        # in-flight/queued siblings) become crash suspects.
        for fut, (i, attempt, crashes) in futures.items():
            out = None
            if fut.done() and not fut.cancelled():
                try:
                    out = fut.result()
                except Exception:
                    out = None
            if out is not None:
                absorb(i, attempt, crashes, out)
            else:
                crashed(i, attempt, crashes)
    finally:
        if not healthy:
            # A broken pool cannot be reused, and an interrupted batch
            # must not leave its cells running on the shared pool.
            shutdown_shared_pools()
