"""Pluggable campaign execution backends.

The :class:`~repro.exec.scheduler.CampaignExecutor` owns *orchestration* —
resume, retry rounds, crash budgets, outcome ordering — and delegates the
actual running of a batch of cells to a :class:`Backend`:

``serial``
    Cells execute in-process, in order.  The historical behaviour, and the
    reference every other backend must match byte-for-byte.

``pool``
    Cells fan out over one process-wide ``ProcessPoolExecutor`` (default
    start method, sized ``policy.workers``).  The executor stays up across
    batches and campaigns, so a burst of small campaigns (replicate waves,
    DSE generations) forks its workers once; it is re-forked only when a
    batch asks for a different size, when it is found broken, or on
    :func:`shutdown_shared_pools`.  Workers keep the environment they were
    forked with.  Hard worker death breaks the whole pool, so the
    scheduler re-runs every in-flight sibling as a crash suspect.

``filestore``
    No worker processes at all: N *independent launcher processes* (e.g.
    on different hosts sharing a filesystem) cooperate over the
    content-addressed cell directory.  Each launcher atomically claims a
    cell by creating ``claims/<task_id>.claim`` with ``O_EXCL``, runs it
    in-process, checkpoints the result, and releases the claim.  Cells
    claimed by someone else are polled for their checkpoint.  A launcher
    that dies mid-claim leaves a stale claim file; the sweep in
    :class:`ClaimStore` (same-host dead PID, or mtime beyond a TTL)
    releases it so a resumed or surviving launcher finishes the work —
    kill-safe with no coordinator.

Backend instances are cheap veneers; the pool's processes are shared
process-wide so repeated campaigns reuse them.
"""

from __future__ import annotations

import json
import os
import socket
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.exec.checkpoint import CheckpointStore
from repro.exec.worker import execute_payload, payload_for_config, watch_parent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.policy import ExecPolicy
    from repro.exec.task import Campaign

__all__ = [
    "BACKENDS",
    "Backend",
    "ClaimStore",
    "FileStoreBackend",
    "PoolBackend",
    "SerialBackend",
    "make_backend",
    "shutdown_shared_pools",
]

#: ``(index, attempt, crashes)`` — the scheduler's retry-queue entry.
Entry = tuple[int, int, int]
#: ``absorb(index, attempt, crashes, out_dict)`` — structured completion.
Absorb = Callable[[int, int, int, dict], None]
#: ``crashed(index, attempt, crashes)`` — hard worker death on this cell.
Crashed = Callable[[int, int, int], None]


class Backend(ABC):
    """Executes one batch of cells; orchestration stays in the scheduler."""

    #: Registry key; also what ``ExecPolicy.backend`` names.
    name: str = "abstract"

    @abstractmethod
    def run_batch(
        self,
        campaign: "Campaign",
        batch: Sequence[Entry],
        policy: "ExecPolicy",
        absorb: Absorb,
        crashed: Crashed,
    ) -> None:
        """Run ``batch``; report every entry via ``absorb`` or ``crashed``."""

    def close(self) -> None:
        """Release per-campaign resources (the shared pool stays up)."""


# --------------------------------------------------------------------- #
# serial
# --------------------------------------------------------------------- #
class SerialBackend(Backend):
    """In-process, in-order execution — the byte-identity reference."""

    name = "serial"

    def run_batch(self, campaign, batch, policy, absorb, crashed):
        for i, attempt, crashes in batch:
            out = execute_payload(
                payload_for_config(campaign.tasks[i].config, policy.task_timeout_s)
            )
            absorb(i, attempt, crashes, out)


# --------------------------------------------------------------------- #
# pool (one process-wide ProcessPoolExecutor, kept up across batches)
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


class PoolBackend(Backend):
    """Cells on the shared ``ProcessPoolExecutor``; a broken pool
    crash-suspects every unfinished entry (it cannot say which cell
    killed it) and is replaced before the next batch."""

    name = "pool"

    def run_batch(self, campaign, batch, policy, absorb, crashed):
        def submit_all() -> dict:
            pool = _pool(policy.workers)
            return {
                pool.submit(
                    execute_payload,
                    payload_for_config(
                        campaign.tasks[i].config, policy.task_timeout_s
                    ),
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
            # before the break are absorbed normally; the rest (victim
            # plus in-flight/queued siblings) become crash suspects.
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


# --------------------------------------------------------------------- #
# filestore (cooperating launchers over the cell directory)
# --------------------------------------------------------------------- #
class ClaimStore:
    """Atomic per-cell claim files plus the stale-lock sweep.

    A claim is ``claims/<task_id>.claim`` holding ``{pid, host, t}``,
    created with ``O_CREAT | O_EXCL`` so exactly one launcher wins.  The
    sweep releases claims whose owner provably died (same host, PID gone)
    and, as the cross-host fallback, claims whose file mtime is older than
    ``ttl_s`` — a launcher SIGKILLed mid-cell can therefore never wedge a
    resumed campaign.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.host = socket.gethostname()

    def path(self, task_id: str) -> Path:
        return self.root / f"{task_id}.claim"

    def try_claim(self, task_id: str) -> bool:
        """Atomically claim ``task_id``; False if someone else holds it."""
        try:
            fd = os.open(
                self.path(task_id), os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as fh:
            json.dump(
                {"pid": os.getpid(), "host": self.host, "t": time.time()}, fh
            )
        return True

    def release(self, task_id: str) -> None:
        self.path(task_id).unlink(missing_ok=True)

    def is_stale(self, task_id: str, ttl_s: float) -> bool:
        """Heuristic: same-host dead PID, unreadable claim, or old mtime."""
        path = self.path(task_id)
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            return False  # already released
        try:
            with path.open() as fh:
                data = json.load(fh)
            pid = int(data["pid"])
            host = data["host"]
        except (OSError, ValueError, KeyError, TypeError):
            # Torn write (claimant died inside the claim itself): give the
            # file a grace period in case it is mid-write, then reap it.
            return age > 5.0
        if host == self.host:
            try:
                os.kill(pid, 0)  # signal 0: existence probe only
            except ProcessLookupError:
                return True
            except PermissionError:  # alive, owned by someone else
                return False
            return False
        # Foreign host: PID liveness is unknowable; fall back to the TTL.
        return age > ttl_s

    def sweep_stale(self, task_ids: Sequence[str], ttl_s: float) -> list[str]:
        """Release every stale claim among ``task_ids``; returns the reaped."""
        reaped = []
        for task_id in task_ids:
            if self.is_stale(task_id, ttl_s):
                self.release(task_id)
                reaped.append(task_id)
        return reaped


class FileStoreBackend(Backend):
    """Coordinator-free multi-launcher execution over the cell directory.

    Every launcher runs the *same* campaign with this backend; the claim
    files partition the cells dynamically (a filesystem-level work-stealing
    queue), the content-addressed checkpoints carry the results, and each
    launcher's aggregate — assembled in task order from checkpoints — is
    byte-identical to a single-launcher run.
    """

    name = "filestore"

    def __init__(
        self,
        store: CheckpointStore | None = None,
        claims: ClaimStore | None = None,
        poll_s: float = 0.25,
    ) -> None:
        self.store = store if store is not None else CheckpointStore()
        self.claims = (
            claims
            if claims is not None
            else ClaimStore(self.store.root / "claims")
        )
        self.poll_s = poll_s

    def run_batch(self, campaign, batch, policy, absorb, crashed):
        pending: dict[int, Entry] = {entry[0]: entry for entry in batch}
        ttl = policy.claim_ttl_s
        last_sweep = 0.0
        while pending:
            progressed = False
            for i in list(pending):
                entry = pending[i]
                task = campaign.tasks[i]
                payload = self.store.load(task.task_id)
                if payload is not None:
                    # Finished — by us earlier, or by a peer launcher.
                    absorb(i, entry[1], entry[2],
                           {"ok": True, "result": payload, "duration_s": 0.0})
                    self.claims.release(task.task_id)
                    del pending[i]
                    progressed = True
                    continue
                if self.claims.try_claim(task.task_id):
                    out = execute_payload(
                        payload_for_config(task.config, policy.task_timeout_s)
                    )
                    if out["ok"]:
                        # Checkpoint BEFORE releasing the claim: a peer that
                        # sees no claim must either see the checkpoint or
                        # get to (re)claim the cell.
                        self.store.store(task.task_id, out["result"])
                    absorb(i, entry[1], entry[2], out)
                    self.claims.release(task.task_id)
                    del pending[i]
                    progressed = True
            if not pending:
                break
            if not progressed:
                # Everything left is claimed by peers: wait for their
                # checkpoints, periodically reaping claims whose owners died.
                now = time.monotonic()
                if now - last_sweep >= max(self.poll_s, 1.0):
                    last_sweep = now
                    self.claims.sweep_stale(
                        [campaign.tasks[i].task_id for i in pending], ttl
                    )
                time.sleep(self.poll_s)


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
BACKENDS: dict[str, type[Backend]] = {
    SerialBackend.name: SerialBackend,
    PoolBackend.name: PoolBackend,
    FileStoreBackend.name: FileStoreBackend,
}


def make_backend(policy: "ExecPolicy", store: CheckpointStore | None = None) -> Backend:
    """Instantiate the backend ``policy`` names (``auto`` resolved by
    :attr:`~repro.exec.policy.ExecPolicy.effective_backend`)."""
    name = policy.effective_backend
    if name == "filestore":
        return FileStoreBackend(store=store)
    try:
        return BACKENDS[name]()
    except KeyError:
        raise ValueError(
            f"unknown backend {policy.backend!r}; "
            f"expected one of {['auto', *BACKENDS]}"
        ) from None
