"""Pluggable campaign execution backends.

The :class:`~repro.exec.scheduler.CampaignExecutor` owns *orchestration* —
resume, retry rounds, crash budgets, outcome ordering — and delegates the
actual running of a batch of cells to a :class:`Backend`:

``serial``
    Cells execute in-process, in order.  The historical behaviour, and the
    reference every other backend must match byte-for-byte.

``pool``
    A fresh ``ProcessPoolExecutor`` per batch (the pre-backend parallel
    path).  Hard worker death breaks the whole pool, so the scheduler
    re-runs every in-flight sibling as a crash suspect.

``warm``
    A *persistent* worker pool that survives across batches and campaigns
    within the process.  Workers keep their interpreter + numpy state warm
    and steal work from one shared queue, which amortises the per-campaign
    process spawn and import cost — the dominant overhead when cells are
    short (replicate waves, DSE generations).  Worker death is attributed
    to exactly the cell the worker had claimed; siblings are unaffected
    and the dead worker is respawned.

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

Backend instances are cheap veneers; the warm pool's processes are shared
process-wide (see :func:`shared_warm_pool`) so repeated campaigns reuse
them.
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
from typing import TYPE_CHECKING, Any, Callable, Sequence

import multiprocessing as mp

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
    "WarmPoolBackend",
    "make_backend",
    "shared_warm_pool",
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
        workers: int,
        absorb: Absorb,
        crashed: Crashed,
    ) -> None:
        """Run ``batch``; report every entry via ``absorb`` or ``crashed``."""

    def close(self) -> None:
        """Release per-campaign resources (shared pools stay warm)."""


# --------------------------------------------------------------------- #
# serial
# --------------------------------------------------------------------- #
class SerialBackend(Backend):
    """In-process, in-order execution — the byte-identity reference."""

    name = "serial"

    def run_batch(self, campaign, batch, policy, workers, absorb, crashed):
        for i, attempt, crashes in batch:
            out = execute_payload(
                payload_for_config(campaign.tasks[i].config, policy.task_timeout_s)
            )
            absorb(i, attempt, crashes, out)


# --------------------------------------------------------------------- #
# pool (fresh ProcessPoolExecutor per batch)
# --------------------------------------------------------------------- #
class PoolBackend(Backend):
    """One ``ProcessPoolExecutor`` per batch; broken pools crash-suspect
    every unfinished entry (the pool cannot say which cell killed it)."""

    name = "pool"

    def run_batch(self, campaign, batch, policy, workers, absorb, crashed):
        pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=watch_parent,
            initargs=(os.getpid(),),
        )
        futures = {
            pool.submit(
                execute_payload,
                payload_for_config(
                    campaign.tasks[i].config, policy.task_timeout_s
                ),
            ): (i, attempt, crashes)
            for i, attempt, crashes in batch
        }
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
            pool.shutdown(wait=True, cancel_futures=True)


# --------------------------------------------------------------------- #
# warm (persistent work-stealing pool)
# --------------------------------------------------------------------- #
def _warm_worker_main(
    parent_pid: int, task_q: "mp.Queue", result_q
) -> None:
    """Persistent worker loop: claim → execute → report, until sentinel.

    The ``("claim", wid, key)`` message *before* execution is what lets the
    parent attribute a hard death to exactly one cell; everything the
    worker has not claimed is untouched by its demise.  ``result_q`` is a
    ``SimpleQueue`` deliberately: its ``put`` is a synchronous pipe write
    (no feeder thread), so a worker that dies the instant after claiming —
    ``os._exit`` inside the cell — cannot lose the claim in an unflushed
    buffer.  Only the claim→execute window itself (no user code) is
    unattributable.
    """
    watch_parent(parent_pid)
    wid = os.getpid()
    while True:
        item = task_q.get()
        if item is None:  # shutdown sentinel
            break
        key, payload = item
        result_q.put(("claim", wid, key))
        out = execute_payload(payload)
        result_q.put(("done", wid, key, out))


class _WarmPool:
    """The shared persistent worker processes behind ``warm`` backends."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._ctx = mp.get_context("spawn")
        self.task_q: mp.Queue = self._ctx.Queue()
        # SimpleQueue: synchronous writes, so claims survive worker death.
        self.result_q = self._ctx.SimpleQueue()
        self._procs: list = []
        for _ in range(workers):
            self._spawn_one()

    def _spawn_one(self) -> None:
        proc = self._ctx.Process(
            target=_warm_worker_main,
            args=(os.getpid(), self.task_q, self.result_q),
            daemon=True,
        )
        proc.start()
        self._procs.append(proc)

    # ------------------------------------------------------------------ #
    def run(
        self,
        items: dict[int, dict[str, Any]],
        absorb_out: Callable[[int, dict], None],
        crashed_key: Callable[[int], None],
        poll_s: float = 0.2,
    ) -> None:
        """Push ``items`` (key → payload) and drain until all accounted for.

        A worker that dies holding a claim gets its cell reported via
        ``crashed_key`` and is replaced; unclaimed cells stay queued for
        the survivors — work stealing makes the reassignment automatic.
        """
        outstanding = set(items)
        for key, payload in items.items():
            self.task_q.put((key, payload))
        claimed: dict[int, int] = {}  # worker pid → cell key
        while outstanding:
            # SimpleQueue has no timeout; poll its read pipe directly so
            # corpse detection still runs while the queue is quiet.
            if not self.result_q._reader.poll(poll_s):
                for proc in list(self._procs):
                    if proc.is_alive():
                        continue
                    self._procs.remove(proc)
                    victim = claimed.pop(proc.pid, None)
                    self._spawn_one()
                    if victim is not None and victim in outstanding:
                        outstanding.discard(victim)
                        crashed_key(victim)
                continue
            msg = self.result_q.get()
            if msg[0] == "claim":
                _, wid, key = msg
                claimed[wid] = key
            else:
                _, wid, key, out = msg
                claimed.pop(wid, None)
                if key in outstanding:
                    outstanding.discard(key)
                    absorb_out(key, out)

    def shutdown(self) -> None:
        for _ in self._procs:
            self.task_q.put(None)
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
        self._procs.clear()


_shared_pools: dict[int, _WarmPool] = {}


def shared_warm_pool(workers: int) -> _WarmPool:
    """Process-wide warm pool of ``workers`` processes (created once).

    Sharing is what amortises spawn + import cost across campaigns: a DSE
    search or figure regeneration issues many small campaigns, and all of
    them reuse the same warm interpreters.
    """
    pool = _shared_pools.get(workers)
    if pool is None or not pool._procs:
        pool = _WarmPool(workers)
        _shared_pools[workers] = pool
    return pool


def shutdown_shared_pools() -> None:
    """Tear down every shared warm pool (tests, interpreter exit)."""
    for pool in _shared_pools.values():
        pool.shutdown()
    _shared_pools.clear()


class WarmPoolBackend(Backend):
    """Persistent work-stealing pool; see module docstring."""

    name = "warm"

    def run_batch(self, campaign, batch, policy, workers, absorb, crashed):
        pool = shared_warm_pool(max(workers, 1))
        meta = {i: (attempt, crashes) for i, attempt, crashes in batch}
        items = {
            i: payload_for_config(
                campaign.tasks[i].config, policy.task_timeout_s
            )
            for i in meta
        }
        pool.run(
            items,
            lambda i, out: absorb(i, *meta[i], out),
            lambda i: crashed(i, *meta[i]),
        )


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

    def run_batch(self, campaign, batch, policy, workers, absorb, crashed):
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
    WarmPoolBackend.name: WarmPoolBackend,
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
