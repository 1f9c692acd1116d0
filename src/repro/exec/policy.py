"""Execution policy: how a campaign runs, plus the process-wide default.

:class:`ExecPolicy` bundles every knob of the campaign executor.  The
module also keeps one process-wide default policy so high-level entry
points (``replicate``, the figure sweeps) pick up CLI settings
(``--workers``, ``--backend``) without threading a parameter through every
call site: the CLI calls :func:`configure` once, everything downstream
calls :func:`current_policy`.

The shipped default is strictly serial with checkpointing off — exactly
the historical in-process behaviour, so library users and the test suite
see no change unless they opt in.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.adaptive import AdaptivePolicy

__all__ = ["ExecPolicy", "configure", "current_policy", "using"]

#: Backend names accepted by :attr:`ExecPolicy.backend` (see
#: :mod:`repro.exec.backends`); ``auto`` resolves to ``serial`` for one
#: worker and ``pool`` otherwise.
BACKEND_CHOICES = ("auto", "serial", "pool", "warm", "filestore")


@dataclass(slots=True, frozen=True)
class ExecPolicy:
    """Knobs governing one campaign execution.

    Attributes
    ----------
    workers:
        Process-pool size; ``1`` runs cells in-process in task order.
    task_timeout_s:
        Per-task wall-clock budget; a cell exceeding it is recorded as a
        timeout failure (and retried up to ``retries`` times).  ``None``
        disables the limit.
    retries:
        Re-attempts after an error/timeout failure (``1`` → two attempts
        total).  Worker crashes have their own small budget, see the
        scheduler.
    backoff_s:
        Base delay before re-attempting failed tasks; doubles per round.
    resume:
        Load finished cells from the checkpoint store instead of
        recomputing them.
    checkpoint:
        Persist each finished cell.  ``None`` (the default) auto-enables
        exactly when it is useful: parallel runs and resumed runs.
    progress:
        Emit progress lines on stderr and a JSONL run log.
    log_dir:
        Directory for JSONL run logs (default: ``results/cache/runs``).
    backend:
        Execution backend (see :mod:`repro.exec.backends`): ``auto``
        (serial for one worker, process pool otherwise), ``serial``,
        ``pool``, ``warm`` (persistent work-stealing pool), or
        ``filestore`` (cooperating launchers over the cell directory).
    claim_ttl_s:
        File-store backend only: age beyond which a claim whose owner
        cannot be probed (foreign host) is presumed dead and reaped.
        Same-host claims are reaped as soon as their PID is gone.
    adaptive:
        Optional :class:`~repro.exec.adaptive.AdaptivePolicy`.  When set,
        campaign entry points that understand replication (``replicate``,
        the figure sweeps, DSE evaluation) stop buying seeds for cells
        whose confidence interval is already tight.  ``None`` (default)
        keeps the fixed-budget behaviour byte-identical to before.
    """

    workers: int = 1
    task_timeout_s: float | None = None
    retries: int = 1
    backoff_s: float = 0.5
    resume: bool = False
    checkpoint: bool | None = None
    progress: bool = False
    log_dir: Path | None = None
    backend: str = "auto"
    claim_ttl_s: float = 600.0
    adaptive: "AdaptivePolicy | None" = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be ≥ 1, got {self.workers}")
        if self.retries < 0:
            raise ValueError(f"retries must be ≥ 0, got {self.retries}")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive or None")
        if self.backend not in BACKEND_CHOICES:
            raise ValueError(
                f"backend must be one of {BACKEND_CHOICES}, got {self.backend!r}"
            )
        if self.claim_ttl_s <= 0:
            raise ValueError("claim_ttl_s must be positive")

    @property
    def effective_backend(self) -> str:
        """``auto`` resolved to a concrete backend name."""
        if self.backend == "auto":
            return "serial" if self.workers <= 1 else "pool"
        return self.backend

    @property
    def wants_checkpoint(self) -> bool:
        """Effective checkpointing switch (auto-on for parallel/resume/
        filestore — the latter communicates *through* checkpoints)."""
        if self.backend == "filestore":
            return True
        if self.checkpoint is not None:
            return self.checkpoint
        return self.resume or self.workers > 1


_default_policy = ExecPolicy()


def current_policy() -> ExecPolicy:
    """The process-wide default policy (immutable; replace via configure)."""
    return _default_policy


def configure(**overrides) -> ExecPolicy:
    """Replace fields of the process-wide default policy; returns it."""
    global _default_policy
    _default_policy = replace(_default_policy, **overrides)
    return _default_policy


@contextmanager
def using(**overrides) -> Iterator[ExecPolicy]:
    """Temporarily override the default policy (tests, nested tools)."""
    global _default_policy
    saved = _default_policy
    _default_policy = replace(saved, **overrides)
    try:
        yield _default_policy
    finally:
        _default_policy = saved
