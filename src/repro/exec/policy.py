"""Execution policy: how a campaign runs, plus the process-wide default.

:class:`ExecPolicy` bundles every knob of the campaign executor.  The
module also keeps one process-wide default policy so high-level entry
points (``replicate``, the figure sweeps) pick up CLI settings
(``--workers``, ``--backend``) without threading a parameter through every
call site: the CLI calls :func:`configure` once, everything downstream
calls :func:`current_policy`.  :func:`add_exec_args` and
:func:`policy_from_args` give every CLI the same execution flags.

The shipped default is strictly serial with checkpointing off — exactly
the historical in-process behaviour, so library users and the test suite
see no change unless they opt in.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.adaptive import AdaptivePolicy

__all__ = [
    "ExecPolicy",
    "add_exec_args",
    "configure",
    "current_policy",
    "policy_from_args",
    "using",
]

#: Backend names accepted by :attr:`ExecPolicy.backend` (see
#: :mod:`repro.exec.backends`); ``auto`` resolves to ``serial`` for one
#: worker and ``pool`` otherwise.
BACKEND_CHOICES = ("auto", "serial", "pool", "filestore")


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
        Print progress status lines on stderr.  The run log is written
        either way.
    log_dir:
        Directory for run logs and adaptive audits (default:
        ``results/cache/runs``).
    backend:
        Execution backend (see :mod:`repro.exec.backends`): ``auto``
        (serial for one worker, process pool otherwise), ``serial``,
        ``pool`` (one process-wide ``ProcessPoolExecutor`` of ``workers``
        processes, kept up across campaigns), or ``filestore``
        (cooperating launchers over the cell directory).
    adaptive:
        Optional :class:`~repro.exec.adaptive.AdaptivePolicy`.  When set,
        :func:`~repro.exec.adaptive.replicate_cells` — and so
        ``replicate``, ``sweep``, every replicated figure and DSE
        evaluation — stops buying seeds for cells whose confidence
        interval is already tight.  ``None`` (default) keeps the
        fixed-budget behaviour byte-identical to before.
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
    adaptive: "AdaptivePolicy | None" = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be ≥ 1, got {self.workers}")
        if self.retries < 0:
            raise ValueError(f"retries must be ≥ 0, got {self.retries}")
        if self.task_timeout_s is not None and not (
            0 < self.task_timeout_s < math.inf
        ):
            raise ValueError(
                "task_timeout_s must be positive and finite, or None; "
                f"got {self.task_timeout_s}"
            )
        if self.backend not in BACKEND_CHOICES:
            raise ValueError(
                f"backend must be one of {BACKEND_CHOICES}, got {self.backend!r}"
            )

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


def configure(base: ExecPolicy | None = None, /, **overrides) -> ExecPolicy:
    """Replace the process-wide default policy by ``base`` (if given) with
    ``overrides`` applied; returns it."""
    global _default_policy
    _default_policy = replace(base or _default_policy, **overrides)
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


def add_exec_args(parser: Any) -> None:
    """Add the execution flags every CLI shares to an argparse parser:
    ``--workers --task-timeout --retries --backend --adaptive``."""
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for simulation cells (default 1 = serial)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="S",
        help="wall-clock budget per simulation cell (default: unlimited)",
    )
    parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="re-attempts per failed/timed-out cell (default 1)",
    )
    parser.add_argument(
        "--backend", choices=BACKEND_CHOICES, default="auto",
        help="execution backend (auto = serial at --workers 1, else pool)",
    )
    parser.add_argument(
        "--adaptive", default=None, metavar="METRIC:HW[:MIN_REPS]",
        help="stop replicating a cell once METRIC's 95%% CI half-width "
             "is ≤ HW (e.g. pdr:0.01:3); seed counts become budgets",
    )


def policy_from_args(parser: Any, args: Any) -> ExecPolicy:
    """The process-wide policy with the :func:`add_exec_args` flags applied.

    Progress status lines turn on with more than one worker.  A bad value
    exits with status 2 through ``parser.error``.
    """
    from repro.exec.adaptive import parse_adaptive_spec

    try:
        return replace(
            current_policy(),
            workers=args.workers,
            task_timeout_s=args.task_timeout,
            retries=args.retries,
            backend=args.backend,
            adaptive=parse_adaptive_spec(args.adaptive) if args.adaptive else None,
            progress=args.workers > 1,
        )
    except ValueError as exc:
        parser.error(str(exc))
        raise  # unreachable: parser.error exits
