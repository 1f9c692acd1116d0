"""Parallel campaign executor for embarrassingly parallel sweeps.

Every reconstructed figure is a grid of independent ``(ScenarioConfig,
seed)`` cells whose results are aggregated afterwards.  This package turns
such a grid into a :class:`Campaign` of deterministic, content-addressed
:class:`Task`\\ s and executes it under an :class:`ExecPolicy`:

* ``workers=1`` (the default) runs cells in-process, in task order —
  bit-identical to the historical serial loops, so seed tests and
  determinism guarantees are untouched.
* ``workers>1`` fans cells out over one process-wide
  ``ProcessPoolExecutor`` that stays up across campaigns, with per-task
  wall-clock timeouts, bounded retry with backoff, and worker-crash
  isolation (a dead or hung cell is recorded as failed and the campaign
  continues).
* Completed cells are checkpointed one file each under
  ``results/cache/cells/`` so an interrupted campaign resumes from what
  finished instead of recomputing the whole sweep.
* Every campaign writes a run log on the trace line protocol (one
  ``task_done`` record per cell, failures included); progress lines
  (completed/failed, ETA, simulated events/s) stream to stderr on request.

Because each cell is simulated from its own seed in a fresh engine, the
aggregate of a parallel campaign is byte-identical to the serial one —
results are reassembled in task order, never completion order.

Execution is pluggable (:mod:`repro.exec.backends`): beyond the shared
process pool there is a coordinator-free *filestore* backend where N
independent launcher processes cooperate over the content-addressed cell
directory via atomic claim files (kill-safe: stale claims from dead
launchers are swept).  Pool workers keep the environment they were forked
with: call :func:`shutdown_shared_pools` after changing ``REPRO_*``
variables that cells should see.

Every replicated cell — ``replicate()``, ``sweep()``, the figures, DSE
evaluation — goes through :func:`replicate_cells`
(:mod:`repro.exec.adaptive`), the only code that builds the ``seed + k``
ladder.  With ``ExecPolicy(adaptive=...)`` it adds sequential-statistics
early stopping: campaigns declare a metric + CI half-width and stop
buying seeds for cells that already converged, with every stop decision
audit-logged.

Quickstart::

    from repro.exec import ExecPolicy, run_configs, shutdown_shared_pools

    results = run_configs("my-sweep", configs, ExecPolicy(workers=4))
    results = run_configs("again", configs, ExecPolicy(workers=4))  # same workers
    shutdown_shared_pools()  # e.g. after changing REPRO_* variables

or process-wide (the experiments CLI does this for ``--workers``)::

    from repro.exec import configure

    configure(workers=4, resume=True)
"""

from repro.exec.adaptive import (
    AdaptiveDecision,
    AdaptivePolicy,
    AdaptiveReport,
    parse_adaptive_spec,
    replicate_cells,
)
from repro.exec.backends import (
    BACKENDS,
    Backend,
    ClaimStore,
    FileStoreBackend,
    PoolBackend,
    SerialBackend,
    make_backend,
    shutdown_shared_pools,
)
from repro.exec.checkpoint import CHECKPOINT_SCHEMA, CheckpointStore
from repro.exec.policy import ExecPolicy, configure, current_policy, using
from repro.exec.progress import ProgressReporter
from repro.exec.scheduler import (
    CampaignExecutor,
    CampaignResult,
    TaskOutcome,
    run_configs,
)
from repro.exec.task import Campaign, Task

__all__ = [
    "BACKENDS",
    "CHECKPOINT_SCHEMA",
    "AdaptiveDecision",
    "AdaptivePolicy",
    "AdaptiveReport",
    "Backend",
    "Campaign",
    "CampaignExecutor",
    "CampaignResult",
    "CheckpointStore",
    "ClaimStore",
    "ExecPolicy",
    "FileStoreBackend",
    "PoolBackend",
    "ProgressReporter",
    "SerialBackend",
    "Task",
    "TaskOutcome",
    "configure",
    "current_policy",
    "make_backend",
    "parse_adaptive_spec",
    "replicate_cells",
    "run_configs",
    "shutdown_shared_pools",
    "using",
]
