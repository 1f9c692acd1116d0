"""Campaign scheduler: resume, retry rounds and crash budgets.

The :class:`CampaignExecutor` runs a :class:`~repro.exec.task.Campaign`
under an :class:`~repro.exec.policy.ExecPolicy`.  Cells run in retry
*rounds*, in-process at ``workers == 1`` and on the shared process pool
otherwise (see :mod:`repro.exec.backends`).  Failure containment is
layered: simulation errors and wall-clock timeouts are returned as
structured failures by the worker (retried with exponential backoff up
to ``retries`` times); hard process death is reported by the pool as a
*crash suspect* under a separate, small crash budget, so one poisoned
cell cannot sink its innocent neighbours, yet a cell that kills every
worker it touches is eventually recorded as failed and the campaign
completes without it.

Completed cells are checkpointed per-task (see
:mod:`repro.exec.checkpoint`); with ``resume=True`` they are loaded
instead of recomputed.  Every campaign writes a run log
(:mod:`repro.exec.progress`); a cell that ends up *failed* is its
``task_done`` record there, with its full error, so a post-mortem never
depends on scrollback.  Outcomes are always reassembled in task order,
so parallel aggregates are byte-identical to serial ones.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Sequence

from repro.exec.backends import run_pool, run_serial
from repro.exec.checkpoint import CheckpointStore
from repro.exec.policy import ExecPolicy, current_policy
from repro.exec.progress import ProgressReporter
from repro.exec.task import Campaign, Task
from repro.experiments.runner import ScenarioResult
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.serialization import result_from_dict, result_to_dict

__all__ = [
    "CampaignExecutor",
    "CampaignResult",
    "TaskOutcome",
    "run_configs",
]


@dataclass(slots=True)
class TaskOutcome:
    """What happened to one task.

    ``status`` is ``"ok"`` or ``"failed"``; ``source`` says whether the
    result came from a fresh ``"run"`` or a ``"checkpoint"``; ``kind``
    classifies failures (``"error"``, ``"timeout"``, ``"crash"``).
    """

    task: Task
    status: str
    source: str = "run"
    result: ScenarioResult | None = None
    error: str | None = None
    kind: str | None = None
    attempts: int = 1
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class CampaignResult:
    """Outcomes of a finished campaign, in task order."""

    def __init__(
        self, campaign: Campaign, outcomes: list[TaskOutcome], wall_s: float
    ) -> None:
        self.campaign = campaign
        self.outcomes = outcomes
        self.wall_s = wall_s

    @property
    def ok(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def failed(self) -> int:
        return len(self.outcomes) - self.ok

    @property
    def failures(self) -> list[TaskOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def results(self, strict: bool = True) -> list[ScenarioResult]:
        """Results in task order; raises on any failure when ``strict``."""
        if strict and self.failed:
            lines = [
                f"  {o.task.describe()}: [{o.kind}] "
                f"{(o.error or '').strip().splitlines()[-1] if o.error else '?'}"
                for o in self.failures[:5]
            ]
            raise RuntimeError(
                f"campaign {self.campaign.name!r}: {self.failed} of "
                f"{len(self.outcomes)} tasks failed:\n" + "\n".join(lines)
            )
        return [o.result for o in self.outcomes if o.ok]


class CampaignExecutor:
    """Runs campaigns under a policy; see module docstring."""

    def __init__(
        self,
        policy: ExecPolicy | None = None,
        store: CheckpointStore | None = None,
        reporter: ProgressReporter | None = None,
    ) -> None:
        self.policy = policy
        self.store = store
        self.reporter = reporter

    # ------------------------------------------------------------------ #
    def run(self, campaign: Campaign) -> CampaignResult:
        policy = self.policy if self.policy is not None else current_policy()
        store = self.store
        if store is None and policy.wants_checkpoint:
            store = CheckpointStore()
        reporter = self.reporter or ProgressReporter(
            stream=sys.stderr if policy.progress else None
        )

        t0 = time.monotonic()
        reporter.campaign_started(campaign, policy)

        outcomes: dict[int, TaskOutcome] = {}

        def record(index: int, outcome: TaskOutcome) -> None:
            outcomes[index] = outcome
            if outcome.ok and outcome.source == "run" and store is not None:
                # Reserialising the reconstructed result is exact
                # (shortest-repr floats round-trip).
                store.store(outcome.task.task_id, result_to_dict(outcome.result))
            reporter.task_finished(outcome)

        # Resume pass: completed cells load instead of recomputing.
        pending: list[int] = []
        for i, task in enumerate(campaign.tasks):
            payload = store.load(task.task_id) if (policy.resume and store) else None
            if payload is not None:
                record(
                    i,
                    TaskOutcome(
                        task=task,
                        status="ok",
                        source="checkpoint",
                        result=result_from_dict(payload),
                        attempts=0,
                    ),
                )
            else:
                pending.append(i)

        if pending:
            self._run_rounds(campaign, pending, policy, record)

        ordered = [outcomes[i] for i in range(len(campaign.tasks))]
        result = CampaignResult(campaign, ordered, time.monotonic() - t0)
        reporter.campaign_finished(result)
        return result

    # ------------------------------------------------------------------ #
    def _run_rounds(self, campaign, pending, policy, record) -> None:
        run_batch = run_pool if policy.workers > 1 else run_serial
        # Crash containment: the pool cannot attribute a hard
        # worker death to one cell (the whole stdlib pool breaks), so it
        # reports every unfinished in-flight cell as a *suspect*.  Suspects
        # re-run one per single-task batch, alone on the shared pool, so a
        # poisoned cell can only break the pool under itself.  A cell that
        # crashes ``crash_limit`` times (once shared, then solo) is
        # recorded as failed; innocents complete on their first solo
        # run.  Only the pool reports suspects.
        crash_limit = max(2, policy.retries + 1)
        queue: list[tuple[int, int, int]] = [(i, 1, 0) for i in pending]
        round_no = 0
        while queue:
            if round_no and policy.backoff_s > 0:
                time.sleep(min(policy.backoff_s * (2 ** (round_no - 1)), 30.0))
            round_no += 1
            batch, queue = queue, []
            retry: list[tuple[int, int, int]] = []

            def absorb(index: int, attempt: int, crashes: int, out: dict) -> None:
                task = campaign.tasks[index]
                if out["ok"]:
                    record(index, self._ok_outcome(task, out, attempt))
                elif attempt <= policy.retries:
                    retry.append((index, attempt + 1, crashes))
                else:
                    record(index, self._fail_outcome(task, out, attempt))

            def crashed(index: int, attempt: int, crashes: int) -> None:
                crashes += 1
                if crashes >= crash_limit:
                    record(
                        index,
                        TaskOutcome(
                            task=campaign.tasks[index],
                            status="failed",
                            kind="crash",
                            error=(
                                "worker process died repeatedly "
                                f"({crashes}×) while running this task"
                            ),
                            attempts=attempt,
                        ),
                    )
                else:
                    retry.append((index, attempt, crashes))

            fresh = [e for e in batch if e[2] == 0]
            suspects = [e for e in batch if e[2] > 0]
            if fresh:
                run_batch(campaign, fresh, policy, absorb, crashed)
            for entry in suspects:
                run_batch(campaign, [entry], policy, absorb, crashed)
            queue = retry

    # ------------------------------------------------------------------ #
    @staticmethod
    def _ok_outcome(task: Task, out: dict, attempt: int) -> TaskOutcome:
        return TaskOutcome(
            task=task,
            status="ok",
            result=result_from_dict(out["result"]),
            attempts=attempt,
            duration_s=out.get("duration_s", 0.0),
        )

    @staticmethod
    def _fail_outcome(task: Task, out: dict, attempt: int) -> TaskOutcome:
        return TaskOutcome(
            task=task,
            status="failed",
            kind=out.get("kind", "error"),
            error=out.get("error"),
            attempts=attempt,
            duration_s=out.get("duration_s", 0.0),
        )


def run_configs(
    name: str,
    configs: Sequence[ScenarioConfig],
    policy: ExecPolicy | None = None,
    reporter: ProgressReporter | None = None,
    tags: Sequence[str] | None = None,
) -> list[ScenarioResult]:
    """Execute ready-made configs as one campaign; results in input order.

    The one-call entry point the figure sweeps use: policy defaults to the
    process-wide :func:`~repro.exec.policy.current_policy` (which the CLI
    configures from ``--workers``), and any failed cell raises with a
    summary of what went wrong.
    """
    campaign = Campaign.from_configs(name, configs, tags=tags)
    executor = CampaignExecutor(policy=policy, reporter=reporter)
    return executor.run(campaign).results()
