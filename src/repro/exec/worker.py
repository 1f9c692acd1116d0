"""Worker-side task execution: payload in, structured outcome out.

:func:`execute_payload` is the single entry point a pool worker (or the
serial path — same code, same semantics) runs for one task.  It never
raises for *task* problems: simulation errors and wall-clock timeouts come
back as structured failure dicts so the scheduler can retry or record them
without tearing the pool down.  Only genuine process death (segfault,
``os._exit``) surfaces as a broken pool, which the scheduler isolates.

Timeouts use ``SIGALRM``/``setitimer``: each pool worker is a
single-threaded process, so the alarm interrupts the simulation loop at
the next bytecode boundary.  On platforms without ``SIGALRM`` (or off the
main thread) the limit is simply not enforced.

Chaos hook: set ``REPRO_EXEC_FAULT=exit:<seed>`` (hard process death) or
``hang:<seed>`` (never returns) to make the worker misbehave for exactly
that seed — this is how the crash-isolation tests and the resumability
demo kill a worker mid-campaign deterministically.  The *once* variants
``error_once:<seed>:<dir>`` and ``hang_once:<seed>:<dir>`` misbehave only
on the first attempt (a marker file in ``<dir>`` records that the fault
fired), which is how retry-after-failure and retry-after-timeout ordering
are exercised across process boundaries.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from typing import Any, Iterator

from repro.experiments.runner import run_scenario
from repro.experiments.serialization import (
    config_from_dict,
    config_to_dict,
    result_to_dict,
)

__all__ = ["make_payload", "execute_payload", "watch_parent"]

#: Environment variable enabling deterministic fault injection (see above).
FAULT_ENV = "REPRO_EXEC_FAULT"


def watch_parent(parent_pid: int, poll_s: float = 1.0) -> None:
    """Pool-worker initializer: die when the orchestrating process does.

    A ``ProcessPoolExecutor`` worker blocks on its call queue forever if
    the parent is SIGKILLed mid-campaign — sibling workers hold the
    queue pipe's write end open, so no EOF ever arrives.  A daemon
    thread polling ``os.getppid()`` turns those would-be orphans into
    immediate exits; abandoning the in-flight cell loses nothing, since
    checkpoints are written by the (now dead) parent.
    """

    def _watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(poll_s)
        os._exit(0)

    threading.Thread(target=_watch, name="parent-watchdog", daemon=True).start()


class _TaskTimeout(Exception):
    """Raised inside the worker when the per-task wall-clock budget expires."""


@contextmanager
def _deadline(timeout_s: float | None) -> Iterator[None]:
    """Enforce a wall-clock budget via SIGALRM where possible."""
    usable = (
        timeout_s is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    fired = False

    def _on_alarm(signum, frame):
        nonlocal fired
        fired = True
        raise _TaskTimeout

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
        if fired:
            # The alarm landed in a finalizer (``__del__``, a weakref
            # callback), where Python prints and swallows the exception.
            raise _TaskTimeout
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _maybe_inject_fault(seed: int) -> None:
    spec = os.environ.get(FAULT_ENV, "")
    if not spec:
        return
    kind, _, rest = spec.partition(":")
    target, _, arg = rest.partition(":")
    if target != str(seed):
        return
    if kind == "exit":
        os._exit(13)  # simulates a segfaulted worker: no cleanup, no result
    if kind == "hang":
        time.sleep(3600.0)
    if kind in ("error_once", "hang_once"):
        # One-shot faults coordinate across processes via a marker file in
        # the directory given as the third spec field: O_EXCL creation
        # means exactly one attempt — the first — sees the fault.
        marker = os.path.join(arg, f"fault-{kind}-{seed}.fired")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
        except FileExistsError:
            return  # already fired: behave normally on this attempt
        if kind == "error_once":
            raise RuntimeError(f"injected one-shot error for seed {seed}")
        time.sleep(3600.0)


def make_payload(config_dict: dict[str, Any], timeout_s: float | None) -> dict[str, Any]:
    """Self-contained, picklable work order for one task."""
    return {"config": config_dict, "timeout_s": timeout_s}


def payload_for_config(config, timeout_s: float | None) -> dict[str, Any]:
    """Convenience: build a payload straight from a ScenarioConfig."""
    return make_payload(config_to_dict(config), timeout_s)


def execute_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Run one task; return a structured ok/failure dict (never raises).

    Ok: ``{"ok": True, "result": <result dict>, "duration_s": …}``.
    Failure: ``{"ok": False, "kind": "timeout"|"error", "error": …,
    "duration_s": …}``.
    """
    t0 = time.perf_counter()
    try:
        config = config_from_dict(payload["config"])
        with _deadline(payload.get("timeout_s")):
            _maybe_inject_fault(config.seed)
            result = run_scenario(config)
        return {
            "ok": True,
            "result": result_to_dict(result),
            "duration_s": time.perf_counter() - t0,
        }
    except _TaskTimeout:
        return {
            "ok": False,
            "kind": "timeout",
            "error": f"task exceeded {payload.get('timeout_s')} s wall clock",
            "duration_s": time.perf_counter() - t0,
        }
    except Exception:
        return {
            "ok": False,
            "kind": "error",
            "error": traceback.format_exc(limit=10),
            "duration_s": time.perf_counter() - t0,
        }
