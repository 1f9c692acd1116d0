#!/usr/bin/env python
"""The one envelope of every ``BENCH_*.json``: its writer and its reader.

Every committed benchmark record is one JSON object with these fields:

``schema``
    :data:`SCHEMA`.
``kind``
    What produced it: ``baseline`` (``baseline.py``),
    ``adaptive-campaign``, ``obs-overhead``, ``dse-pruning`` (the
    ``bench_*.py`` script of that name) or ``perfbench`` (this script).
``rev``, ``generated_utc``, ``cpu``, ``cores``, ``python``, ``numpy``, ``quick``
    Where and how it was measured.  ``None`` where the producer did not
    record it (older records) or it does not apply (``quick`` for
    perfbench runs).
``kernels``
    Kernel name → measurements; ``wall_s`` is the one ``compare.py``
    gates on the same CPU.
``derived``
    Dimensionless higher-is-better ratios, comparable across machines.
``layers``
    Perfbench workload → its traced run (per-layer metrics).
``detail``
    Payload specific to one kind.

Run as a script, it wraps perfbench run records (``.perfbench/records/*.json``,
untraced runs and traced ones alike) into one ``perfbench`` record: each
traced run becomes ``layers[workload]``, the untraced runs are listed in
order under ``detail["runs"]``.  Each run is kept as ``perfbench/run.py``
prints it (its per-sample values and function spans are dropped)::

    python benchmarks/record.py --rev LABEL --out BENCH_LABEL.json \\
        RUN.json [RUN.json ...]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 2
#: Facts about the measuring host; :func:`envelope` fills them in.
HOST_FIELDS = ("generated_utc", "cpu", "cores", "python", "numpy")
FIELDS = ("schema", "kind", "rev", *HOST_FIELDS, "quick",
          "kernels", "derived", "layers", "detail")


def cpu_model() -> str:
    """CPU model string for the wall-clock comparability check.

    ``platform.processor()`` is often empty on Linux and ``machine()`` is
    just "x86_64", which would wrongly treat all machines as comparable.
    """
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except Exception:
        return "local"


def host() -> dict:
    """This process's values of :data:`HOST_FIELDS`."""
    import numpy as np

    return {
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        "cpu": cpu_model(),
        "cores": available_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def envelope(
    kind: str, rev: str, quick: bool | None, *, kernels: dict | None = None,
    derived: dict | None = None, layers: dict | None = None,
    detail: dict | None = None, **facts,
) -> dict:
    """One record; ``facts`` override :func:`host` field by field."""
    unknown = set(facts) - set(HOST_FIELDS)
    if unknown:
        raise TypeError(f"not envelope host fields: {sorted(unknown)}")
    return {
        "schema": SCHEMA, "kind": kind, "rev": rev, "quick": quick,
        **host(), **facts,
        "kernels": kernels or {}, "derived": derived or {},
        "layers": layers or {}, "detail": detail or {},
    }


def write(record: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return path


def load(path: Path) -> dict:
    """Read one record; exit with a message unless it is an envelope."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    if not isinstance(data, dict) or data.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: not a schema-{SCHEMA} BENCH record")
    missing = [f for f in FIELDS if f not in data]
    if missing:
        raise SystemExit(f"{path}: record lacks {', '.join(missing)}")
    return data


def perfbench(runs: list[dict], rev: str) -> dict:
    """Wrap perfbench run records (in the order given) into one record."""
    layers: dict[str, dict] = {}
    untraced = []
    for run in runs:
        run = {k: v for k, v in run.items() if k not in ("samples", "spans")}
        if not run["trace"]:
            untraced.append(run)
        elif run["workload"] in layers:
            raise SystemExit(f"two traced runs of {run['workload']}")
        else:
            layers[run["workload"]] = run
    facts = {(r["cpu"], r["cores"], r["python"], r["numpy"]) for r in runs}
    if len(facts) != 1:
        raise SystemExit(f"runs come from different hosts: {sorted(facts)}")
    cpu, cores, python, numpy = facts.pop()
    return envelope(
        "perfbench", rev, None, layers=layers, detail={"runs": untraced},
        cpu=cpu, cores=cores, python=python, numpy=numpy,
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Wrap perfbench run records "
                                             "into one BENCH record.")
    ap.add_argument("runs", type=Path, nargs="+",
                    help="perfbench run records (.perfbench/records/*.json)")
    ap.add_argument("--rev", required=True, help="record label")
    ap.add_argument("--out", type=Path, required=True, help="output file")
    args = ap.parse_args(argv)
    runs = [json.loads(p.read_text()) for p in args.runs]
    write(perfbench(runs, args.rev), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
