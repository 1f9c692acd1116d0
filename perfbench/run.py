"""Benchmark of the NLR simulator as the figures and campaigns run it.

Run from the repository root::

    python3 perfbench/run.py --workload discovery --seed 1 --seconds 45 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``discovery`` and
``campaign``.  ``--trace 0`` measures the end-to-end
metrics listed in ``BENCHMARK.json``; ``--trace 1`` is the separate
traced run that reports the per-layer metrics.  Every metric is printed
by name with its unit and sample count, then the run record (source
revision, CPU, cores, versions, seed, digests) as one JSON line, and last
the result line ``{"correct", "attempted", "failed", "metrics"}``.

The set-up time is measured in fresh processes (``SETUP_PROBES`` of them,
median reported) and the workload itself runs in one more process, so
set-up and peak RSS are per workload.  Simulator caches and logs go to
temporary directories under ``.perfbench/tmp``, never to ``results/``.
Digests of every scenario are kept per source revision in
``.perfbench/digests-<rev>.json``; a later run of the same source that
disagrees with them fails its output check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

#: Fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 5
#: Every run ends (or is abandoned) this many seconds after it started.
RUN_LIMIT_S = 170.0


def source_rev() -> str:
    """Content hash of the simulator sources (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def setup_time(workload: str, seed: int, env: dict, timeout: float) -> float:
    """Seconds from process start to the workload's first event."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "session.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout,
        check=True, text=True,
    )
    return float(done.stdout.strip().splitlines()[-1]) - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    rev = source_rev()
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE / "tmp"))
    env = {
        **os.environ,
        "REPRO_CACHE_DIR": str(tmp / "cache"),
        "REPRO_OBS_DIR": str(tmp / "obs"),
    }
    out = tmp / "session.json"
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(setup_time(args.workload, args.seed, env, 60.0))
        subprocess.run(
            [sys.executable, str(HERE / "session.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--digests", str(STATE / f"digests-{rev}.json"), "--out", str(out)],
            cwd=ROOT, env=env, stdout=sys.stderr, check=True,
            timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started)),
        )
        report = json.loads(out.read_text())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    measured = report["metrics"]
    if setups:
        measured["setup_s"] = {"value": median(setups), "n": len(setups)}
    names = [m["name"] for m in wanted]
    if sorted(measured) != sorted(names):
        print(f"perfbench: metrics {sorted(measured)} do not match "
              f"BENCHMARK.json {sorted(names)}", file=sys.stderr)
        return 3
    metrics = {
        m["name"]: {"value": measured[m["name"]]["value"], "unit": m["unit"]}
        for m in wanted
    }
    attempted, failed = report["attempted"], report["failed"]
    correct = failed == 0 and not report["problems"] and attempted > 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rev": rev,
        "cpu": cpu_model(),
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": report["numpy"],
        "metrics": {
            name: {**metrics[name], "n": measured[name]["n"]} for name in names
        },
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": report["problems"],
        "digests": report["digests"],
    }
    records = STATE / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (records / f"{stem}.json").write_text(
        json.dumps(
            {**record, "samples": report["samples"], "spans": report["spans"]},
            indent=1,
        )
    )

    for name in names:
        m = record["metrics"][name]
        print(f"{name:28s} {m['value']:>14.6g} {m['unit']:8s} n={m['n']}")
    print(f"{'failed_frac':28s} {record['failed_frac']:>14.6g} {'ratio':8s} "
          f"n={attempted}")
    for problem in report["problems"]:
        print(f"output check failed: {problem}")
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
