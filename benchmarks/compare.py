#!/usr/bin/env python
"""Diff two benchmark records (``BENCH_*.json``) and gate the candidate.

This is the one reader and the one gate of the repo's benchmark records
(the envelope is defined in ``record.py``).  For every kernel with a
``wall_s`` in **both** records it prints old/new wall time and the wall
ratio (new / old, so >1.0 means the candidate is slower), plus throughput
where both sides report the same ``*_per_s`` key.  Derived ratios are
compared side by side.

Gates::

    --fail-above 1.25        exit 1 if any shared kernel's wall ratio
                             exceeds 1.25; applied only when both records
                             come from the same CPU model (wall times are
                             meaningless across machines)
    --min-derived KEY:VAL    exit 1 if the candidate's derived ratio KEY
                             is missing or below VAL (repeatable); on any CPU
    (always)                 exit 1 if a derived ratio lost more than
                             RATIO_DROP (40%) against the baseline's; on
                             any CPU, since the ratios are dimensionless

The wall and ratio-drop gates compare like with like: they need both
records in the same ``quick`` mode.

Two ``perfbench`` records (``record.py`` wraps perfbench runs) are only
printed, never gated: per workload and end-to-end metric, the median and
quartiles over each record's untraced runs (every run contributes its
own per-run median), and the ratio of the new median to the old one.

``old`` may also be a *directory* (e.g. the repo root): the newest
``BENCH_*.json`` in it of the candidate's kind and ``quick`` mode is
picked automatically — which is how CI diffs a fresh rerun against
whatever baseline the tree ships without hard-coding a revision.

Usage::

    python benchmarks/compare.py BENCH_old.json BENCH_new.json \
        [--fail-above 1.25] [--min-derived sinr_slot_speedup:3.0]
    python benchmarks/compare.py . /tmp/BENCH_ci-quick.json --fail-above 1.6
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

try:  # imported from the benchmarks package (the tests)
    from benchmarks.record import load as load_record
except ImportError:  # run as a script: benchmarks/ is sys.path[0]
    from record import load as load_record

#: Largest fraction a derived ratio may lose against the baseline.  Ratios
#: quotient two noisy timings, so they get a wider gate than wall clocks.
RATIO_DROP = 0.4


def newest_baseline(directory: Path, new: dict, new_path: Path) -> Path:
    """Newest comparable ``BENCH_*.json`` in ``directory`` (auto-old mode).

    Comparable means: the candidate's kind and ``quick`` mode, and not the
    candidate file itself.  Newest is by the embedded ``generated_utc``
    stamp, not file mtime, so fresh checkouts behave.
    """
    candidates: list[tuple[str, Path]] = []
    for path in directory.glob("BENCH_*.json"):
        if path.resolve() == new_path.resolve():
            continue
        data = load_record(path)
        if data["kind"] != new["kind"] or data["quick"] != new["quick"]:
            continue
        candidates.append((data["generated_utc"] or "", path))
    if not candidates:
        raise SystemExit(
            f"no comparable BENCH_*.json found in {directory} "
            f"(kind={new['kind']}, quick={new['quick']})"
        )
    return max(candidates)[1]


def _throughput(entry: dict) -> tuple[str, float] | None:
    for key, val in entry.items():
        if key.endswith("_per_s"):
            return key, val
    return None


def _timed(record: dict) -> dict:
    return {k: v for k, v in record["kernels"].items() if "wall_s" in v}


def compare(
    old: dict, new: dict, fail_above: float | None,
    min_derived: dict[str, float],
) -> list[str]:
    """Print the comparison table; return the failure messages."""
    failures: list[str] = []
    same_cpu = old["cpu"] == new["cpu"] and old["cpu"]
    same_mode = old["quick"] == new["quick"]
    for tag, rec in (("old", old), ("new", new)):
        print(f"{tag}: {rec['kind']} rev {rec['rev']}  quick={rec['quick']}  "
              f"({rec['generated_utc']})")
    if not same_cpu:
        print("different CPU models — wall-ratio gate skipped")
    if not same_mode:
        print("WARNING: records use different --quick modes; wall and "
              "derived ratios compare different workload sizes, not gated")

    old_k, new_k = _timed(old), _timed(new)
    print(f"\n{'kernel':<24}{'old wall':>12}{'new wall':>12}{'ratio':>8}"
          f"{'throughput':>24}")
    for name in (k for k in new_k if k in old_k):
        o, n = old_k[name], new_k[name]
        ratio = n["wall_s"] / o["wall_s"]
        tp = ""
        ot, nt = _throughput(o), _throughput(n)
        if ot and nt and ot[0] == nt[0]:
            tp = f"{ot[1]:,.0f} → {nt[1]:,.0f}"
        print(f"{name:<24}{o['wall_s']:>12.4f}{n['wall_s']:>12.4f}"
              f"{ratio:>7.2f}x{tp:>24}")
        if fail_above is not None and same_cpu and same_mode \
                and ratio > fail_above:
            failures.append(
                f"{name}: wall ratio {ratio:.2f}x exceeds {fail_above:.2f}x"
            )
    for name in sorted(set(old_k) - set(new_k)):
        print(f"{name:<24}{old_k[name]['wall_s']:>12.4f}{'--':>12}{'gone':>8}")
    for name in sorted(set(new_k) - set(old_k)):
        print(f"{name:<24}{'--':>12}{new_k[name]['wall_s']:>12.4f}{'new':>8}")

    old_derived, new_derived = old["derived"], new["derived"]
    if old_derived or new_derived:
        print(f"\n{'derived ratio':<24}{'old':>12}{'new':>12}")
        for name in sorted(set(old_derived) | set(new_derived)):
            o = old_derived.get(name)
            n = new_derived.get(name)
            ostr = f"{o:.2f}x" if o is not None else "--"
            nstr = f"{n:.2f}x" if n is not None else "--"
            print(f"{name:<24}{ostr:>12}{nstr:>12}")
            if same_mode and o is not None and n is not None \
                    and n < o * (1.0 - RATIO_DROP):
                failures.append(
                    f"derived ratio {name}: {o:.2f}x → {n:.2f}x "
                    f"(lost >{RATIO_DROP:.0%})"
                )
    for key, floor in min_derived.items():
        val = new_derived.get(key)
        if val is None:
            failures.append(f"derived ratio {key!r} missing from new record")
        elif val < floor:
            failures.append(
                f"derived ratio {key}: {val:.2f}x below floor {floor:.2f}x"
            )
    return failures


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values`` (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _run_values(record: dict) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric)`` → the values of a perfbench record's
    untraced runs, in run order; ``failed_frac`` counts as a metric."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in record["detail"]["runs"]:
        values = {k: m["value"] for k, m in run["metrics"].items()}
        values["failed_frac"] = run["failed_frac"]
        for name, value in values.items():
            out.setdefault((run["workload"], name), []).append(value)
    return out


def compare_runs(old: dict, new: dict) -> None:
    """Print the end-to-end metrics of two perfbench records side by side."""
    for tag, rec in (("old", old), ("new", new)):
        revs = sorted({run["rev"] for run in rec["detail"]["runs"]})
        print(f"{tag}: perfbench rev {rec['rev']}  source revs "
              f"{', '.join(revs) or '--'}  ({rec['generated_utc']})")
    old_v, new_v = _run_values(old), _run_values(new)
    print(f"\n{'workload':<11}{'metric':<13}{'n':>7}"
          f"{'old median [q1, q3]':>32}{'new median [q1, q3]':>32}"
          f"{'ratio':>8}")
    for key in sorted(set(old_v) | set(new_v)):
        cols, medians = [], []
        for side in (old_v, new_v):
            values = side.get(key)
            if not values:
                cols.append(f"{'--':>32}")
                continue
            q1, med, q3 = quartiles(values)
            medians.append(med)
            cols.append(f"{f'{med:.4g} [{q1:.4g}, {q3:.4g}]':>32}")
        counts = "/".join(str(len(side.get(key, []))) for side in (old_v, new_v))
        ratio = (f"{medians[1] / medians[0]:.3f}x"
                 if len(medians) == 2 and medians[0] else "--")
        print(f"{key[0]:<11}{key[1]:<13}{counts:>7}{cols[0]}{cols[1]}"
              f"{ratio:>8}")
    print("\nratio = new median / old median (base: the old median); "
          "n = old/new runs")


def _parse_min_derived(specs: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for spec in specs:
        key, sep, val = spec.partition(":")
        if not sep or not key:
            raise SystemExit(
                f"--min-derived expects KEY:VALUE, got {spec!r}")
        try:
            out[key] = float(val)
        except ValueError:
            raise SystemExit(
                f"--min-derived {spec!r}: {val!r} is not a number")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old", type=Path,
                    help="baseline BENCH_*.json, or a directory to "
                         "auto-pick the newest comparable record from")
    ap.add_argument("new", type=Path, help="candidate BENCH_*.json")
    ap.add_argument("--fail-above", type=float, default=None, metavar="R",
                    help="exit 1 if any shared kernel's wall ratio "
                         "(new/old) exceeds R on the same CPU")
    ap.add_argument("--min-derived", action="append", default=[],
                    metavar="KEY:VAL",
                    help="exit 1 if the new record's derived ratio KEY "
                         "is below VAL (repeatable)")
    args = ap.parse_args(argv)

    new = load_record(args.new)
    old_path = args.old
    if old_path.is_dir():
        old_path = newest_baseline(old_path, new, args.new)
        print(f"auto-picked baseline: {old_path}")
    old = load_record(old_path)
    if old["kind"] != new["kind"]:
        raise SystemExit(
            f"cannot compare a {old['kind']} record with a {new['kind']} one")
    if new["kind"] == "perfbench":
        if args.fail_above is not None or args.min_derived:
            raise SystemExit("perfbench records are printed, not gated")
        compare_runs(old, new)
        return 0
    failures = compare(old, new, args.fail_above,
                       _parse_min_derived(args.min_derived))
    if failures:
        print("\nFAILURES:")
        for msg in failures:
            print(f"  - {msg}")
        return 1
    print("\nOK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
