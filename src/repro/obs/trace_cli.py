"""``repro-trace``: analyse JSONL trace artifacts from the command line.

Usage::

    repro-trace summary  results/obs/run/trace.jsonl.gz
    repro-trace timeline results/obs/run/trace.jsonl.gz --bin 0.5 --category net
    repro-trace nodes    results/obs/run/trace.jsonl.gz
    repro-trace storms   results/obs/run/trace.jsonl.gz
    repro-trace csv      results/obs/run/trace.jsonl.gz -o trace.csv
    repro-trace validate results/obs/run/trace.jsonl.gz

(or ``python -m repro.obs.trace_cli ...`` without installing the entry
point).  Artifacts are self-describing — ``summary`` reproduces the
run's RREQ and PDR counters from the file alone, using the measurement
window recorded in the header.  Gzip-compressed files (``.gz``) are read
transparently.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import json
import math
import sys
from pathlib import Path
from typing import Any, IO, Iterator

from repro.metrics.asciichart import line_chart
from repro.metrics.timeseries import bin_series
from repro.metrics.summary import format_table
from repro.obs.schema import (
    RECORD_KEYS,
    TRACE_SCHEMA_VERSION,
    validate_trace_line,
)

__all__ = ["main"]


def _open_text(path: Path) -> IO[str]:
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return path.open("r", encoding="utf-8")


def read_lines(path: Path) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield ``(lineno, parsed object)`` for every line of the artifact."""
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            yield lineno, json.loads(line)


def load_trace(
    path: Path,
) -> tuple[dict[str, Any], list[dict[str, Any]], dict[str, Any] | None]:
    """Read one artifact: ``(header, records, footer-or-None)``.

    Raises ``ValueError`` on a missing/unknown-version header so readers
    never misinterpret foreign JSONL.
    """
    header: dict[str, Any] | None = None
    footer: dict[str, Any] | None = None
    records: list[dict[str, Any]] = []
    for lineno, obj in read_lines(path):
        kind = obj.get("kind")
        if lineno == 1:
            if kind != "header" or obj.get("schema") != TRACE_SCHEMA_VERSION:
                raise ValueError(
                    f"{path}: not a v{TRACE_SCHEMA_VERSION} trace artifact "
                    f"(first line: {str(obj)[:80]})"
                )
            header = obj
            continue
        if kind == "footer":
            footer = obj
        elif kind != "header":
            records.append(obj)
    if header is None:
        raise ValueError(f"{path}: empty artifact (no header line)")
    return header, records, footer


# ---------------------------------------------------------------------- #
# Derived quantities
# ---------------------------------------------------------------------- #
def window_of(header: dict[str, Any]) -> tuple[float, float]:
    """The run's measurement window ``[warmup, sim_time)`` from the header."""
    return (
        float(header.get("warmup_s", 0.0)),
        float(header.get("sim_time_s", math.inf)),
    )


def rreq_tx_count(records: list[dict[str, Any]]) -> int:
    """RREQ transmissions: originations plus forwards (the storm size)."""
    return sum(
        1 for r in records if r["ev"] in ("rreq_originate", "rreq_forward")
    )


def pdr_from_trace(
    records: list[dict[str, Any]], window: tuple[float, float]
) -> tuple[int, int, float]:
    """Recompute ``(sent, received, pdr)`` under the collector's rules.

    Only packets *originated* inside the window count, for both tallies;
    duplicate deliveries of the same ``(flow, seq)`` count once.
    """
    lo, hi = window
    sent = 0
    seen: set[tuple[int, int]] = set()
    for r in records:
        if r["cat"] != "app":
            continue
        if r["ev"] == "send":
            if lo <= r["t"] < hi and r.get("flow", -1) >= 0:
                sent += 1
        elif r["ev"] == "deliver":
            flow = r.get("flow", -1)
            created = r.get("created", r["t"])
            if flow < 0 or not lo <= created < hi:
                continue
            key = (flow, r.get("seq", -1))
            if key not in seen:
                seen.add(key)
    received = len(seen)
    return sent, received, (received / sent if sent else 0.0)


# ---------------------------------------------------------------------- #
# Subcommands
# ---------------------------------------------------------------------- #
def cmd_summary(args: argparse.Namespace) -> int:
    header, records, footer = load_trace(args.file)
    window = window_of(header)
    by_cat: dict[str, int] = {}
    by_event: dict[str, int] = {}
    nodes: set[int] = set()
    for r in records:
        by_cat[r["cat"]] = by_cat.get(r["cat"], 0) + 1
        key = f"{r['cat']}/{r['ev']}"
        by_event[key] = by_event.get(key, 0) + 1
        nodes.add(r["node"])
    sent, received, pdr = pdr_from_trace(records, window)

    t_span = (records[0]["t"], records[-1]["t"]) if records else (0.0, 0.0)
    rows = [
        ["protocol", header.get("protocol", "?")],
        ["seed", header.get("seed", "?")],
        ["nodes (header)", header.get("nodes", "?")],
        ["records", len(records)],
        ["time span", f"{t_span[0]:.3f} .. {t_span[1]:.3f} s"],
        ["window", f"[{window[0]:g}, {window[1]:g}) s"],
        ["rreq tx", rreq_tx_count(records)],
        ["sent (window)", sent],
        ["received (window)", received],
        ["pdr", round(pdr, 6)],
    ]
    if footer is not None:
        rows.append(["footer recorded", footer.get("recorded")])
        rows.append(["ring dropped", footer.get("dropped")])
    else:
        rows.append(["footer", "MISSING (truncated artifact?)"])
    print(format_table(["field", "value"], rows, title=str(args.file)))
    print()
    print(
        format_table(
            ["category", "records"],
            [[c, n] for c, n in sorted(by_cat.items())],
            title="records by category",
        )
    )
    top = sorted(by_event.items(), key=lambda kv: (-kv[1], kv[0]))[: args.top]
    print()
    print(
        format_table(
            ["event", "records"],
            [[e, n] for e, n in top],
            title=f"top {len(top)} events",
        )
    )
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    header, records, _ = load_trace(args.file)
    if args.category:
        records = [r for r in records if r["cat"] == args.category]
    if args.event:
        records = [r for r in records if r["ev"] == args.event]
    if not records:
        print("no matching records", file=sys.stderr)
        return 1
    times = [r["t"] for r in records]
    t1 = float(header.get("sim_time_s", max(times)))
    centers, counts = bin_series(
        times, None, bin_s=args.bin, t0=0.0, t1=t1, agg="count"
    )
    label = args.category or "all"
    if args.event:
        label += f"/{args.event}"
    print(
        line_chart(
            centers,
            {label: counts},
            width=args.width,
            height=12,
            title=f"events per {args.bin:g}s bin — {args.file.name}",
            x_label="t (s)",
        )
    )
    return 0


def cmd_nodes(args: argparse.Namespace) -> int:
    _, records, _ = load_trace(args.file)
    per_node: dict[int, dict[str, int]] = {}
    cats: set[str] = set()
    for r in records:
        row = per_node.setdefault(r["node"], {})
        row[r["cat"]] = row.get(r["cat"], 0) + 1
        cats.add(r["cat"])
    cat_list = sorted(cats)
    ranked = sorted(per_node.items(), key=lambda kv: (-sum(kv[1].values()), kv[0]))
    if args.top:
        ranked = ranked[: args.top]
    rows = [
        [node, sum(row.values())] + [row.get(c, 0) for c in cat_list]
        for node, row in ranked
    ]
    title = "records per node"
    if args.top and len(per_node) > args.top:
        title += f" (top {args.top} of {len(per_node)})"
    print(format_table(["node", "total"] + cat_list, rows, title=title))
    return 0


def cmd_storms(args: argparse.Namespace) -> int:
    _, records, _ = load_trace(args.file)
    # One discovery "storm" = one (origin, rreq_id): the origination plus
    # every rebroadcast it triggered across the mesh.
    storms: dict[tuple[int, int], dict[str, Any]] = {}
    forwards_unattributed = 0
    for r in records:
        if r["ev"] == "rreq_originate":
            key = (r["node"], r.get("rreq_id", -1))
            storms[key] = {
                "t": r["t"],
                "origin": r["node"],
                "dst": r.get("dst", "?"),
                "ttl": r.get("ttl", "?"),
                "forwards": 0,
            }
        elif r["ev"] == "rreq_forward":
            key = (r.get("origin", -1), r.get("rreq_id", -1))
            if key in storms:
                storms[key]["forwards"] += 1
            else:
                forwards_unattributed += 1
    if not storms:
        print("no RREQ originations in trace", file=sys.stderr)
        return 1
    ranked = sorted(
        storms.values(), key=lambda s: (-s["forwards"], s["t"])
    )[: args.top]
    rows = [
        [f"{s['t']:.3f}", s["origin"], s["dst"], s["ttl"],
         s["forwards"], 1 + s["forwards"]]
        for s in ranked
    ]
    total_tx = sum(1 + s["forwards"] for s in storms.values())
    print(
        format_table(
            ["t", "origin", "dst", "ttl", "forwards", "total tx"],
            rows,
            title=(
                f"{len(storms)} discovery storms, "
                f"{total_tx + forwards_unattributed} RREQ tx total"
            ),
        )
    )
    if forwards_unattributed:
        print(
            f"({forwards_unattributed} forwards without a traced origination "
            "— category-filtered trace?)"
        )
    return 0


def cmd_csv(args: argparse.Namespace) -> int:
    _, records, _ = load_trace(args.file)
    detail_keys = sorted(
        {k for r in records for k in r if k not in RECORD_KEYS}
    )
    out = args.output.open("w", newline="") if args.output else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(list(RECORD_KEYS) + detail_keys)
        for r in records:
            writer.writerow(
                [r[k] for k in RECORD_KEYS]
                + [r.get(k, "") for k in detail_keys]
            )
    finally:
        if args.output:
            out.close()
            print(f"wrote {len(records)} rows to {args.output}", file=sys.stderr)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    errors: list[str] = []
    n = 0
    saw_header = saw_footer = False
    try:
        for lineno, obj in read_lines(args.file):
            n += 1
            if lineno == 1 and obj.get("kind") == "header":
                saw_header = True
            if obj.get("kind") == "footer":
                saw_footer = True
            errors.extend(validate_trace_line(obj, lineno))
            if len(errors) >= args.max_errors:
                break
    except json.JSONDecodeError as exc:
        errors.append(f"line {exc.lineno}: not valid JSON ({exc.msg})")
    if not saw_header:
        errors.append("line 1: missing schema header")
    if not saw_footer and args.strict:
        errors.append("missing footer (artifact truncated?)")
    for err in errors[: args.max_errors]:
        print(err, file=sys.stderr)
    if errors:
        print(f"INVALID: {len(errors)} error(s) in {n} lines", file=sys.stderr)
        return 1
    print(f"ok: {n} lines valid (schema v{TRACE_SCHEMA_VERSION})")
    return 0


# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Analyse repro JSONL trace artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("file", type=Path, help="trace .jsonl or .jsonl.gz")
        p.set_defaults(fn=fn)
        return p

    p = add("summary", cmd_summary, "headline counters and per-category totals")
    p.add_argument("--top", type=int, default=15, help="event rows to show")

    p = add("timeline", cmd_timeline, "binned event-rate ASCII chart")
    p.add_argument("--bin", type=float, default=1.0, help="bin width (s)")
    p.add_argument("--category", help="restrict to one category")
    p.add_argument("--event", help="restrict to one event name")
    p.add_argument("--width", type=int, default=60)

    p = add("nodes", cmd_nodes, "per-node, per-category record counts")
    p.add_argument("--top", type=int, default=0,
                   help="busiest nodes to list (0 = all)")

    p = add("storms", cmd_storms, "RREQ discovery-storm breakdown")
    p.add_argument("--top", type=int, default=20, help="storms to list")

    p = add("csv", cmd_csv, "flatten records to CSV")
    p.add_argument("-o", "--output", type=Path, help="output file (default stdout)")

    p = add("validate", cmd_validate, "schema-validate every line")
    p.add_argument("--max-errors", type=int, default=20)
    p.add_argument(
        "--strict", action="store_true",
        help="also require the closing footer line",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"repro-trace: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
