#!/usr/bin/env python3
"""Compare two BENCH_*.json runs of the same experiment.

Rows are matched by their identity columns (every string-valued cell,
e.g. ``stage`` for e23 or ``mode`` for e16, plus integer knobs like
``partition_s`` that appear in both runs with disjoint numeric roles), then
every shared numeric column is diffed. Rate-like columns (``*per_sec``)
count as regressions when they *drop*; latency-like columns (``*_ns``,
``*_ms``, ``*_s``) when they *rise*; everything else is reported but
never flagged.

Usage:
    tools/bench_compare.py OLD.json NEW.json
    tools/bench_compare.py --threshold 10 OLD.json NEW.json
    tools/bench_compare.py --metric per_sec OLD.json NEW.json

``--threshold PCT`` (default 5) sets the regression tolerance; any
flagged metric past it makes the script exit 1, so CI can pin a
baseline report and fail the build on a real slowdown. Timing noise on
shared runners is real — thresholds under ~5 % flag weather, not code.
"""

from __future__ import annotations

import argparse
import json
import sys

RATE_MARKERS = ("per_sec", "per_s", "ops_s", "throughput")
LATENCY_MARKERS = ("_ns", "_us", "_ms", "wall_s", "_s", "latency", "heal")


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"{path}: unreadable or malformed JSON: {exc}")
    for key in ("name", "rows"):
        if key not in report:
            sys.exit(f"{path}: not a BenchReport (missing {key!r})")
    return report


def key_columns(old_rows: list[dict], new_rows: list[dict]) -> list[str]:
    """Columns identifying a row: every string column, extended with
    integer columns (in column order) until rows are unique in both
    files — ``mode`` alone does not distinguish e16's rows, ``mode`` +
    ``partition_s`` does."""
    sample = old_rows[0] if old_rows else {}
    chosen = [c for c, v in sample.items() if isinstance(v, str)]
    int_cols = [
        c
        for c, v in sample.items()
        if isinstance(v, int) and not isinstance(v, bool)
    ]

    def unique(rows: list[dict]) -> bool:
        keys = [tuple(r.get(c) for c in chosen) for r in rows]
        return len(set(keys)) == len(keys)

    for col in int_cols:
        if unique(old_rows) and unique(new_rows):
            break
        chosen.append(col)
    return chosen


def row_key(row: dict, columns: list[str]) -> tuple:
    return tuple((c, row.get(c)) for c in columns)


def direction(column: str) -> int:
    """+1 = bigger is better (rates), -1 = smaller is better
    (latencies), 0 = informational only."""
    if any(m in column for m in RATE_MARKERS):
        return 1
    if any(m in column for m in LATENCY_MARKERS):
        return -1
    return 0


def fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json runs of the same experiment."
    )
    parser.add_argument("old", help="baseline report")
    parser.add_argument("new", help="candidate report")
    parser.add_argument(
        "--threshold",
        type=float,
        default=5.0,
        metavar="PCT",
        help="regression tolerance in percent (default 5)",
    )
    parser.add_argument(
        "--metric",
        action="append",
        default=None,
        metavar="SUBSTR",
        help="only diff columns containing SUBSTR (repeatable; "
        "default: every shared numeric column)",
    )
    args = parser.parse_args()

    old, new = load(args.old), load(args.new)
    if old["name"] != new["name"]:
        sys.exit(
            f"refusing to compare different experiments: "
            f"{old['name']!r} vs {new['name']!r}"
        )

    columns = key_columns(old["rows"], new["rows"])
    old_rows = {row_key(r, columns): r for r in old["rows"]}
    new_rows = {row_key(r, columns): r for r in new["rows"]}
    only_old = [k for k in old_rows if k not in new_rows]
    only_new = [k for k in new_rows if k not in old_rows]

    def label(key: tuple) -> str:
        return "/".join(str(v) for _, v in key) or "<row>"

    print(f"experiment {old['name']}: {args.old} → {args.new}")
    for key in only_old:
        print(f"  - row {label(key)} only in {args.old}")
    for key in only_new:
        print(f"  + row {label(key)} only in {args.new}")

    regressions: list[str] = []
    for key, old_row in old_rows.items():
        new_row = new_rows.get(key)
        if new_row is None:
            continue
        shown = False
        for column, old_val in old_row.items():
            new_val = new_row.get(column)
            if not isinstance(old_val, (int, float)) or isinstance(old_val, bool):
                continue
            if not isinstance(new_val, (int, float)) or isinstance(new_val, bool):
                continue
            if args.metric and not any(m in column for m in args.metric):
                continue
            if old_val == new_val:
                continue
            if not shown:
                print(f"  {label(key)}:")
                shown = True
            delta_pct = (
                (new_val - old_val) / abs(old_val) * 100.0
                if old_val
                else float("inf")
            )
            sign = direction(column)
            regressed = (
                sign != 0
                and -sign * delta_pct > args.threshold
            )
            flag = "  REGRESSION" if regressed else ""
            print(
                f"    {column}: {fmt(old_val)} → {fmt(new_val)} "
                f"({delta_pct:+.1f}%){flag}"
            )
            if regressed:
                regressions.append(f"{label(key)}.{column} {delta_pct:+.1f}%")

    if regressions:
        print(
            f"\n{len(regressions)} regression(s) past the "
            f"{args.threshold:g}% threshold:"
        )
        for item in regressions:
            print(f"  {item}")
        return 1
    print(f"\nno regressions past the {args.threshold:g}% threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
