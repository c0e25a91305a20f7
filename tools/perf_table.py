#!/usr/bin/env python3
"""Render two udr-perf results as the markdown tables of docs/PROFILING.md.

``benchmark/run.sh --seed N`` writes ``benchmark/out/result.json``; run it
on the parent commit and on the change, keep both files, then:

    tools/perf_table.py PARENT.json CHANGE.json                   # end to end
    tools/perf_table.py PARENT.json CHANGE.json --layers fe_read  # per layer

The end-to-end table has one row per workload and metric of
``BENCHMARK.json``'s ``end_to_end`` list; ``--layers W`` prints workload
``W``'s ``per_layer`` metrics. ``ratio`` is change / parent.
"""

import argparse
import json
import os


def cell(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def row(label: str, parent: dict, change: dict) -> str:
    p, c = parent["value"], change["value"]
    ratio = f"{c / p:.2f}" if p > 0 and c >= 0 else "—"
    return f"| {label} | {parent['unit']} | {parent['clock']} | {cell(p)} | {cell(c)} | {ratio} |"


def main() -> None:
    args = argparse.ArgumentParser(description=__doc__)
    args.add_argument("parent")
    args.add_argument("change")
    args.add_argument("--layers", metavar="WORKLOAD")
    opts = args.parse_args()
    parent, change = (json.load(open(p, encoding="utf-8")) for p in (opts.parent, opts.change))
    manifest_path = os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")
    manifest = json.load(open(manifest_path, encoding="utf-8"))

    if opts.layers:
        names = [m["name"] for m in manifest["per_layer"]]
        rows = [(f"`{n}`", opts.layers, n) for n in names]
    else:
        names = [m["name"] for m in manifest["end_to_end"]]
        rows = [(f"`{w['name']}` `{n}`", w["name"], n) for w in manifest["workloads"] for n in names]
    print("| Metric | Unit | Clock | Parent | Change | Ratio |")
    print("|---|---|---|---:|---:|---:|")
    for label, workload, name in rows:
        print(row(label, parent[workload][name], change[workload][name]))


if __name__ == "__main__":
    main()
