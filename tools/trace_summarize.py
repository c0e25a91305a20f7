#!/usr/bin/env python3
"""Summarize a TRACE_*.jsonl flight-recorder export.

Reads the compact JSONL emitted by ``udr_trace::TraceExport::to_jsonl``
(one object per line; kinds ``meta`` / ``rec`` / ``exemplar`` /
``exrec``) and prints:

- the export header (record counts, drops, deterministic digest);
- a **per-stage critical-path breakdown**: total and mean time spent in
  each ``stage.*`` span across every traced operation, plus each
  stage's share of the summed pipeline time — this reproduces the
  simulator's ``LatencyBreakdown`` accounting from the trace alone;
- totals for every other span/instant family (``consensus.*``,
  ``ship.*``, ``qos.*``, ``fault.*``, ...), so a timeline's shape is
  readable without opening Perfetto;
- the **top-K slowest exemplars** (always-on slow-op capture), each
  with its own stage breakdown.

Usage:
    tools/trace_summarize.py TRACE_e25.jsonl
    tools/trace_summarize.py --top 5 TRACE_e25.jsonl
    tools/trace_summarize.py --check TRACE_e25.jsonl   # schema check only

``--check`` validates the line schema (used by the CI trace-smoke cell)
and exits non-zero on any malformed line, missing meta header, or a
digest field that does not parse as 16 hex digits. In an export from a
consensus deployment (one holding any ``consensus.*`` record) it also
checks the read path: every served ``op.search`` carries exactly one
``consensus.read`` instant, and any other search at most one, whose
argument names the proof that served it, ``lease`` or ``echo``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

STAGES = ("stage.access", "stage.location", "stage.replication", "stage.storage")
READ_PROOFS = ("lease", "echo")

REC_REQUIRED = {
    "trace": int,
    "span": int,
    "parent": int,
    "name": str,
    "start_ns": int,
}
EXEMPLAR_REQUIRED = {
    "trace": int,
    "name": str,
    "start_ns": int,
    "latency_ns": int,
    "status": str,
}


def fmt_ns(ns: float) -> str:
    if ns >= 1e9:
        return f"{ns / 1e9:.3f} s"
    if ns >= 1e6:
        return f"{ns / 1e6:.3f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f} µs"
    return f"{ns:.0f} ns"


def load(path: str) -> tuple[dict, list[dict], list[dict]]:
    """Parse one export; returns (meta, records, exemplar headers).

    ``exrec`` lines are folded into their preceding exemplar header
    under ``"records"``; plain ``rec`` lines land in the record list.
    """
    meta: dict | None = None
    records: list[dict] = []
    exemplars: list[dict] = []
    problems: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {lineno}: malformed JSON: {exc}")
                continue
            kind = obj.get("kind")
            if kind == "meta":
                if meta is not None:
                    problems.append(f"line {lineno}: duplicate meta header")
                meta = obj
                digest = obj.get("digest")
                if not (isinstance(digest, str) and len(digest) == 16):
                    problems.append(f"line {lineno}: meta.digest is not 16 hex chars")
                else:
                    try:
                        int(digest, 16)
                    except ValueError:
                        problems.append(f"line {lineno}: meta.digest is not hex")
            elif kind in ("rec", "exrec"):
                for field, ftype in REC_REQUIRED.items():
                    if not isinstance(obj.get(field), ftype):
                        problems.append(f"line {lineno}: {kind}.{field} missing or mistyped")
                        break
                else:
                    dur = obj.get("dur_ns")
                    if dur is not None and not isinstance(dur, int):
                        problems.append(f"line {lineno}: {kind}.dur_ns must be int or null")
                    elif kind == "rec":
                        records.append(obj)
                    elif not exemplars:
                        problems.append(f"line {lineno}: exrec before any exemplar header")
                    else:
                        exemplars[-1]["records"].append(obj)
            elif kind == "exemplar":
                for field, ftype in EXEMPLAR_REQUIRED.items():
                    if not isinstance(obj.get(field), ftype):
                        problems.append(f"line {lineno}: exemplar.{field} missing or mistyped")
                        break
                else:
                    obj["records"] = []
                    exemplars.append(obj)
            else:
                problems.append(f"line {lineno}: unknown kind {kind!r}")
    if meta is None:
        problems.append("no meta header line")
    else:
        if meta.get("records") != len(records):
            problems.append(
                f"meta.records={meta.get('records')} but file holds {len(records)} rec lines"
            )
        if meta.get("exemplars") != len(exemplars):
            problems.append(
                f"meta.exemplars={meta.get('exemplars')} but file holds "
                f"{len(exemplars)} exemplar headers"
            )
    if problems:
        for problem in problems:
            print(f"FAIL {path}: {problem}", file=sys.stderr)
        sys.exit(1)
    assert meta is not None
    return meta, records, exemplars


def read_path_problems(meta: dict, records: list[dict], exemplars: list[dict]) -> list[str]:
    """Consensus reads whose ``consensus.read`` instants are wrong.

    Only an export that holds a ``consensus.*`` record comes from a
    consensus deployment; any other passes. A search served ``ok`` went
    through exactly one proof, lease or echo; one refused before its
    leader was reached went through none, and one refused by its echo
    round through one. When the ring dropped records, the oldest trace in
    it may have lost its instant, so that one is not checked for a
    missing instant.
    """
    if not any(rec["name"].startswith("consensus.") for rec in records):
        return []
    problems = []
    groups = [("flight recorder", records)]
    groups += [(f"exemplar trace {ex['trace']}", ex["records"]) for ex in exemplars]
    for where, recs in groups:
        reads: dict[int, list[str]] = defaultdict(list)
        searches: dict[int, str] = {}
        for rec in recs:
            if rec["name"] == "consensus.read":
                reads[rec["trace"]].append(rec.get("arg"))
            elif rec["name"] == "op.search":
                searches[rec["trace"]] = (rec.get("arg") or "").split(" ", 1)[0]
        partial = recs[0]["trace"] if recs and meta.get("dropped", 0) else None
        for trace, proofs in reads.items():
            if trace not in searches:
                problems.append(f"{where}: trace {trace} has consensus.read but no op.search")
            if len(proofs) > 1:
                problems.append(f"{where}: search trace {trace} has {len(proofs)} consensus.read")
            bad = [p for p in proofs if p not in READ_PROOFS]
            if bad:
                problems.append(f"{where}: search trace {trace} read proof {bad[0]!r}")
        for trace, status in searches.items():
            if status == "ok" and trace not in reads and trace != partial:
                problems.append(f"{where}: served search trace {trace} has no consensus.read")
    return problems


def stage_breakdown(records: list[dict]) -> dict[str, tuple[int, int]]:
    """name -> (total_ns, span_count) for the four pipeline stages."""
    acc: dict[str, tuple[int, int]] = {s: (0, 0) for s in STAGES}
    for rec in records:
        name = rec["name"]
        if name in acc and rec.get("dur_ns") is not None:
            total, count = acc[name]
            acc[name] = (total + rec["dur_ns"], count + 1)
    return acc


def print_stage_table(records: list[dict], indent: str = "") -> None:
    acc = stage_breakdown(records)
    pipeline_total = sum(total for total, _ in acc.values())
    width = max(len(s) for s in STAGES)
    for stage in STAGES:
        total, count = acc[stage]
        share = (total / pipeline_total * 100.0) if pipeline_total else 0.0
        mean = (total / count) if count else 0.0
        print(
            f"{indent}{stage:<{width}}  total {fmt_ns(total):>12}  "
            f"spans {count:>6}  mean {fmt_ns(mean):>10}  {share:5.1f}%"
        )
    print(f"{indent}{'pipeline total':<{width}}  {fmt_ns(pipeline_total):>18}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Summarize a TRACE_*.jsonl flight-recorder export."
    )
    parser.add_argument("trace", help="TRACE_*.jsonl file to read")
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="K",
        help="slowest exemplars to print (default 10)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="schema-check only: validate every line and exit",
    )
    args = parser.parse_args()

    meta, records, exemplars = load(args.trace)
    if args.check:
        problems = read_path_problems(meta, records, exemplars)
        for problem in problems[:10]:
            print(f"FAIL {args.trace}: {problem}", file=sys.stderr)
        if problems:
            print(f"FAIL {args.trace}: {len(problems)} read-path problems", file=sys.stderr)
            return 1
        print(
            f"ok   {args.trace} ({len(records)} records, {len(exemplars)} exemplars, "
            f"digest {meta['digest']})"
        )
        return 0

    print(f"{args.trace}")
    print(
        f"  {len(records)} records, {len(exemplars)} exemplars, "
        f"{meta.get('dropped', 0)} dropped, digest {meta['digest']}\n"
    )

    # Per-stage critical path over the whole flight recorder.
    print("per-stage critical path (flight recorder):")
    print_stage_table(records, indent="  ")

    # Everything else, grouped by name family.
    families: dict[str, tuple[int, int]] = defaultdict(lambda: (0, 0))
    for rec in records:
        name = rec["name"]
        if name in STAGES:
            continue
        total, count = families[name]
        families[name] = (total + (rec.get("dur_ns") or 0), count + 1)
    if families:
        print("\nother span/instant families:")
        width = max(len(n) for n in families)
        for name in sorted(families, key=lambda n: -families[n][1]):
            total, count = families[name]
            timing = f"  total {fmt_ns(total):>12}" if total else ""
            print(f"  {name:<{width}}  n {count:>6}{timing}")

    # Slowest exemplars with their own breakdowns.
    if exemplars:
        shown = exemplars[: args.top]
        print(f"\ntop {len(shown)} slowest exemplars (of {len(exemplars)} kept):")
        for ex in shown:
            print(
                f"  {ex['name']}  trace {ex['trace']}  latency "
                f"{fmt_ns(ex['latency_ns'])}  status {ex['status']}  "
                f"start {fmt_ns(ex['start_ns'])}"
            )
            print_stage_table(ex["records"], indent="    ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
