#!/usr/bin/env python3
"""Allocation gates: run each benchmark workload briefly and fail if it
is incorrect or allocates more per operation than its committed bound.

    python3 tools/alloc_gates.py

`tools/alloc_gates.json` maps each workload to `allocs_per_op_below` and
a `why`; edit the bounds there. Every workload runs once
through `benchmark/run.sh` at `--seed 11 --seconds 2 --trace 0`.
`allocs_per_op` is an exact count of allocator calls, identical on every
run of one build, so a bound needs no margin for noise: it sits just
above what the workload reads.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARGS = ["--seed", "11", "--seconds", "2", "--trace", "0"]


def run(workload):
    """The result object of one `benchmark/run.sh` run (its last line)."""
    out = subprocess.run(
        ["bash", str(ROOT / "benchmark" / "run.sh"), "--workload", workload, *ARGS],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    gates = json.loads(Path(__file__).with_suffix(".json").read_text())
    failed = []
    for workload, gate in gates.items():
        result = run(workload)
        allocs = result["metrics"]["allocs_per_op"]["value"]
        bound = gate["allocs_per_op_below"]
        ok = result["correct"] is True and allocs < bound
        print(
            f"{'ok  ' if ok else 'FAIL'} {workload}: correct={result['correct']} "
            f"allocs_per_op={allocs:.5f} (bound < {bound})"
        )
        if not ok:
            failed.append(workload)
    if failed:
        sys.exit(f"allocation gates failed: {', '.join(failed)}")


if __name__ == "__main__":
    main()
