#!/usr/bin/env python3
"""Allocation and digest gates: run each benchmark workload briefly on two
seeds and fail if it is incorrect, allocates more per operation than its
committed bounds, or reaches a different sim-time digest than the committed
one.

    python3 tools/alloc_gates.py

`tools/alloc_gates.json` maps each workload to `allocs_per_op_below`,
`alloc_bytes_per_op_below`, one digest per seed in `digests` and a `why`;
edit the bounds and digests there. Every workload runs through
`benchmark/run.sh` at `--seconds 2 --trace 0` once per seed in `SEEDS`,
and every seed is held to the same bounds, so a count tuned to one seed's
run does not pass. `allocs_per_op` and `alloc_bytes_per_op` are exact
counts of allocator calls and of the bytes they request, identical on
every run of one build, so a bound needs no margin for noise: it sits
just above what the workload reads on its heavier seed. The digest (the
`digest …` line `udr-perf` prints) hashes every operation's outcome and
simulated latency, so a refactor that changes no behaviour leaves it
equal; a change that means to move it records the new value in the same
commit.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = ("11", "12")
ARGS = ["--seconds", "2", "--trace", "0"]
DIGEST = re.compile(r"\bdigest ([0-9a-f]{16})\b")


def run(workload, seed):
    """The result object of one `benchmark/run.sh` run (its last line) and
    the digest it printed."""
    out = subprocess.run(
        [
            "bash",
            str(ROOT / "benchmark" / "run.sh"),
            *("--workload", workload, "--seed", seed),
            *ARGS,
        ],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    ).stdout
    digest = DIGEST.search(out)
    return json.loads(out.strip().splitlines()[-1]), digest and digest.group(1)


def main():
    gates = json.loads(Path(__file__).with_suffix(".json").read_text())
    failed = []
    for workload, gate in gates.items():
        for seed in SEEDS:
            result, digest = run(workload, seed)
            metrics = result["metrics"]
            allocs = metrics["allocs_per_op"]["value"]
            bound = gate["allocs_per_op_below"]
            alloc_bytes = metrics["alloc_bytes_per_op"]["value"]
            bytes_bound = gate["alloc_bytes_per_op_below"]
            committed = gate["digests"].get(seed)
            ok = (
                result["correct"] is True
                and allocs < bound
                and alloc_bytes < bytes_bound
                and digest == committed
            )
            print(
                f"{'ok  ' if ok else 'FAIL'} {workload} seed {seed}: "
                f"correct={result['correct']} "
                f"allocs_per_op={allocs:.5f} (bound < {bound}) "
                f"alloc_bytes_per_op={alloc_bytes:.1f} (bound < {bytes_bound}) "
                f"digest={digest} (committed {committed})"
            )
            if not ok:
                failed.append(f"{workload} seed {seed}")
    if failed:
        sys.exit(f"allocation or digest gates failed: {', '.join(failed)}")


if __name__ == "__main__":
    main()
