#!/usr/bin/env python3
"""Trace digest gate: run each traced experiment and fail unless the
flight-recorder digest it prints equals the committed one.

    python3 tools/trace_digests.py

`tools/trace_digests.json` maps each experiment binary to its committed
`digest` and a `why`. Each binary runs once with `--trace` from the
repository root, so its `TRACE_<name>.jsonl` and `TRACE_<name>.chrome.json`
land there, and prints `trace: … digest <16 hex digits>` on stdout. The
digest hashes every retained record (name, trace, span, sim-time start and
length, argument), so a refactor that changes no timeline leaves it equal;
a change that means to move one records the new value in the same commit
and says why.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = re.compile(r"^trace: .*\bdigest ([0-9a-f]{16})$", re.MULTILINE)


def run(binary):
    """The digest line `binary --trace` printed, and the digest in it."""
    out = subprocess.run(
        ["cargo", "run", "--release", "-q", "-p", "udr-bench", "--bin", binary, "--", "--trace"],
        cwd=ROOT,
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    ).stdout
    found = DIGEST.search(out)
    return (found.group(0), found.group(1)) if found else ("no digest line", None)


def main():
    gates = json.loads(Path(__file__).with_suffix(".json").read_text())
    failed = []
    for binary, gate in gates.items():
        line, digest = run(binary)
        ok = digest == gate["digest"]
        print(f"{'ok  ' if ok else 'FAIL'} {binary}: {line} (committed {gate['digest']})")
        if not ok:
            failed.append(binary)
    if failed:
        sys.exit(f"trace digest gates failed: {', '.join(failed)}")


if __name__ == "__main__":
    main()
