#!/usr/bin/env python3
"""The mutation catalogue's runner: every mutant in `tools/mutants.toml`
must make the test it names fail.

    python3 tools/mutants.py [--rev REV] [--only NAME ...]

The tree at REV (default `HEAD`; `--rev "$(git stash create)"` for
uncommitted edits) is exported with `proof.py`'s `git
archive` export into a temporary directory (set `TMPDIR` to keep it off a
small `/tmp`). There, each named test must first pass on the unmutated
tree. Then each mutant in turn replaces its `find` text, which must occur
exactly once in its file, with `replace`, runs its test, and puts the file
back. The run fails when a text no longer matches, a mutant does not
build, a test passes under its mutant, or a test fails without one. All
builds share one CARGO_TARGET_DIR inside the temporary directory, and the
directory goes when the run ends.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import tomllib
from pathlib import Path

from proof import ROOT, export


def cargo_test(tree, target_dir, mutant, *, build_only=False):
    """Run (or with `build_only` only build) `mutant`'s named test in
    `tree`; the finished process."""
    target = ["--lib"] if mutant["target"] == "lib" else ["--test", mutant["target"]]
    cmd = ["cargo", "test", "--release", "--offline", "--quiet", "-p", mutant["package"], *target]
    if build_only:
        cmd.append("--no-run")
    else:
        cmd += ["--", "--exact", mutant["test"]]
    return subprocess.run(
        cmd,
        cwd=tree,
        env={**os.environ, "CARGO_TARGET_DIR": str(target_dir)},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def ran_one(output):
    """Whether a `cargo test -- --exact` run selected exactly one test."""
    return "running 1 test" in output


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD")
    parser.add_argument("--only", nargs="*", help="run only the mutants with these names")
    args = parser.parse_args()
    catalogue = tomllib.loads((ROOT / "tools" / "mutants.toml").read_text())["mutant"]
    if args.only:
        catalogue = [m for m in catalogue if m["name"] in args.only]

    failures = []
    with tempfile.TemporaryDirectory(prefix="udr-mutants-") as tmp:
        tree, target_dir = Path(tmp) / "tree", Path(tmp) / "target"
        tree.mkdir()
        export(args.rev, tree)

        for mutant in catalogue:
            out = cargo_test(tree, target_dir, mutant)
            if out.returncode != 0 or not ran_one(out.stdout):
                failures.append(f"{mutant['name']}: {mutant['test']} does not pass unmutated")
                print(out.stdout[-2000:], file=sys.stderr)

        for mutant in catalogue:
            path = tree / mutant["file"]
            original = path.read_text()
            count = original.count(mutant["find"])
            if count != 1:
                failures.append(f"{mutant['name']}: its text occurs {count} times in {mutant['file']}")
                print(f"{mutant['name']:<36} text matches {count} times")
                continue
            path.write_text(original.replace(mutant["find"], mutant["replace"]))
            try:
                built = cargo_test(tree, target_dir, mutant, build_only=True)
                if built.returncode != 0:
                    failures.append(f"{mutant['name']}: the mutant does not build")
                    print(built.stdout[-2000:], file=sys.stderr)
                    status = "does not build"
                else:
                    out = cargo_test(tree, target_dir, mutant)
                    killed = out.returncode != 0 and ran_one(out.stdout)
                    if not killed:
                        failures.append(f"{mutant['name']}: {mutant['test']} survives it")
                    status = "killed" if killed else "SURVIVED"
            finally:
                path.write_text(original)
            print(f"{mutant['name']:<36} {status:<14} {mutant['package']} {mutant['test']}")

    if failures:
        sys.exit("\n".join(["mutation catalogue failed:", *failures]))
    print(f"{len(catalogue)} mutants, every one killed by its test")


if __name__ == "__main__":
    main()
