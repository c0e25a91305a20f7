#!/usr/bin/env python3
"""One proof command: run every deterministic artifact on a parent revision
and on this tree, and print one table of what is identical, moved, new or
gone.

    python3 tools/proof.py <parent-rev>

The parent is exported with `git archive` into a temporary directory (so
nothing is left registered in `.git`) and built there, release binaries
only, with a CARGO_TARGET_DIR of its own; the directory and its target go
when the run ends. This tree is used as it stands, uncommitted edits
included, and builds into its own `target/`.

The artifacts, on each side:

* `report/BENCH_<eNN>.json`: the report of every experiment binary that has
  a committed baseline under `tools/baselines/`, run without arguments;
* `trace/<bin>`: the `trace: … digest` line of each binary in
  `tools/trace_digests.json`, run with `--trace`;
* `example/<name>`: the standard output of each program under `examples/`,
  run without arguments;
* `perf/<workload>/<seed>`: `udr-perf` at the allocation gates' settings
  (`--seconds 2 --trace 0`, seeds 11 and 12), every line it prints except
  the host-timed ones (`deterministic` below is the one place that rule
  lives).

A moved artifact is listed with its first differing line. An artifact only
the parent has is gone; one only this tree has is new. The command fails
only when a build or a run does; a sim-visible change reads its list of
moves off the table. Under the table each moved `report/…` artifact is
diffed cell by cell by `tools/bench_compare.py`, so the list names every
moved cell with its old and new value.

Under the status table a second table prints `peak_rss_mb` of each
`perf/<workload>/<seed>` run, on the parent and on this tree, and the
change between them. It is a measurement, not a status: the host's peak
resident set of one `udr-perf` process, read from that run's result
object. It repeats closely on one host and build, but it is not part of
any artifact and never makes a row moved. A third table prints the same
runs' `alloc_bytes_per_op` and `allocs_per_op` on both trees and their
ratio (this tree over the parent; `—` where the parent reads 0). Those
are exact counts, equal on every run of one build, but the table is a
measurement too: a change to them shows in the status table only as the
`perf/…` row they sit in.

Under those `op_cost` prints what `udr-bench`'s `op_cost` binary counts on
each tree: user-space instructions retired per operation of a fixed stream
of searches and of modifies on `fe_read`'s deployment, and per uid lookup
of one store. A measurement as well, never a status; where the host
denies the instruction counter, each side prints the reason it gave, and
a tree without the binary prints `—`.

Last, `library lines` counts the library on both trees by the one rule in
`library_lines`: every `crates/*/src/**/*.rs` outside `src/bin`, up to its
first top-level `#[cfg(test)]`. Under it `all lines` counts every line of
every `.rs` file under `crates/`, `tests/` and `examples/` (`all_lines`),
so a change that moves code out of tests and binaries into a library
module shows its net. Like the memory table both are measurements, never
a status.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = ("11", "12")
PERF_ARGS = ["--seconds", "2", "--trace", "0"]
# The result-object metrics of each `perf/…` run printed under the status
# table: first the memory one, then the allocation counts.
MEASURED = ("peak_rss_mb", "alloc_bytes_per_op", "allocs_per_op")


def deterministic(line):
    """Whether a `udr-perf` output line depends on the simulated run alone.
    Dropped: the per-repetition host timings, every metric row whose clock
    column reads `host`, and the result object, which repeats the metric
    rows with the host ones among them (its verdict is kept)."""
    if line.startswith("repetition "):
        return False
    fields = line.split()
    return not (len(fields) >= 4 and fields[3] == "host")


def export(rev, dest):
    """Write the files of `rev` into the existing directory `dest` with
    `git archive`, so nothing is left registered in `.git`."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"git archive {rev} failed")


def library_lines(tree):
    """Lines of library code in `tree`: each `.rs` file under a crate's
    `src/`, binaries under `src/bin/` excluded, counted up to its first
    top-level `#[cfg(test)]` line (its unit tests)."""
    total = 0
    for path in (tree / "crates").glob("*/src/**/*.rs"):
        if path.relative_to(tree / "crates").parts[2] == "bin":
            continue
        for line in path.read_text().splitlines():
            if line.rstrip() == "#[cfg(test)]":
                break
            total += 1
    return total


def all_lines(tree):
    """Lines of every `.rs` file under `crates/`, `tests/` and `examples/`
    of `tree`: libraries, binaries, unit and integration tests alike."""
    return sum(
        len(path.read_text().splitlines())
        for top in ("crates", "tests", "examples")
        for path in (tree / top).glob("**/*.rs")
    )


def build(tree, target):
    """Release-build the experiment binaries, the examples and `udr-perf` of
    `tree` into `target`. Building `benchmark/` rewrites its lock file, so the file is
    put back as it was."""
    env = {**os.environ, "CARGO_TARGET_DIR": str(target)}
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    subprocess.run([*cargo, "-p", "udr-bench", "--bins"], cwd=tree, env=env, check=True)
    subprocess.run([*cargo, "-p", "udr", "--examples"], cwd=tree, env=env, check=True)
    manifest = tree / "benchmark" / "Cargo.toml"
    if manifest.exists():
        lock = tree / "benchmark" / "Cargo.lock"
        saved = lock.read_bytes() if lock.exists() else None
        try:
            subprocess.run([*cargo, "--manifest-path", str(manifest)], env=env, check=True)
        finally:
            if saved is not None:
                lock.write_bytes(saved)


def run(binary, args, workdir):
    """Run `binary` with `args` in a fresh `workdir`; its standard output."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return subprocess.run(
        [str(binary), *args], cwd=workdir, check=True, stdout=subprocess.PIPE, text=True
    ).stdout


def op_cost(release, workdir):
    """What `op_cost` in `release` counts, as row → instructions per op, or
    the one line it printed instead of counts; `None` if there is no such
    binary."""
    binary = release / "op_cost"
    if not binary.exists():
        return None
    lines = run(binary, [], workdir).splitlines()
    rows = {}
    for line in lines[2:]:
        row, _ops, per_op = line.split()
        rows[row] = float(per_op)
    return rows or lines[0]


def collect(tree, target, scratch):
    """Every artifact of `tree` built into `target`, as name → lines, the
    `MEASURED` metrics of each `perf/…` run, as name → metric → value, and
    `op_cost`'s counts (`op_cost` above)."""
    release = target / "release"
    artifacts = {}
    measured = {"op_cost": op_cost(release, scratch / "op_cost")}
    bins = {p.stem.split("_")[0]: p.stem for p in (tree / "crates/bench/src/bin").glob("e*.rs")}
    for baseline in sorted((tree / "tools" / "baselines").glob("BENCH_*.json")):
        binary = bins.get(baseline.stem.removeprefix("BENCH_"))
        if binary is None:
            continue
        work = scratch / binary
        run(release / binary, [], work)
        artifacts[f"report/{baseline.name}"] = (work / baseline.name).read_text().splitlines()
    gates = tree / "tools" / "trace_digests.json"
    for binary in json.loads(gates.read_text()) if gates.exists() else []:
        out = run(release / binary, ["--trace"], scratch / binary)
        artifacts[f"trace/{binary}"] = [line for line in out.splitlines() if line.startswith("trace: ")]
    for example in sorted((tree / "examples").glob("*.rs")):
        out = run(release / "examples" / example.stem, [], scratch / "example")
        artifacts[f"example/{example.stem}"] = out.splitlines()
    perf = release / "udr-perf"
    workloads = tree / "BENCHMARK.json"
    if perf.exists() and workloads.exists():
        for workload in (w["name"] for w in json.loads(workloads.read_text())["workloads"]):
            for seed in SEEDS:
                args = ["--workload", workload, "--seed", seed, *PERF_ARGS]
                lines = run(perf, args, scratch / "perf").splitlines()
                result = json.loads(lines.pop())
                verdict = {k: result[k] for k in ("correct", "attempted", "failed")}
                artifacts[f"perf/{workload}/{seed}"] = [
                    *filter(deterministic, lines),
                    json.dumps(verdict),
                ]
                metrics = result["metrics"]
                measured[f"perf/{workload}/{seed}"] = {m: metrics[m]["value"] for m in MEASURED}
    return artifacts, measured


def first_difference(old, new):
    """The first line where `old` and `new` differ, as one table cell: the
    line number and, on each side, the text from a little before the first
    differing character."""
    for i, (a, b) in enumerate(zip(old, new)):
        if a != b:
            col = next((c for c, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            start = max(0, col - 24)
            return f"line {i + 1}: {a[start:col + 24]!r} → {b[start:col + 24]!r}"
    return f"length {len(old)} → {len(new)} lines"


def report_diffs(rev, old, new, workdir):
    """`tools/bench_compare.py`'s output for each `report/…` artifact that
    moved, as one string per report; the two files are written under
    `workdir` as `<rev>/<report>` and `this-tree/<report>`."""
    diffs = []
    for name in sorted(old.keys() & new.keys()):
        if not name.startswith("report/") or old[name] == new[name]:
            continue
        report = name.removeprefix("report/")
        for side, lines in ((rev, old[name]), ("this-tree", new[name])):
            (workdir / side).mkdir(parents=True, exist_ok=True)
            (workdir / side / report).write_text("\n".join(lines) + "\n")
        compare = [sys.executable, str(ROOT / "tools" / "bench_compare.py")]
        out = subprocess.run(
            [*compare, f"{rev}/{report}", f"this-tree/{report}"],
            cwd=workdir,
            stdout=subprocess.PIPE,
            text=True,
        )
        diffs.append(out.stdout.rstrip())
    return diffs


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: tools/proof.py <parent-rev>")
    rev = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="udr-proof-") as tmp:
        tmp = Path(tmp)
        parent = tmp / "parent"
        parent.mkdir()
        export(rev, parent)
        old_lines, new_lines = library_lines(parent), library_lines(ROOT)
        old_all, new_all = all_lines(parent), all_lines(ROOT)
        print(f"building {rev} and this tree", file=sys.stderr)
        build(parent, tmp / "target")
        build(ROOT, ROOT / "target")
        print("running both", file=sys.stderr)
        old, old_measured = collect(parent, tmp / "target", tmp / "run-parent")
        new, new_measured = collect(ROOT, ROOT / "target", tmp / "run-change")
        diffs = report_diffs(rev, old, new, tmp / "reports")

    rows = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            rows.append((name, "gone", ""))
        elif name not in old:
            rows.append((name, "new", ""))
        elif old[name] == new[name]:
            rows.append((name, "identical", ""))
        else:
            rows.append((name, "moved", first_difference(old[name], new[name])))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'artifact':<{width}}  {'status':<9}  first differing line ({rev} → this tree)")
    for name, status, detail in rows:
        print(f"{name:<{width}}  {status:<9}  {detail}".rstrip())
    counts = {s: sum(1 for _, st, _ in rows if st == s) for s in ("identical", "moved", "new", "gone")}
    print(", ".join(f"{n} {s}" for s, n in counts.items()))
    for diff in diffs:
        print()
        print(diff)

    old_cost, new_cost = old_measured.pop("op_cost"), new_measured.pop("op_cost")
    runs = sorted(old_measured.keys() & new_measured.keys())
    if runs:
        width = max(len(name) for name in runs)
        print()
        print(f"{'peak_rss_mb (measured)':<{width}}  {rev:>10}  {'this tree':>10}  change")
        for name in runs:
            a, b = old_measured[name]["peak_rss_mb"], new_measured[name]["peak_rss_mb"]
            print(f"{name:<{width}}  {a:>10.2f}  {b:>10.2f}  {(b - a) / a:+.1%}")
        counts = MEASURED[1:]
        width = max(width, len("counts (measured)"))
        print()
        print(f"{'counts (measured)':<{width}}  {'metric':<18}  {rev:>10}  {'this tree':>10}  ratio")
        for name in runs:
            for metric in counts:
                a, b = old_measured[name][metric], new_measured[name][metric]
                ratio = f"{b / a:.3f}" if a else "—"
                print(f"{name:<{width}}  {metric:<18}  {a:>10.5g}  {b:>10.5g}  {ratio}")
    print()
    if isinstance(old_cost, dict) and isinstance(new_cost, dict):
        print(f"{'op_cost (measured)':<24}  {rev:>10}  {'this tree':>10}  change  (instructions/op)")
        for row in sorted(old_cost.keys() | new_cost.keys()):
            a, b = old_cost.get(row), new_cost.get(row)
            change = f"{(b - a) / a:+.1%}" if a and b is not None else ""
            cells = [f"{v:>10.1f}" if v is not None else f"{'—':>10}" for v in (a, b)]
            print(f"{row:<24}  {cells[0]}  {cells[1]}  {change}".rstrip())
    else:
        for side, cost in ((rev, old_cost), ("this tree", new_cost)):
            if isinstance(cost, dict):
                cost = ", ".join(f"{row} {v:.1f}" for row, v in cost.items()) + " instructions/op"
            print(f"op_cost (measured), {side}: {cost or '—'}")
    print()
    print(f"{'library lines (measured)':<24}  {rev:>10}  {'this tree':>10}  change")
    print(f"{'crates/*/src, no src/bin':<24}  {old_lines:>10}  {new_lines:>10}  {new_lines - old_lines:+d}")
    print(f"{'all lines':<24}  {old_all:>10}  {new_all:>10}  {new_all - old_all:+d}")


if __name__ == "__main__":
    main()
