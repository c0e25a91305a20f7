#!/usr/bin/env bash
# Is the benchmark steady enough for its own bounds?
#
#   benchmark/repeat.sh [--seed N]
#       runs the whole suite twice on one seed and prints, per workload and
#       end-to-end metric, both values, their relative difference and the
#       bound from BENCHMARK.json. Fails if a difference exceeds its bound,
#       if a count or sim-time metric (end-to-end or per-layer) differs at
#       all, or if the emitted metric names are not BENCHMARK.json's.
#   benchmark/repeat.sh --seeds K
#       the acceptance procedure of BENCHMARK.json's contract: every
#       workload untraced on K different seeds; prints each end-to-end
#       metric's interquartile range as a share of its median beside the
#       bound, and fails if one (setup_s excepted) exceeds it.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
exec python3 - "$here" "$@" <<'EOF'
import json, os, shutil, statistics, subprocess, sys

here, args = sys.argv[1], sys.argv[2:]
manifest = json.load(open(os.path.join(here, "..", "BENCHMARK.json")))
bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
layers = {m["name"] for m in manifest["per_layer"]}
workloads = [w["name"] for w in manifest["workloads"]]
run_sh = os.path.join(here, "run.sh")
opts = dict(zip(args[::2], args[1::2]))
failures = []


def spread_over_seeds(k):
    for w in workloads:
        values = {}
        for seed in range(11, 11 + k):
            out = subprocess.run(
                ["bash", run_sh, "--workload", w, "--seed", str(seed),
                 "--seconds", str(manifest["run_seconds"]), "--trace", "0"],
                check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                failures.append(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        if set(values) != set(bounds):
            failures.append(f"{w}: end-to-end names differ from BENCHMARK.json")
        print(f"{w}: {k} seeds")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            bound = bounds.get(name, 0)
            verdict = "ok" if spread <= bound or name == "setup_s" else "OVER"
            print(f"  {name:<20} median {statistics.median(vals):>16.4f}  "
                  f"iqr/median {spread:8.4f}  bound {bound:6.3f}  {verdict}")
            if verdict == "OVER":
                failures.append(f"{w} {name}: spread {spread:.4f} over bound {bound}")


def suite_twice(seed):
    results = []
    for i in (1, 2):
        subprocess.run(["bash", run_sh, "--seed", seed], check=True, stdout=subprocess.DEVNULL)
        kept = os.path.join(here, "out", f"result_run{i}.json")
        shutil.copy(os.path.join(here, "out", "result.json"), kept)
        results.append(json.load(open(kept)))
    first, second = results
    for w in workloads:
        if set(first[w]) != set(bounds) | layers:
            failures.append(f"{w}: metric names differ from BENCHMARK.json")
        print(f"{w}:")
        for name, a in first[w].items():
            b = second[w][name]
            diff = abs(a["value"] - b["value"]) / abs(a["value"]) if a["value"] else abs(b["value"])
            if a["clock"] != "host":
                if diff:
                    failures.append(f"{w} {name}: {a['clock']} metric moved, {a['value']} -> {b['value']}")
                    print(f"  {name:<34} {a['value']:>16.4f} {b['value']:>16.4f}  MOVED ({a['clock']})")
            elif name in bounds:
                verdict = "ok" if diff <= bounds[name] else "OVER"
                print(f"  {name:<34} {a['value']:>16.4f} {b['value']:>16.4f}  "
                      f"diff {diff:7.4f}  bound {bounds[name]:5.3f}  {verdict}")
                if verdict == "OVER":
                    failures.append(f"{w} {name}: runs differ by {diff:.4f}, bound {bounds[name]}")
            else:
                print(f"  {name:<34} {a['value']:>16.4f} {b['value']:>16.4f}  diff {diff:7.4f}")
        print("  every count and sim-time metric agrees exactly"
              if not any(f.startswith(w + " ") and "moved" in f for f in failures) else "")


if "--seeds" in opts:
    spread_over_seeds(int(opts["--seeds"]))
else:
    suite_twice(opts.get("--seed", "11"))
for f in failures:
    print("FAIL:", f)
sys.exit(1 if failures else 0)
EOF
