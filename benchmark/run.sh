#!/usr/bin/env bash
# Build udr-perf offline from this directory and run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result object
#       BENCHMARK.json describes.
#   benchmark/run.sh [--seed N] [--seconds S]
#       every workload, untraced then traced: prints every metric by name
#       and unit, runs the output checks, writes benchmark/out/result.json
#       and benchmark/out/trace_<workload>.jsonl; fails if any check fails.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/udr-perf"
out="$here/out"
mkdir -p "$out"

case " $* " in
*" --workload "*) exec "$bin" "$@" --out-dir "$out" ;;
esac

workloads=(fe_read ps_modify mixed_80_20 consensus_80_20)
status=0
for w in "${workloads[@]}"; do
    for trace in 0 1; do
        "$bin" --workload "$w" --trace "$trace" "$@" --out-dir "$out" | tee "$out/last_run.txt" | sed '$d'
        grep -q '^{"correct": true' "$out/last_run.txt" || status=1
    done
done
rm -f "$out/last_run.txt"

{
    echo "{"
    for i in "${!workloads[@]}"; do
        w="${workloads[$i]}"
        echo "  \"$w\": {"
        cat "$out/result_${w}_0.members"
        echo ","
        cat "$out/result_${w}_1.members"
        echo
        if [ "$i" -lt $((${#workloads[@]} - 1)) ]; then echo "  },"; else echo "  }"; fi
    done
    echo "}"
} >"$out/result.json"
echo "wrote $out/result.json"
[ "$status" -eq 0 ] || echo "OUTPUT CHECKS FAILED" >&2
exit "$status"
