#!/usr/bin/env bash
# Builds the benchmark offline and runs one workload, or all four with one
# process each:
#
#   benchmark/run.sh --workload <paper-figures|design-sweep|cache-geometry|single-config|all>
#                    [--seed N] [--trace [0|1]] [--smoke]
#
# A run measures BENCHMARK.json's run_seconds. The last line it prints is
# its JSON result. The build goes to $CARGO_TARGET_DIR, or
# benchmark/target when that is unset.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/sortmid-benchmark"

args=("$@")
workload=""
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
    if [[ ${args[i]} == --workload ]]; then
        workload=${args[i + 1]}
    fi
done
if [[ $workload != all ]]; then
    exec "$bin" "$@"
fi

status=0
for w in paper-figures design-sweep cache-geometry single-config; do
    run=()
    prev=""
    for a in "${args[@]}"; do
        if [[ $prev == --workload ]]; then run+=("$w"); else run+=("$a"); fi
        prev=$a
    done
    "$bin" "${run[@]}" || status=$?
done
exit "$status"
