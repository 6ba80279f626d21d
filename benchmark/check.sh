#!/usr/bin/env bash
# The benchmark's CI gate, offline: a build with warnings as errors, clippy,
# the unit tests, a smoke pass of every workload untraced and traced, and a
# check that each run prints exactly the metrics BENCHMARK.json declares.
#
#   benchmark/check.sh
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export RUSTFLAGS="${RUSTFLAGS:-} -D warnings"
manifest=benchmark/Cargo.toml

echo "==> build (RUSTFLAGS: -D warnings)"
cargo build --release --offline --manifest-path "$manifest"
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> clippy"
    cargo clippy --release --offline --all-targets --manifest-path "$manifest" -- -D warnings
else
    echo "==> cargo clippy not installed; skipping lint step"
fi
echo "==> unit tests"
cargo test --release --offline --manifest-path "$manifest"

out=benchmark/results/check
mkdir -p "$out"
start=$SECONDS
for w in paper-figures design-sweep cache-geometry single-config; do
    for trace in 0 1; do
        echo "==> smoke: $w, trace $trace"
        benchmark/run.sh --workload "$w" --smoke --trace "$trace" >"$out/$w.$trace.txt"
        python3 - "$out/$w.$trace.txt" "$trace" "benchmark/results/trace_$w.json" <<'EOF'
import json, sys

lines = open(sys.argv[1]).read().splitlines()
traced = sys.argv[2] == "1"
declared = json.load(open("BENCHMARK.json"))["per_layer" if traced else "end_to_end"]
result = json.loads(lines[-1])
assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
want = {d["name"]: d["unit"] for d in declared}
got = {name: m["unit"] for name, m in result["metrics"].items()}
assert got == want, f"printed metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
if traced:
    events = json.load(open(sys.argv[3]))["traceEvents"]
    assert any(e["ph"] == "X" for e in events), "the trace holds no spans"
EOF
    done
done
echo "==> smoke passes took $((SECONDS - start)) s"
echo "==> benchmark check passed"
