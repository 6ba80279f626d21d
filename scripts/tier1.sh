#!/usr/bin/env sh
# Tier-1 gate: offline release build + tests (+ clippy when available).
#
# The workspace has no registry dependencies, so everything here must pass
# on a machine with no network access. Run from anywhere:
#
#   scripts/tier1.sh
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo"

# Build warnings are errors throughout the gate.
RUSTFLAGS="${RUSTFLAGS:-} -D warnings"
export RUSTFLAGS

echo "==> cargo build --release --offline (RUSTFLAGS: -D warnings)"
cargo build --release --offline

echo "==> cargo test -q --workspace --offline"
cargo test -q --workspace --offline

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets --offline -- -D warnings"
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "==> cargo clippy not installed; skipping lint step"
fi

# Rustdoc lane: broken or private intra-doc links fail the gate, so docs
# cannot keep pointing at deleted items.
echo "==> cargo doc --workspace --no-deps --offline (RUSTDOCFLAGS: -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Smoke-run the sweep bench (1 sample, tiny scene — includes the
# grid/trace-replay lanes pricing 102 and 32 cache configs, each from one
# Mattson walk), the trace bin (tiny preset) and the heatmap bin (tiny
# preset, small scene) into a scratch dir, then validate that the emitted
# BENCH_*.json, TRACE_*.json, HEATMAP_*.json and METRICS_*.json artefacts
# parse with the expected schemas — and gate the sweep's simulated cycle
# totals against the committed baseline at the fixed 15% tolerance.
#
# The default sweep run also profiles the pipeline on the host and writes
# METRICS_sweep.json; bench_check fails the gate if a required pipeline
# phase is missing, a span escapes its parent or overlaps a sibling, or
# any worker breaks the exact `busy + idle == wall` identity.
echo "==> sweep bench + trace/heatmap smoke + artefact schema check + regression gate"
bench_dir=$(mktemp -d)
threads_dir=$(mktemp -d)
trap 'rm -rf "$bench_dir" "$threads_dir"' EXIT
SORTMID_BENCH_SAMPLES=1 SORTMID_BENCH_WARMUP=0 SORTMID_BENCH_DIR="$bench_dir" \
    cargo run -q --release --offline -p sortmid-bench --bin sweep
test -f "$bench_dir/METRICS_sweep.json" || {
    echo "tier1: sweep bench did not emit METRICS_sweep.json" >&2
    exit 1
}
SORTMID_BENCH_DIR="$bench_dir" \
    cargo run -q --release --offline -p sortmid-bench --bin trace -- --scale 0.05 tiny
SORTMID_BENCH_DIR="$bench_dir" \
    cargo run -q --release --offline -p sortmid-bench --bin heatmap -- --scale 0.05 --tile 16 tiny

# Differential observability smoke: the self-diff of the fresh sweep
# artefact must be exactly zero at every level (--expect-zero exits
# nonzero otherwise) and leaves a DIFF_selfdiff.json behind; the gate run
# below then explains its verdict against the committed baseline and
# writes DIFF_gate.json — bench_check rescans the directory afterwards,
# so both DIFF documents are themselves schema-validated.
cargo run -q --release --offline -p sortmid-bench --bin sortmid-diff -- \
    "$bench_dir/BENCH_sweep.json" "$bench_dir/BENCH_sweep.json" \
    --expect-zero --json "$bench_dir/DIFF_selfdiff.json"
cargo run -q --release --offline -p sortmid-bench --bin bench_check -- \
    "$bench_dir" --against "$repo/BENCH_baseline.json" \
    --explain --json "$bench_dir/DIFF_gate.json"

# The committed root artefacts (BENCH_baseline.json, METRICS_sweep.json)
# must decode, verify and self-diff to exactly zero, so a decoder that
# rejects what is committed fails here rather than in the gate.
cargo run -q --release --offline -p sortmid-bench --bin bench_check
for artefact in BENCH_baseline.json METRICS_sweep.json; do
    cargo run -q --release --offline -p sortmid-bench --bin sortmid-diff -- \
        "$repo/$artefact" "$repo/$artefact" --expect-zero
done

# Scheduler determinism: the work-stealing pool must simulate identical
# cycles at any thread count. Re-run the sweep pinned to 3 workers and
# demand an exactly-zero diff against the default-thread artefact
# (provenance comparison ignores host/build, so the cross-process diff
# keys purely on simulated results).
SORTMID_BENCH_SAMPLES=1 SORTMID_BENCH_WARMUP=0 SORTMID_BENCH_DIR="$threads_dir" \
    cargo run -q --release --offline -p sortmid-bench --bin sweep -- --threads 3
cargo run -q --release --offline -p sortmid-bench --bin sortmid-diff -- \
    "$bench_dir/BENCH_sweep.json" "$threads_dir/BENCH_sweep.json" \
    --expect-zero --json "$threads_dir/DIFF_threads.json"

# The engine == reference-oracle property lane, in release (the debug run
# above already covered it functionally; release exercises the SWAR probe
# the engine actually ships).
echo "==> engine-vs-reference property lane (release)"
cargo test -q --release --offline --test batched

# The stack-distance equivalence lane, in release: the optimised walk
# kernel must still price every geometry exactly as direct simulation.
echo "==> stack-distance-vs-direct property lane (release)"
cargo test -q --release --offline --test stackdist

# Benchmark smoke runs of every workload: a run whose identity,
# pixel-conservation or digest-stability checks fail exits nonzero. The
# two sweep workloads also check a 1-in-64 sample of their reports
# against direct Machine::run results.
echo "==> benchmark smoke: single-config, paper-figures, design-sweep, cache-geometry"
bash benchmark/run.sh --workload single-config --smoke
bash benchmark/run.sh --workload paper-figures --smoke
bash benchmark/run.sh --workload design-sweep --smoke
bash benchmark/run.sh --workload cache-geometry --smoke

echo "tier1: OK"
