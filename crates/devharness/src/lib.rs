//! In-repo development harness: property testing and benchmarking with no
//! external dependencies.
//!
//! The workspace must build and test **fully offline** (the tier-1 gate is
//! `cargo build --release && cargo test -q` with no registry access), so the
//! usual crates-io tools — `proptest` for randomized properties, `criterion`
//! for benches — are off the table. This crate re-implements the slices of
//! both that the simulator actually uses:
//!
//! * [`rng`] — splitmix64 and xoshiro256** generators (deterministic,
//!   seedable, platform-independent);
//! * [`prop`] — a property-test runner over a recorded *choice tape*, with
//!   configurable case counts, seed reporting on failure, and
//!   shrink-towards-zero minimisation of counterexamples;
//! * [`bench`](mod@bench) — a criterion-style bench suite (warmup, N timed iterations,
//!   median/p10/p90, optional throughput) that writes machine-readable
//!   `BENCH_<name>.json` files so the perf trajectory is tracked across PRs;
//! * [`json`] — the minimal JSON document model the bench writer emits.
//!
//! # Reproducing a property failure
//!
//! A falsified property panics with the base seed of the run:
//!
//! ```text
//! property 'capacity_and_mru' falsified at case 17/96 (base seed 0x5eed5eed5eed5eed)
//!   counterexample: [4, 4, 12]
//!   error: residency 9 exceeds capacity
//!   replay: DEVHARNESS_SEED=0x5eed5eed5eed5eed cargo test -q <test name>
//! ```
//!
//! Setting `DEVHARNESS_SEED` replays the identical case sequence, so the
//! failure reproduces before any code change.

pub mod bench;
pub mod json;
pub mod prop;
pub mod rng;

pub use bench::{BenchConfig, BenchResult, Suite};
pub use json::Json;
pub use prop::{check, Config, Gen};
pub use rng::{SplitMix64, Xoshiro256};
