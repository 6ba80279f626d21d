//! Shared setup for the `sortmid` bench binaries: the sweep and primitive
//! benches, the trace and heatmap exporters, and the artefact gate
//! (`bench_check`) and differ (`sortmid-diff`).
//!
//! The paper's tables and figures are regenerated by
//! `sortmid-experiments`, and the repository benchmark (`benchmark/`)
//! times every figure. Benches run scenes at a small scale so each bench
//! binary finishes in minutes on one core.
//!
//! This crate also owns the `BENCH_*.json` documents: [`BenchSuite`] (any
//! suite) and [`SweepSuite`] (the sweep's, with its cycle breakdowns and
//! [`SweepExtras`]) are declared once here, so the benches emit and
//! `bench_check` decodes the same field tables. Every bin writes its
//! artefacts through [`write_artifact`].

use sortmid::MachineConfig;
use sortmid_devharness::{BenchResult, Suite};
use sortmid_observe::artifact::Omit;
use sortmid_observe::{record, Artifact, Merged, Provenance, SweepBreakdowns};
use sortmid_raster::FragmentStream;
use sortmid_scene::{Benchmark, SceneBuilder};
use std::path::PathBuf;

/// The scale benches run scenes at.
pub const BENCH_SCALE: f64 = 0.12;

/// Builds and rasterizes a benchmark scene at [`BENCH_SCALE`].
pub fn stream(benchmark: Benchmark) -> FragmentStream {
    SceneBuilder::benchmark(benchmark).scale(BENCH_SCALE).build().rasterize()
}

/// The provenance block every bench artefact embeds: the benchmark
/// scene's RNG seed plus the hash of the machine-config grid the
/// artefact measures (see `sortmid::grid_hash`). The differ and
/// `bench_check` refuse to compare artefacts whose blocks disagree on
/// schema, seed or grid.
pub fn run_provenance(benchmark: Benchmark, configs: &[MachineConfig]) -> Provenance {
    Provenance::collect(
        SceneBuilder::benchmark(benchmark).config().seed,
        sortmid::grid_hash(configs),
    )
}

/// Writes `body` as `file` into the artefact directory —
/// `SORTMID_BENCH_DIR` when set, else the current directory, created if
/// missing — and returns its path.
///
/// # Errors
///
/// Names the directory or file that cannot be written.
pub fn write_artifact(file: &str, body: impl AsRef<[u8]>) -> Result<PathBuf, String> {
    let dir = std::env::var_os("SORTMID_BENCH_DIR");
    let dir = dir.map_or_else(|| PathBuf::from("."), PathBuf::from);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

record! {
    /// One lane of a `BENCH_*.json` suite: a [`BenchResult`], its median
    /// again as `p50_ns` (so tooling reads the p50/p90/p99 triple
    /// uniformly) and its median throughput (left out, like `elements`,
    /// without a declared element count).
    #[derive(Debug, Clone, PartialEq)]
    pub struct Lane {
        pub id: String,
        pub median_ns: u64,
        pub p10_ns: u64,
        pub p50_ns: u64,
        pub p90_ns: u64,
        pub p99_ns: u64,
        pub min_ns: u64,
        pub mad_ns: u64,
        pub samples_ns: Vec<u64>,
        pub elements: Omit<u64>,
        pub throughput_per_sec: Omit<f64>,
    }
}

impl From<&BenchResult> for Lane {
    fn from(r: &BenchResult) -> Lane {
        Lane {
            id: r.id.clone(),
            median_ns: r.median_ns,
            p10_ns: r.p10_ns,
            p50_ns: r.median_ns,
            p90_ns: r.p90_ns,
            p99_ns: r.p99_ns,
            min_ns: r.min_ns,
            mad_ns: r.mad_ns,
            samples_ns: r.samples_ns.clone(),
            elements: Omit(r.elements),
            throughput_per_sec: Omit(r.throughput_per_sec()),
        }
    }
}

record! {
    /// A `BENCH_<name>.json` suite: its name, run parameters and lanes.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BenchSuite {
        pub suite: String,
        pub warmup_iters: u64,
        pub samples: u64,
        pub benchmarks: Vec<Lane>,
    }
}

impl BenchSuite {
    /// The document of a measured suite.
    pub fn of(suite: &Suite) -> BenchSuite {
        BenchSuite {
            suite: suite.name().to_string(),
            warmup_iters: suite.config().warmup_iters.into(),
            samples: suite.config().samples.into(),
            benchmarks: suite.results().iter().map(Lane::from).collect(),
        }
    }
}

impl Artifact for BenchSuite {
    /// The suite has lanes, and every lane has samples.
    fn verify(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.benchmarks.is_empty() {
            problems.push("'benchmarks' is empty".to_string());
        }
        for lane in self.benchmarks.iter().filter(|l| l.samples_ns.is_empty()) {
            problems.push(format!("{}: 'samples_ns' is empty", lane.id));
        }
        problems
    }
}

record! {
    /// The sweep's `grid/shared-plan` median against the one recorded
    /// before tracing landed.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Reference {
        pub id: String,
        pub pre_pr_median_ns: u64,
        pub median_ns: u64,
        pub ratio: f64,
    }
}

record! {
    /// The sweep's dense trace-replay lane against its base lane, and the
    /// marginal cost of each extra cache config.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TraceReplay {
        pub id: String,
        pub configs: u64,
        pub base_configs: u64,
        pub median_ns: u64,
        pub base_median_ns: u64,
        pub marginal_ns_per_config: f64,
    }
}

record! {
    /// The sweep suite's last two members.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SweepExtras {
        pub reference: Reference,
        pub trace_replay: TraceReplay,
    }
}

/// The extras promise no identity; the bounds the dense lane must meet
/// are `bench_check` policy.
impl Artifact for SweepExtras {}

/// `BENCH_sweep.json`: the suite's members, then the cycle breakdowns'
/// ([`SweepBreakdowns`]), then [`SweepExtras`].
pub type SweepSuite = Merged<BenchSuite, Merged<SweepBreakdowns, SweepExtras>>;

#[cfg(test)]
mod tests {
    use super::*;
    use sortmid_devharness::{BenchConfig, Json};
    use sortmid_observe::Schema;

    #[test]
    fn helpers_produce_runnable_setups() {
        assert!(stream(Benchmark::Quake).fragment_count() > 0);
    }

    #[test]
    fn a_suite_document_round_trips_with_its_contract_keys() {
        let mut suite = Suite::with_config("contract", BenchConfig { warmup_iters: 1, samples: 5 });
        suite.bench_with_elements("t", 100, || 1 + 1);
        suite.bench("untimed-throughput", || ());
        let text = BenchSuite::of(&suite).to_json().render();
        for key in [
            "{\"suite\":\"contract\",\"warmup_iters\":1,\"samples\":5,\"benchmarks\":[",
            "\"p50_ns\":",
            "\"mad_ns\":",
            "\"elements\":100,\"throughput_per_sec\":",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        // A lane without an element count leaves both members out.
        assert_eq!(text.matches("elements").count(), 1, "{text}");
        let back = BenchSuite::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.benchmarks[1].throughput_per_sec, Omit(None));
        assert_eq!(back.to_json().render(), text);
        assert!(back.verify().is_empty());
    }

    #[test]
    fn the_committed_baseline_is_a_sweep_suite() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let sweep = SweepSuite::from_json(&doc).unwrap();
        assert!(sweep.verify().is_empty(), "{:?}", sweep.verify());
        assert_eq!(sweep.1 .1.trace_replay.configs, 102);
    }

    #[test]
    fn an_empty_suite_fails_verify() {
        let suite = Suite::with_config("empty", BenchConfig { warmup_iters: 0, samples: 1 });
        assert_eq!(BenchSuite::of(&suite).verify(), ["'benchmarks' is empty"]);
    }

    #[test]
    fn artefacts_land_in_the_bench_dir() {
        let dir = std::env::temp_dir().join(format!("sortmid-bench-test-{}", std::process::id()));
        // The env var is process-global; this is the only test that sets it.
        std::env::set_var("SORTMID_BENCH_DIR", &dir);
        let path = write_artifact("BENCH_write-test.json", "{}");
        std::env::remove_var("SORTMID_BENCH_DIR");
        let path = path.unwrap();
        assert_eq!(path, dir.join("BENCH_write-test.json"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
