//! Shared setup for the `sortmid` bench binaries: the sweep and primitive
//! benches, the trace and heatmap exporters, and the artefact gate
//! (`bench_check`) and differ (`sortmid-diff`).
//!
//! The paper's tables and figures are regenerated by
//! `sortmid-experiments`, and the repository benchmark (`benchmark/`)
//! times every figure. Benches run scenes at a small scale so each bench
//! binary finishes in minutes on one core.

use sortmid::MachineConfig;
use sortmid_observe::Provenance;
use sortmid_raster::FragmentStream;
use sortmid_scene::{Benchmark, SceneBuilder};

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_runnable_setups() {
        assert!(stream(Benchmark::Quake).fragment_count() > 0);
    }
}
