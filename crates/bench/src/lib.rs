//! Shared setup for the `sortmid` bench binaries.
//!
//! Each bench target regenerates (a representative configuration of) one
//! table or figure of the paper; the full sweeps live in
//! `sortmid-experiments`. Benches run scenes at a small scale so each
//! bench binary finishes in minutes on one core — the *relative* numbers
//! (which distribution wins, how much a small buffer costs) are the same
//! shapes the paper reports.

use sortmid::{CacheKind, Distribution, Machine, MachineConfig, RunReport};
use sortmid_observe::Provenance;
use sortmid_raster::FragmentStream;
use sortmid_scene::{Benchmark, Scene, SceneBuilder};

/// The scale benches run scenes at.
pub const BENCH_SCALE: f64 = 0.12;

/// Builds a benchmark scene at [`BENCH_SCALE`].
pub fn scene(benchmark: Benchmark) -> Scene {
    SceneBuilder::benchmark(benchmark).scale(BENCH_SCALE).build()
}

/// Builds and rasterizes a benchmark scene at [`BENCH_SCALE`].
pub fn stream(benchmark: Benchmark) -> FragmentStream {
    scene(benchmark).rasterize()
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

/// Runs one machine configuration over a stream.
pub fn run_machine(
    stream: &FragmentStream,
    procs: u32,
    dist: Distribution,
    cache: CacheKind,
    bus_ratio: Option<f64>,
    buffer: usize,
) -> RunReport {
    let mut b = MachineConfig::builder();
    b.processors(procs)
        .distribution(dist)
        .cache(cache)
        .triangle_buffer(buffer);
    match bus_ratio {
        Some(r) => b.bus_ratio(r),
        None => b.infinite_bus(),
    };
    Machine::new(b.build().expect("valid bench config")).run(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_runnable_setups() {
        let s = stream(Benchmark::Quake);
        assert!(s.fragment_count() > 0);
        let r = run_machine(&s, 4, Distribution::block(16), CacheKind::Perfect, Some(1.0), 100);
        assert!(r.total_cycles() > 0);
    }
}
