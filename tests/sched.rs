//! Scheduler determinism: the work-stealing sweep pipeline must emit
//! reports byte-identical to the sequential reference for every thread
//! count and across repeated runs (steal interleavings must not leak into
//! results), with and without the stack-distance replay path.

use sortmid::{run_sweep_with_options, CacheKind, Distribution, SweepGrid, SweepOptions};
use sortmid_cache::CacheGeometry;
use sortmid_raster::FragmentStream;
use sortmid_scene::{Benchmark, SceneBuilder};

fn stream() -> FragmentStream {
    SceneBuilder::benchmark(Benchmark::Quake)
        .scale(0.1)
        .build()
        .rasterize()
}

/// A grid that exercises every scheduler task kind: two plan groups, a
/// replay-eligible set-associative span, captured perfect/paper-L1 pairs,
/// and a direct remainder.
fn mixed_grid() -> Vec<sortmid::MachineConfig> {
    let mut caches = vec![CacheKind::Perfect, CacheKind::PaperL1];
    for log_size in 12..16 {
        let g = CacheGeometry::new(1 << log_size, 4, 64).unwrap();
        caches.push(CacheKind::SetAssoc(g));
    }
    SweepGrid::new()
        .processors([4])
        .distributions([Distribution::block(16), Distribution::sli(2)])
        .caches(caches)
        .buffers([8, 10_000])
        .build()
}

fn options(threads: usize) -> SweepOptions {
    SweepOptions { threads, replay: true }
}

#[test]
fn work_stealing_reports_are_identical_across_thread_counts() {
    let s = stream();
    let configs = mixed_grid();
    let reference = run_sweep_with_options(&s, &configs, options(1));
    for threads in [2usize, 3, 8] {
        let swept = run_sweep_with_options(&s, &configs, options(threads));
        assert_eq!(swept, reference, "work-stealing schedule at {threads} threads");
    }
}

#[test]
fn work_stealing_reports_are_identical_across_repeated_runs() {
    // Steal interleavings differ run to run; the reports must not.
    let s = stream();
    let configs = mixed_grid();
    let reference = run_sweep_with_options(&s, &configs, options(3));
    for round in 0..3 {
        let swept = run_sweep_with_options(&s, &configs, options(3));
        assert_eq!(swept, reference, "repeated work-stealing run {round}");
    }
}

#[test]
fn scheduler_determinism_holds_on_the_escape_hatch_pipelines() {
    // The pool also schedules the --no-replay pipeline (captures and
    // direct runs only); its reports must stay schedule-independent and
    // equal the default pipeline's.
    let s = stream();
    let configs = mixed_grid();
    let no_replay = |threads| SweepOptions { threads, replay: false };
    let reference = run_sweep_with_options(&s, &configs, no_replay(1));
    for threads in [2usize, 3, 8] {
        let swept = run_sweep_with_options(&s, &configs, no_replay(threads));
        assert_eq!(swept, reference, "--no-replay at {threads} threads");
    }
    assert_eq!(reference, run_sweep_with_options(&s, &configs, options(3)));
}
