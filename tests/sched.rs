//! Scheduler determinism: the work-stealing sweep pipeline must emit
//! reports byte-identical to the sequential reference for every thread
//! count and across repeated runs (steal interleavings must not leak into
//! results), with and without the stack-distance replay path — and one
//! cross-scene task graph must emit exactly the reports of one sweep per
//! scene.

use sortmid::{
    run_sweep_with_options, run_sweep_with_threads, run_sweeps, CacheKind, Distribution,
    HostProfiler, MachineConfig, NullHostSink, SweepGrid, SweepOptions,
};
use sortmid_cache::CacheGeometry;
use sortmid_devharness::json::Json;
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

/// Three scenes with grids that together take every config path: the
/// mixed grid plus two lone configs (stack-distance replay, captured and
/// direct), a perfect-cache buffer pair per plan (captured only), and a
/// processor scan (direct only).
fn scene_jobs() -> (Vec<FragmentStream>, Vec<Vec<MachineConfig>>) {
    let streams = [Benchmark::Quake, Benchmark::Room3, Benchmark::TeapotFull]
        .iter()
        .map(|&b| SceneBuilder::benchmark(b).scale(0.08).build().rasterize())
        .collect();
    let mut with_direct = mixed_grid();
    with_direct.extend(SweepGrid::new().processors([2, 8]).build());
    let grids = vec![
        with_direct,
        SweepGrid::new()
            .processors([4])
            .distributions([Distribution::block(16), Distribution::sli(2)])
            .caches([CacheKind::Perfect])
            .buffers([8, 10_000])
            .build(),
        SweepGrid::new().processors([1, 4, 16]).build(),
    ];
    (streams, grids)
}

#[test]
fn cross_scene_sweeps_match_per_scene_sweeps() {
    let (streams, grids) = scene_jobs();
    let jobs: Vec<(&FragmentStream, &[MachineConfig])> =
        streams.iter().zip(&grids).map(|(s, g)| (s, g.as_slice())).collect();
    let expected: Vec<String> = jobs
        .iter()
        .map(|&(s, g)| format!("{:?}", run_sweep_with_threads(s, g, 1)))
        .collect();
    for threads in [1usize, 2, 3] {
        let swept: Vec<String> = run_sweeps(&jobs, options(threads), &NullHostSink)
            .iter()
            .map(|reports| format!("{reports:?}"))
            .collect();
        assert_eq!(swept, expected, "cross-scene task graph at {threads} threads");
    }

    // The jobs really do take every path.
    let prof = HostProfiler::new();
    run_sweeps(&jobs, options(2), &prof);
    let profile = prof.finish();
    let counters = profile.metrics.get("counters").expect("counters object");
    let count = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
    for path in ["direct", "captured", "replay"] {
        assert!(count(&format!("sweep.path.{path}")) > 0, "no config took the {path} path");
    }
    let total: usize = grids.iter().map(Vec::len).sum();
    assert_eq!(count("sweep.configs"), total as u64);
}

#[test]
fn cross_scene_sweeps_handle_empty_jobs() {
    let s = stream();
    let grid = SweepGrid::new().processors([1, 4]).build();
    assert!(run_sweeps(&[], options(2), &NullHostSink).is_empty());
    let none: &[MachineConfig] = &[];
    let all_empty = run_sweeps(&[(&s, none), (&s, none)], options(2), &NullHostSink);
    assert_eq!(all_empty, vec![Vec::new(), Vec::new()]);
    let mixed = run_sweeps(&[(&s, none), (&s, &grid), (&s, none)], options(2), &NullHostSink);
    assert_eq!(mixed, vec![Vec::new(), run_sweep_with_threads(&s, &grid, 1), Vec::new()]);
}
