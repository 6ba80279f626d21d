//! Scheduler determinism: the longest-first sweep pool must emit reports
//! byte-identical to the sequential reference for every thread count and
//! across repeated runs (claim interleavings must not leak into results),
//! equal to each config's own `Machine::run` on every path — and one
//! cross-scene batch of tasks must emit exactly the reports of one sweep
//! per scene.

use sortmid::{
    run_sweep_with_threads, run_sweeps, CacheKind, Distribution, HostProfiler, Machine,
    MachineConfig, NullHostSink, SweepGrid, SweepOptions,
};
use sortmid_cache::{CacheGeometry, STACKDIST_MIN_REQUESTS};
use sortmid_devharness::json::Json;
use sortmid_raster::FragmentStream;
use sortmid_scene::{Benchmark, SceneBuilder};

fn stream() -> FragmentStream {
    SceneBuilder::benchmark(Benchmark::Quake)
        .scale(0.1)
        .build()
        .rasterize()
}

/// A grid that exercises every scheduler task kind: two plan groups, one
/// of them dense enough in set-associative geometries (every size
/// 512 B–64 KB × ways 1–8) for the Mattson walk, plus captured
/// perfect/paper-L1 pairs.
fn mixed_grid() -> Vec<sortmid::MachineConfig> {
    let geometries: Vec<CacheGeometry> = (9..=16)
        .flat_map(|log| [1, 2, 4, 8].map(|ways| CacheGeometry::new(1 << log, ways, 64).unwrap()))
        .collect();
    assert_eq!(geometries.len(), STACKDIST_MIN_REQUESTS);
    let mut grid = SweepGrid::new()
        .processors([4])
        .distributions([Distribution::block(16)])
        .caches(geometries.into_iter().map(CacheKind::SetAssoc))
        .buffers([8, 10_000])
        .build();
    grid.extend(
        SweepGrid::new()
            .processors([4])
            .distributions([Distribution::block(16), Distribution::sli(2)])
            .caches([CacheKind::Perfect, CacheKind::PaperL1])
            .buffers([8, 10_000])
            .build(),
    );
    grid
}

fn options(threads: usize) -> SweepOptions {
    SweepOptions { threads }
}

#[test]
fn pool_reports_are_identical_across_thread_counts() {
    let s = stream();
    let configs = mixed_grid();
    let reference = run_sweep_with_threads(&s, &configs, 1);
    for threads in [2usize, 3, 8] {
        let swept = run_sweep_with_threads(&s, &configs, threads);
        assert_eq!(swept, reference, "pool schedule at {threads} threads");
    }
}

#[test]
fn pool_reports_are_identical_across_repeated_runs() {
    // Claim interleavings differ run to run; the reports must not.
    let s = stream();
    let configs = mixed_grid();
    let reference = run_sweep_with_threads(&s, &configs, 3);
    for round in 0..3 {
        let swept = run_sweep_with_threads(&s, &configs, 3);
        assert_eq!(swept, reference, "repeated pool run {round}");
    }
}

#[test]
fn scheduler_reports_match_direct_runs_at_every_thread_count() {
    // Every path the pool schedules (Mattson walk, captures, direct runs)
    // must emit exactly each config's own `Machine::run` report, whatever
    // the thread count.
    let s = stream();
    let configs = mixed_grid();
    let direct: Vec<_> = configs.iter().map(|c| Machine::new(c.clone()).run(&s)).collect();
    for threads in [1usize, 2, 3, 8] {
        let swept = run_sweep_with_threads(&s, &configs, threads);
        for ((config, report), direct) in configs.iter().zip(&swept).zip(&direct) {
            assert_eq!(report, direct, "{} at {threads} threads", config.summary());
        }
    }
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
        assert_eq!(swept, expected, "cross-scene batch at {threads} threads");
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
