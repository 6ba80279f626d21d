//! Host-profiling integration: the profiled sweep pipeline must be
//! observationally identical to the unprofiled one, and the sealed
//! [`HostProfile`] must satisfy every invariant `bench_check` gates
//! (span nesting, sibling non-overlap, exact per-worker
//! `busy + idle == wall`) while covering the named pipeline phases.

use sortmid::{
    run_sweep_profiled, run_sweep_with_threads, CacheKind, Distribution, HostProfile,
    HostProfiler, Machine, SweepGrid, SweepOptions,
};
use sortmid_cache::{CacheGeometry, STACKDIST_MIN_REQUESTS};
use sortmid_devharness::json::Json;
use sortmid_observe::{Provenance, Schema};
use sortmid_raster::FragmentStream;
use sortmid_scene::{Benchmark, SceneBuilder};

fn stream() -> FragmentStream {
    SceneBuilder::benchmark(Benchmark::Quake)
        .scale(0.1)
        .build()
        .rasterize()
}

/// Every size 512 B–64 KB × ways 1–8: exactly `STACKDIST_MIN_REQUESTS`
/// geometries, the smallest grid a plan prices with the Mattson walk.
fn walk_geometries() -> Vec<CacheGeometry> {
    let geometries: Vec<CacheGeometry> = (9..=16)
        .flat_map(|log| [1, 2, 4, 8].map(|ways| CacheGeometry::new(1 << log, ways, 64).unwrap()))
        .collect();
    assert_eq!(geometries.len(), STACKDIST_MIN_REQUESTS);
    geometries
}

/// A grid that takes every cache model: the walk's geometries on each of
/// two plans (one Mattson walk per plan, paper-L1 included), plus
/// perfect-cache pairs sharing one cache model.
fn mixed_grid() -> Vec<sortmid::MachineConfig> {
    let mut caches = vec![CacheKind::Perfect, CacheKind::PaperL1];
    caches.extend(walk_geometries().into_iter().map(CacheKind::SetAssoc));
    SweepGrid::new()
        .processors([4])
        .distributions([Distribution::block(16), Distribution::sli(2)])
        .caches(caches)
        .buffers([8, 10_000])
        .build()
}

fn profiled_run() -> HostProfile {
    let s = stream();
    let configs = mixed_grid();
    let options = SweepOptions { threads: 3 };
    let prof = HostProfiler::new();
    let profiled = run_sweep_profiled(&s, &configs, options, &prof);
    let plain = run_sweep_with_threads(&s, &configs, options.threads);
    assert_eq!(
        profiled, plain,
        "host profiling must not perturb the simulation"
    );
    prof.finish()
}

#[test]
fn profiled_sweep_is_identical_and_profile_verifies() {
    let profile = profiled_run();
    profile.verify().expect("structural invariants must hold");

    let phases = profile.phase_names();
    assert!(
        phases.len() >= 6,
        "span tree must cover >= 6 pipeline phases, got {phases:?}"
    );
    for phase in [
        "run-sweep",
        "plan-build",
        "path-select",
        "capture",
        "mattson-walk",
        "run-configs",
        "worker-run",
    ] {
        assert!(phases.contains(&phase), "missing phase {phase}: {phases:?}");
    }

    // Worker utilization: three workers, each holding the exact identity.
    let workers: Vec<_> = profile
        .workers
        .iter()
        .filter(|w| w.lane == "run-configs")
        .collect();
    assert_eq!(workers.len(), 3);
    let mut items = 0;
    for w in &workers {
        assert_eq!(w.busy_ns + w.idle_ns(), w.wall_ns);
        assert!(w.utilization() <= 1.0);
        items += w.items;
    }
    assert_eq!(items as usize, mixed_grid().len(), "every config ran on some worker");

    // The metrics registry saw the path split: the walk serves every
    // set-associative config (33 geometries x 2 buffers per plan), the
    // perfect pairs share a model whose pass probes no fragment.
    let counters = profile.metrics.get("counters").expect("counters object");
    let count = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(count("sweep.configs"), mixed_grid().len() as u64);
    assert_eq!(count("sweep.plans"), 2);
    assert_eq!(
        count("sweep.path.direct") + count("sweep.path.captured") + count("sweep.path.replay"),
        mixed_grid().len() as u64,
        "every config took exactly one path"
    );
    assert_eq!(count("sweep.path.replay"), 2 * 33 * 2, "the walk serves every geometry");
    assert_eq!(count("sweep.path.captured"), 2 * 2, "the perfect pairs share a model");
    assert_eq!(count("sweep.captures"), 0, "a perfect model's pass probes nothing");
}

/// The one shared-cache rule: below `STACKDIST_MIN_REQUESTS` geometries
/// a plan takes no Mattson walk, however many configs it holds. A
/// design-sweep-shaped group (paper L1 × 2 buses × 3 buffers) and a
/// six-geometry set-associative group (× 2 buffers) share captures, no
/// Mattson walk runs, and every report equals a direct run.
#[test]
fn groups_below_the_walk_threshold_share_captures() {
    let s = stream();
    let mut configs = SweepGrid::new()
        .processors([16])
        .distributions([Distribution::block(16)])
        .caches([CacheKind::PaperL1])
        .bus_ratios([Some(1.0), Some(2.0)])
        .buffers([100, 500, 10_000])
        .build();
    configs.extend(
        SweepGrid::new()
            .processors([4])
            .distributions([Distribution::sli(2)])
            .caches(walk_geometries()[..6].iter().map(|&g| CacheKind::SetAssoc(g)))
            .buffers([8, 10_000])
            .build(),
    );
    let prof = HostProfiler::new();
    let options = SweepOptions { threads: 2 };
    let reports = run_sweep_profiled(&s, &configs, options, &prof);
    let profile = prof.finish();
    profile.verify().expect("structural invariants must hold");

    let counters = profile.metrics.get("counters").expect("counters object");
    let count = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(count("sweep.path.captured"), configs.len() as u64);
    assert_eq!(count("sweep.path.replay") + count("sweep.path.direct"), 0);
    assert_eq!(count("sweep.captures"), 1 + 6, "one probing pass per shared model");
    let phases = profile.phase_names();
    assert!(!phases.contains(&"mattson-walk"), "unexpected walk: {phases:?}");
    for (config, report) in configs.iter().zip(&reports) {
        let direct = Machine::new(config.clone()).run(&s);
        assert_eq!(report, &direct, "{}", config.summary());
    }
}

#[test]
fn profile_json_round_trips_with_the_artefact_schema() {
    let profile = profiled_run();
    let doc = profile.document("sweep", Provenance::collect(0, 0)).to_json();
    let text = doc.render();
    let back = Json::parse(&text).expect("profile renders valid JSON");
    assert_eq!(back.render(), text, "render/parse round trip is stable");

    assert_eq!(back.get("profile").and_then(Json::as_str), Some("sweep"));
    assert!(back.get("peak_rss_bytes").and_then(Json::as_u64).is_some());

    // Spans: parents resolve, children stay inside them, on their thread.
    let spans = back.get("spans").and_then(Json::as_arr).expect("spans");
    assert!(!spans.is_empty());
    for span in spans {
        let start = span.get("start_ns").and_then(Json::as_u64).unwrap();
        let dur = span.get("dur_ns").and_then(Json::as_u64).unwrap();
        let thread = span.get("thread").and_then(Json::as_u64).unwrap();
        match span.get("parent") {
            Some(Json::Null) => {}
            Some(Json::U64(p)) => {
                let parent = &spans[*p as usize];
                let p_start = parent.get("start_ns").and_then(Json::as_u64).unwrap();
                let p_dur = parent.get("dur_ns").and_then(Json::as_u64).unwrap();
                assert_eq!(
                    parent.get("thread").and_then(Json::as_u64),
                    Some(thread),
                    "child and parent share a thread"
                );
                assert!(start >= p_start && start + dur <= p_start + p_dur);
            }
            other => panic!("span parent must be null or an index, got {other:?}"),
        }
    }

    // Workers: the serialized identity is exact.
    let workers = back.get("workers").and_then(Json::as_arr).expect("workers");
    assert!(!workers.is_empty());
    for w in workers {
        let wall = w.get("wall_ns").and_then(Json::as_u64).unwrap();
        let busy = w.get("busy_ns").and_then(Json::as_u64).unwrap();
        let idle = w.get("idle_ns").and_then(Json::as_u64).unwrap();
        assert_eq!(busy + idle, wall);
    }

    // Phase totals: self time never exceeds inclusive time.
    let phases = back.get("phases").and_then(Json::as_arr).expect("phases");
    assert!(phases.len() >= 6);
    for p in phases {
        let total = p.get("total_ns").and_then(Json::as_u64).unwrap();
        let self_ns = p.get("self_ns").and_then(Json::as_u64).unwrap();
        assert!(self_ns <= total);
    }
}

#[test]
fn sequential_sweep_still_reports_a_worker() {
    // threads=1 takes the sequential path; the calling thread must still
    // report utilization so the worker-identity gate has a record.
    let s = stream();
    let configs = SweepGrid::new()
        .processors([4])
        .distributions([Distribution::block(16)])
        .caches([CacheKind::Perfect, CacheKind::PaperL1])
        .build();
    let options = SweepOptions { threads: 1 };
    let prof = HostProfiler::new();
    let profiled = run_sweep_profiled(&s, &configs, options, &prof);
    assert_eq!(profiled, run_sweep_with_threads(&s, &configs, options.threads));
    let profile = prof.finish();
    profile.verify().unwrap();
    let rc: Vec<_> = profile.workers.iter().filter(|w| w.lane == "run-configs").collect();
    assert_eq!(rc.len(), 1);
    let w = rc[0];
    assert_eq!(w.worker, 0);
    assert_eq!(w.items as usize, configs.len());
    assert_eq!(w.busy_ns + w.idle_ns(), w.wall_ns);
    // The scheduler pool reports its own lane too, even single-threaded:
    // one task, the plan's frame group, which reports both configs.
    let pool: Vec<_> = profile.workers.iter().filter(|w| w.lane == "sched-pool").collect();
    assert_eq!(pool.len(), 1);
    assert_eq!(pool[0].items, 1, "one task per frame group");
    assert!(profile.phase_names().contains(&"worker-run"));
}
