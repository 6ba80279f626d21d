//! One schema per artefact: each owner type's decoder reads back exactly
//! what its emitter wrote. For every kind, `from_json(emit(x))` must
//! re-emit byte-identical JSON and `verify()` must find nothing to report
//! — on a real sweep's cycle breakdowns, on spatial collectors fed random
//! fragments and setup padding, on host profiles of random nested spans,
//! worker records and metrics, and on the committed root artefacts.

use sortmid::{
    grid_hash, run_sweep, CacheKind, Distribution, HostProfiler, HostSink, Machine, MachineConfig,
    RunReport, SweepGrid,
};
use sortmid_cache::CacheGeometry;
use sortmid_devharness::json::Json;
use sortmid_devharness::prop::{check, Config, Gen};
use sortmid_observe::breakdown::ConfigBreakdown;
use sortmid_observe::{
    Artifact, HeatmapDoc, MetricsDoc, MissClassCounts, Provenance, Schema, SpatialCollector,
    SweepBreakdowns, TraceSink,
};
use sortmid_scene::{Benchmark, SceneBuilder};

/// Decodes `text` with its owner type, then demands that re-emitting the
/// decoded value reproduces `text` byte for byte and that it verifies.
fn round_trip<A: Artifact>(text: &str) -> Result<A, String> {
    let doc = A::from_json(&Json::parse(text).map_err(|e| e.to_string())?)?;
    let again = doc.to_json().render();
    if again != text {
        return Err(format!("re-emitted document differs:\n  {text}\n  {again}"));
    }
    match doc.verify().as_slice() {
        [] => Ok(doc),
        problems => Err(format!("emitted document fails verify: {problems:?}")),
    }
}

/// A provenance block with a drawn seed and grid hash.
fn provenance(g: &mut Gen) -> Provenance {
    Provenance::collect(g.bits(), g.bits())
}

fn breakdowns(reports: &[&RunReport], provenance: Provenance) -> SweepBreakdowns {
    SweepBreakdowns {
        provenance,
        cycle_breakdowns: reports
            .iter()
            .map(|r| ConfigBreakdown {
                config: r.summary().to_string(),
                total_cycles: r.total_cycles(),
                nodes: r
                    .nodes()
                    .iter()
                    .map(|n| {
                        let [setup, busy, stall, starved, idle] = n.cycle_breakdown().as_array();
                        [setup, busy, stall, starved, idle, n.finish]
                    })
                    .collect(),
            })
            .collect(),
    }
}

#[test]
fn prop_sweep_breakdowns_round_trip() {
    let stream = SceneBuilder::benchmark(Benchmark::Quake).scale(0.1).build().rasterize();
    let configs = SweepGrid::new()
        .processors([1, 2, 4])
        .distributions([Distribution::block(16), Distribution::sli(2)])
        .caches([CacheKind::Perfect, CacheKind::PaperL1])
        .buffers([8])
        .build();
    let reports = run_sweep(&stream, &configs);
    check(
        "sweep breakdowns round-trip",
        &Config::with_cases(32),
        |g: &mut Gen| {
            let picks = g.vec(1..reports.len() + 1, |g| g.choice(reports.len()));
            (picks, provenance(g))
        },
        |(picks, prov)| {
            let picked: Vec<&RunReport> = picks.iter().map(|&i| &reports[i]).collect();
            let text = breakdowns(&picked, prov.clone()).to_json().render();
            round_trip::<SweepBreakdowns>(&text).map(drop)
        },
    );
}

/// One drawn spatial sample: `(setup?, node, x, y, lines or padding,
/// [compulsory, capacity, conflict])`.
type Sample = (bool, u32, u16, u16, u32, [u64; 3]);

#[test]
fn prop_spatial_collector_heatmap_round_trips() {
    check(
        "spatial collector heatmap round-trip",
        &Config::with_cases(64),
        |g: &mut Gen| {
            let screen = (g.u32_in(1..80), g.u32_in(1..60), g.u32_in(1..24));
            let procs = g.u32_in(1..9);
            let samples: Vec<Sample> = g.vec(0..200, |g| {
                let classes = [0; 3].map(|_| g.u64_below(4));
                let (x, y) = (g.u32_in(0..100) as u16, g.u32_in(0..100) as u16);
                (g.bool(), g.u32_in(0..procs), x, y, g.u32_in(0..8), classes)
            });
            (screen, procs, samples, provenance(g))
        },
        |&((width, height, tile), procs, ref samples, ref prov)| {
            let mut col = SpatialCollector::new(width, height, tile, procs);
            for &(setup, node, x, y, amount, [compulsory, capacity, conflict]) in samples {
                if setup {
                    col.record_setup(node, x, y, amount.into());
                } else {
                    let classes = MissClassCounts { compulsory, capacity, conflict };
                    col.record_fragment(node, x, y, amount, classes);
                }
            }
            let text = col.document("prop", "np/block-16", prov.clone()).to_json().render();
            round_trip::<HeatmapDoc>(&text).map(drop)
        },
    );
}

#[test]
fn a_traced_run_heatmap_round_trips() {
    let config = MachineConfig::builder()
        .processors(4)
        .distribution(Distribution::block(16))
        .cache(CacheKind::Classifying(CacheGeometry::paper_l1()))
        .build()
        .expect("valid config");
    let stream = SceneBuilder::benchmark(Benchmark::Quake).scale(0.1).build().rasterize();
    let screen = stream.screen();
    let mut col = SpatialCollector::new(screen.width(), screen.height(), 16, config.processors);
    let report = Machine::new(config.clone()).run_traced(&stream, &mut col);
    let prov = Provenance::collect(7, grid_hash(std::slice::from_ref(&config)));
    let text = col.document("tiny", report.summary(), prov).to_json().render();
    let doc = round_trip::<HeatmapDoc>(&text).unwrap();
    assert_eq!(doc.fragments, report.fragments());
}

/// Span names the drawn profiles open (spans name static phases).
const PHASES: [&str; 4] = ["run-sweep", "plan-build", "capture", "trace-eval"];

/// One drawn profiling step.
#[derive(Debug, Clone)]
enum Step {
    Open(usize),
    Close,
    Worker(usize, u32, u64, u64, u64),
    Count(usize, u64),
    Observe(u64),
    Gauge(u64),
}

#[test]
fn prop_host_profile_metrics_round_trips() {
    check(
        "host profile metrics round-trip",
        &Config::with_cases(64),
        |g: &mut Gen| {
            let steps: Vec<Step> = g.vec(0..40, |g| match g.choice(6) {
                0 => Step::Open(g.choice(PHASES.len())),
                1 => Step::Close,
                2 => {
                    let (wall, busy) = (g.u64_below(1 << 40), g.u64_below(1 << 40));
                    Step::Worker(g.choice(2), g.u32_in(0..4), wall, busy, g.u64_below(100))
                }
                3 => Step::Count(g.choice(2), g.u64_below(1 << 50)),
                4 => Step::Observe(g.bits()),
                _ => Step::Gauge(g.bits()),
            });
            (steps, provenance(g))
        },
        |(steps, prov)| {
            let prof = HostProfiler::new();
            {
                // Every profile has a root span and a worker record.
                let _root = prof.span("run-sweep");
                let mut open = Vec::new();
                for step in steps {
                    match *step {
                        Step::Open(i) => open.push(prof.span(PHASES[i])),
                        Step::Close => drop(open.pop()),
                        Step::Worker(lane, worker, wall, busy, items) => {
                            let lane = ["run-configs", "sched-pool"][lane];
                            prof.worker(lane, worker, wall, busy, items);
                        }
                        Step::Count(i, delta) => {
                            prof.count(["sweep.claims", "sweep.tasks"][i], delta);
                        }
                        Step::Observe(value) => prof.observe("host.run_ns.replay", value),
                        Step::Gauge(value) => prof.gauge_max("sweep.queue_depth.w00", value),
                    }
                }
                while let Some(span) = open.pop() {
                    drop(span);
                }
            }
            prof.worker("run-configs", 0, 10, 5, 1);
            let profile = prof.finish();
            let text = profile.document("prop", prov.clone()).to_json().render();
            round_trip::<MetricsDoc>(&text).map(drop)
        },
    );
}

#[test]
fn committed_root_artefacts_round_trip() {
    let root = env!("CARGO_MANIFEST_DIR");
    let read = |name: &str| {
        std::fs::read_to_string(format!("{root}/{name}")).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    round_trip::<MetricsDoc>(&read("METRICS_sweep.json")).unwrap();

    // The sweep owner covers the baseline's provenance and breakdowns; the
    // wall-time lanes around them are bench policy.
    let baseline = Json::parse(&read("BENCH_baseline.json")).unwrap();
    let owned = Json::obj(
        ["provenance", "cycle_breakdowns"].map(|k| (k, baseline.get(k).unwrap().clone())),
    );
    round_trip::<SweepBreakdowns>(&owned.render()).unwrap();
}
