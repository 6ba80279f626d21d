//! Sweep bench: end-to-end wall time of a Figure-5-shaped config grid.
//!
//! Every figure in the paper is a sweep of dozens of machine configurations
//! over one fragment stream. This bench times the whole grid — routing,
//! partitioning and simulation for every config — so the perf trajectory
//! captures sweep throughput, not just single-machine speed.
//!
//! Four series are emitted into `BENCH_sweep.json`:
//!
//! * `grid/shared-plan` — [`run_sweep_with_threads`]: configs grouped by
//!   `(distribution, processors)`, each group sharing one routing per
//!   frame window, cache-heavy groups priced by stack-distance replay;
//! * `grid/per-config` — the no-sharing baseline: every config runs
//!   [`Machine::run`] on its own, routing and probing the stream from
//!   scratch (what `run_sweep` did before routing plans existed);
//! * `grid/trace-replay` — a 10x-denser cache grid (every power-of-two
//!   size from 512 B to 4 MB crossed with associativities 1–128, 100+
//!   configs) on one routing plan, all priced from a single
//!   `LineAccessTrace` replay;
//! * `grid/trace-replay-base` — [`STACKDIST_MIN_REQUESTS`] geometries of
//!   the dense grid on the same plan, the fewest the sweep still prices
//!   with one Mattson walk (a smaller grid would run its geometries in
//!   the plan's frame group), so the difference of the two medians isolates
//!   the *marginal* cost of each extra cache config.
//!
//! The shared-plan/per-config ratio is the plan-reuse speedup; the
//! dense/base difference prices extra cache configs.
//!
//! The artefact also carries four observability extras:
//!
//! * `provenance` — schema version, scene seed, config-grid hash, build
//!   profile and host fingerprint; `sortmid-diff` and the `bench_check`
//!   gate refuse to compare artefacts whose schema/seed/grid disagree;
//! * `cycle_breakdowns` — for every reference-grid config, each node's
//!   cycles attributed to `[setup, busy, bus_stall, starved, idle]`
//!   (summing exactly to that node's finish cycle — emitted, decoded and
//!   verified by [`SweepBreakdowns`]);
//! * `reference` — the `grid/shared-plan` median against the pre-tracing
//!   recorded median, guarding that the `NullSink` event plumbing stays
//!   monomorphized away;
//! * `trace_replay` — the dense lane's config count and the marginal
//!   nanoseconds each additional cache config costs on top of the shared
//!   trace capture.
//!
//! The untimed breakdown sweep additionally runs **host-profiled**: the
//! reference grid and the dense replay lane execute as one combined sweep under a
//! [`HostProfiler`], and the merged [`sortmid::HostProfile`] —
//! hierarchical phase spans, per-worker `busy + idle == wall`
//! utilization, scheduler claim/steal counters and queue-depth gauges,
//! per-path run-time histograms, the cost model's predicted-vs-actual
//! error histogram, peak RSS — lands in `METRICS_sweep.json` next to the
//! bench artefact (`bench_check` validates its span-nesting,
//! worker-identity and scheduler-instrumentation invariants). The timed
//! lanes stay on the [`NullHostSink`](sortmid::NullHostSink) path, so the
//! regression gate keeps pinning the *unprofiled* pipeline.
//!
//! Pass `--threads N` to pin the pool size; the reports are
//! byte-identical at any thread count, only the wall-clock changes.

use sortmid::{
    run_sweep_profiled, run_sweep_with_threads, CacheKind, Distribution, HostProfiler, Machine,
    MachineConfig, SweepGrid, SweepOptions,
};
use sortmid_bench::{run_provenance, stream};
use sortmid_cache::{CacheGeometry, STACKDIST_MIN_REQUESTS};
use sortmid_devharness::{Json, Suite};
use sortmid_observe::breakdown::ConfigBreakdown;
use sortmid_observe::{Artifact, Schema, SweepBreakdowns};
use sortmid_raster::FragmentStream;
use sortmid_scene::Benchmark;
use std::hint::black_box;

/// `grid/shared-plan` median recorded before the tracing subsystem landed
/// (same grid, same scene scale). The `reference.ratio` field in the
/// artefact is measured/recorded; a drift well past noise means the traced
/// hot path stopped compiling down to the untraced one.
const PRE_TRACING_MEDIAN_NS: u64 = 41_855_505;

/// The reference grid: the shape of the Figure 5/7 sweeps (processor counts
/// × distributions) with the cache and buffer axes the ablations add.
fn reference_grid() -> Vec<MachineConfig> {
    SweepGrid::new()
        .processors([4, 16, 64])
        .distributions([
            Distribution::block(8),
            Distribution::block(16),
            Distribution::block(32),
            Distribution::sli(1),
            Distribution::sli(4),
        ])
        .caches([CacheKind::Perfect, CacheKind::PaperL1])
        .buffers([100, 10_000])
        .build()
}

/// Cache geometries of the dense trace-replay lane: every power-of-two
/// size from 512 B to 4 MB crossed with associativities 1–128 (ways capped
/// so each size holds at least one full set of 64-byte lines) — 102
/// geometries, all priced from one trace replay.
fn dense_geometries() -> Vec<CacheGeometry> {
    let mut out = Vec::new();
    for log_size in 9..=22 {
        let size = 1u32 << log_size;
        for log_ways in 0..=7 {
            let ways = 1u32 << log_ways;
            if ways * 64 <= size {
                out.push(CacheGeometry::new(size, ways, 64).expect("grid geometry is valid"));
            }
        }
    }
    out
}

/// Every third geometry of [`dense_geometries`], [`STACKDIST_MIN_REQUESTS`]
/// in all — same plan, same pipeline (one pivot, one walk), a third of
/// the configs — so `dense − base` isolates the marginal cost per extra
/// cache config.
fn base_geometries() -> Vec<CacheGeometry> {
    dense_geometries()
        .into_iter()
        .step_by(3)
        .take(STACKDIST_MIN_REQUESTS)
        .collect()
}

/// One-plan sweep grid (16 processors, 16-pixel blocks) over the given
/// cache geometries: every config shares the routing plan and the captured
/// line trace, so wall-clock scales with the *evaluation*, not the
/// routing.
fn trace_replay_grid(geometries: &[CacheGeometry]) -> Vec<MachineConfig> {
    SweepGrid::new()
        .processors([16])
        .distributions([Distribution::block(16)])
        .caches(geometries.iter().map(|&g| CacheKind::SetAssoc(g)))
        .build()
}

/// The no-sharing sweep: every config runs [`Machine::run`] independently,
/// on a static chunk of the configs per host thread.
fn run_grid_per_config(
    stream: &FragmentStream,
    configs: &[MachineConfig],
    threads: usize,
) -> Vec<Option<sortmid::RunReport>> {
    let mut out: Vec<Option<sortmid::RunReport>> = vec![None; configs.len()];
    let chunk = configs.len().div_ceil(threads.max(1));
    std::thread::scope(|scope| {
        for (slots, cfgs) in out.chunks_mut(chunk).zip(configs.chunks(chunk)) {
            scope.spawn(move || {
                for (slot, config) in slots.iter_mut().zip(cfgs) {
                    *slot = Some(Machine::new(config.clone()).run(stream));
                }
            });
        }
    });
    out
}

/// Extra sample multiplier for the grid lanes: on an oversubscribed host
/// (more sweep threads than cores) scheduler jitter shows in every
/// lane's wall time, so they all take 5x the suite's samples to keep
/// MAD under 5% of median.
const NOISY_LANE_SAMPLE_SCALE: u32 = 5;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .expect("--threads takes a positive integer")
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });
    let s = stream(Benchmark::Quake);
    let configs = reference_grid();
    let dense = trace_replay_grid(&dense_geometries());
    let base = trace_replay_grid(&base_geometries());
    assert!(
        dense.len() >= 100,
        "the dense lane must price 100+ cache configs per plan, got {}",
        dense.len()
    );
    let options = SweepOptions { threads };
    eprintln!(
        "sweep bench: {} configs (+{} dense-cache), {} fragments, {} host threads",
        configs.len(),
        dense.len(),
        s.fragment_count(),
        threads,
    );

    let mut suite = Suite::new("sweep");
    let grid_work = s.fragment_count() * configs.len() as u64;
    suite.bench_with_elements_scaled("grid/shared-plan", grid_work, NOISY_LANE_SAMPLE_SCALE, || {
        black_box(run_sweep_with_threads(&s, &configs, threads))
    });
    suite.bench_with_elements_scaled("grid/per-config", grid_work, NOISY_LANE_SAMPLE_SCALE, || {
        black_box(run_grid_per_config(&s, &configs, threads))
    });
    suite.bench_with_elements_scaled(
        "grid/trace-replay",
        s.fragment_count() * dense.len() as u64,
        NOISY_LANE_SAMPLE_SCALE,
        || black_box(run_sweep_with_threads(&s, &dense, threads)),
    );
    suite.bench_with_elements_scaled(
        "grid/trace-replay-base",
        s.fragment_count() * base.len() as u64,
        NOISY_LANE_SAMPLE_SCALE,
        || black_box(run_sweep_with_threads(&s, &base, threads)),
    );

    let results = suite.results();
    let mut plan_median_ns = 0;
    let mut trace_replay = Json::Null;
    if let [plan, direct, dense_r, base_r] = results {
        let speedup = direct.median_ns as f64 / plan.median_ns.max(1) as f64;
        plan_median_ns = plan.median_ns;
        println!(
            "\nsweep grid ({} configs): shared-plan {:.1} ms vs per-config {:.1} ms -> {speedup:.2}x",
            configs.len(),
            plan.median_ns as f64 / 1e6,
            direct.median_ns as f64 / 1e6,
        );
        // Marginal cost of one extra cache config: the dense and base
        // lanes share the plan build and trace capture, so the median
        // difference divided by the config-count difference prices exactly
        // the added evaluation + report synthesis.
        let extra = (dense.len() - base.len()) as f64;
        let marginal = (dense_r.median_ns as f64 - base_r.median_ns as f64) / extra;
        println!(
            "trace-replay ({} configs, one plan): {:.1} ms dense vs {:.1} ms base \
             -> {marginal:.0} ns marginal per extra cache config",
            dense.len(),
            dense_r.median_ns as f64 / 1e6,
            base_r.median_ns as f64 / 1e6,
        );
        trace_replay = Json::obj([
            ("id", Json::str("grid/trace-replay")),
            ("configs", Json::U64(dense.len() as u64)),
            ("base_configs", Json::U64(base.len() as u64)),
            ("median_ns", Json::U64(dense_r.median_ns)),
            ("base_median_ns", Json::U64(base_r.median_ns)),
            ("marginal_ns_per_config", Json::F64(marginal)),
        ]);
    }

    // One more (untimed) sweep to attach per-config cycle breakdowns —
    // the reference grid and the dense cache lane run as ONE combined
    // profiled sweep, so the scheduler faces a heterogeneous mix of
    // frame groups and replay-path configs. Only the first `configs.len()`
    // reports feed the regression gate's cycle breakdowns: the gate's
    // groups must not absorb the dense lane, and per-config reports are
    // schedule- and path-independent, so the prefix equals a
    // reference-grid-only run.
    let mut combined = configs.clone();
    combined.extend(dense.iter().cloned());
    let prof = HostProfiler::new();
    let mut reports = run_sweep_profiled(&s, &combined, options, &prof);
    reports.truncate(configs.len());
    let profile = prof.finish();
    profile
        .verify()
        .expect("host profile structural invariants must hold");

    let dir = std::env::var_os("SORTMID_BENCH_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("create bench dir {}: {e}", dir.display()));
    let path = dir.join("METRICS_sweep.json");
    let doc = profile.document("sweep", run_provenance(Benchmark::Quake, &configs));
    std::fs::write(&path, doc.to_json().render())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
    eprint!("{}", profile.summary());

    let breakdowns = SweepBreakdowns {
        provenance: run_provenance(Benchmark::Quake, &configs),
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
    };
    let problems = breakdowns.verify();
    assert!(problems.is_empty(), "cycle identities must hold: {problems:?}");
    let Json::Obj(fields) = breakdowns.to_json() else {
        unreachable!("a record emits an object")
    };
    suite.finish_with(fields.into_iter().chain([
        (
            "reference".to_string(),
            Json::obj([
                ("id", Json::str("grid/shared-plan")),
                ("pre_pr_median_ns", Json::U64(PRE_TRACING_MEDIAN_NS)),
                ("median_ns", Json::U64(plan_median_ns)),
                (
                    "ratio",
                    Json::F64(plan_median_ns as f64 / PRE_TRACING_MEDIAN_NS as f64),
                ),
            ]),
        ),
        ("trace_replay".to_string(), trace_replay),
    ]));
}
