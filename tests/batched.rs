//! Property tests pinning the production engine's batched fragment core
//! to the per-texel reference oracle, on the in-repo `sortmid-devharness`
//! runner.
//!
//! The batched core's claim is *exact* equivalence, not approximation: for
//! every cache model the machine can mount — set-associative, classifying,
//! the paper L1, perfect, two-level, victim-buffered, and DRAM-backed
//! variants — [`Machine::run`] (owner LUT, per-triangle lane scratch, one
//! batched probe per fragment footprint) must emit a [`RunReport`]
//! byte-identical to [`run_reference`] (the distribution's div/rem owner
//! chain and one cache probe per texel). The same holds under observation
//! (spatial three-C attribution, full event traces) and for the
//! trace-capture path the stack-distance replay feeds on.
//!
//! [`RunReport`]: sortmid::RunReport

use sortmid::reference::run_reference;
use sortmid::{
    capture_line_trace, CacheKind, Distribution, Machine, MachineConfig, NullSink, RoutingPlan,
    SpatialCollector, TraceRecorder,
};
use sortmid_cache::CacheGeometry;
use sortmid_devharness::prop::{check, Config, Gen};
use sortmid_devharness::prop_assert_eq;
use sortmid_memsys::{BusConfig, DramConfig};
use sortmid_raster::FragmentStream;
use sortmid_scene::{Benchmark, SceneBuilder};
use std::sync::OnceLock;

/// One small shared stream (building scenes per property case is too slow).
fn stream() -> &'static FragmentStream {
    static STREAM: OnceLock<FragmentStream> = OnceLock::new();
    STREAM.get_or_init(|| {
        SceneBuilder::benchmark(Benchmark::Quake)
            .scale(0.08)
            .build()
            .rasterize()
    })
}

/// Block with width 1..200 or SLI with 1..64 lines.
fn arb_distribution(g: &mut Gen) -> Distribution {
    match g.choice(2) {
        0 => Distribution::block(g.u32_in(1..200)),
        _ => Distribution::sli(g.u32_in(1..64)),
    }
}

/// A random small power-of-two geometry (512 B – 512 KB, 1–16 ways,
/// 64-byte lines) — small enough that random footprints actually churn it.
fn arb_geometry(g: &mut Gen) -> CacheGeometry {
    let size = 512u32 << g.u32_in(0..11);
    let max_log_ways = (size / 64).trailing_zeros().min(4);
    let ways = 1u32 << g.u32_in(0..max_log_ways + 1);
    CacheGeometry::new(size, ways, 64).expect("power-of-two grid point")
}

/// Every cache model the machine can mount, geometry randomized.
fn arb_cache(g: &mut Gen) -> CacheKind {
    match g.choice(6) {
        0 => CacheKind::Perfect,
        1 => CacheKind::PaperL1,
        2 => CacheKind::SetAssoc(arb_geometry(g)),
        3 => CacheKind::Classifying(arb_geometry(g)),
        4 => {
            let l1 = arb_geometry(g);
            // An L2 at least as large as the L1 (the hierarchy invariant).
            let l2 = CacheGeometry::new((l1.size_bytes() * 4).max(16 * 1024), 4, 64)
                .expect("valid L2");
            CacheKind::TwoLevel(l1, l2)
        }
        _ => CacheKind::Victim(arb_geometry(g), g.u32_in(1..16)),
    }
}

fn arb_config(g: &mut Gen) -> MachineConfig {
    let mut b = MachineConfig::builder();
    b.processors(g.u32_in(1..32))
        .distribution(arb_distribution(g))
        .cache(arb_cache(g))
        .bus_ratio(g.pick(&[0.5, 1.0, 2.0]))
        .triangle_buffer(g.pick(&[1usize, 100, 10_000]));
    if g.bool() {
        // A DRAM row model makes fill cost depend on miss *addresses*, so
        // the batched path must hand over exact miss lines, not counts.
        b.dram(Some(DramConfig::sdram_like(BusConfig::ratio(1.0))));
    }
    b.build().expect("valid config")
}

/// The core equivalence: the production engine equals the reference
/// oracle, full-report, for every cache model (including DRAM-backed
/// machines, which need exact per-miss line addresses).
#[test]
fn prop_batched_core_equals_scalar_for_every_cache_model() {
    check(
        "prop_batched_core_equals_scalar_for_every_cache_model",
        &Config::with_cases(24),
        arb_config,
        |config| {
            let s = stream();
            let batched = Machine::new(config.clone()).run(s);
            let reference = run_reference(config, s, &mut NullSink);
            prop_assert_eq!(
                &batched,
                &reference,
                "engine diverges from the reference oracle for {}",
                config.summary()
            );
            Ok(())
        },
    );
}

/// Observed equivalence: under a classifying cache, the engine and the
/// oracle must agree on everything the spatial collector sees — per-tile
/// fragment counts, per-node fragment/line totals, and the per-node
/// three-C miss decomposition — and on the report itself.
#[test]
fn prop_batched_three_c_attribution_matches_scalar() {
    check(
        "prop_batched_three_c_attribution_matches_scalar",
        &Config::with_cases(12),
        |g| (arb_distribution(g), g.u32_in(1..24), arb_geometry(g)),
        |(dist, procs, geometry)| {
            let s = stream();
            let screen = s.screen();
            let config = MachineConfig::builder()
                .processors(*procs)
                .distribution(dist.clone())
                .cache(CacheKind::Classifying(*geometry))
                .bus_ratio(1.0)
                .build()
                .expect("valid config");
            let collect =
                || SpatialCollector::new(screen.width().max(1), screen.height().max(1), 16, *procs);
            let mut batched_col = collect();
            let batched = Machine::new(config.clone()).run_traced(s, &mut batched_col);
            let mut scalar_col = collect();
            let scalar = run_reference(&config, s, &mut scalar_col);
            prop_assert_eq!(&batched, &scalar, "traced reports diverge");
            prop_assert_eq!(
                batched_col.grid(),
                scalar_col.grid(),
                "per-tile spatial samples diverge"
            );
            prop_assert_eq!(batched_col.node_fragments(), scalar_col.node_fragments());
            prop_assert_eq!(batched_col.node_lines(), scalar_col.node_lines());
            prop_assert_eq!(batched_col.node_setup(), scalar_col.node_setup());
            prop_assert_eq!(
                batched_col.node_misses(),
                scalar_col.node_misses(),
                "three-C attribution diverges"
            );
            for (i, node) in batched.nodes().iter().enumerate() {
                let b = node.miss_breakdown.expect("classifying cache reports classes");
                let c = batched_col.node_misses()[i];
                prop_assert_eq!(c.total(), b.total(), "node {i} collected class total");
            }
            Ok(())
        },
    );
}

/// Event-stream equivalence: the engine must emit the identical trace
/// event sequence (FIFO pushes/pops, triangle lifecycle, every bus fill
/// with its slot and cost) as the oracle, for every cache model and with
/// or without a DRAM row model.
#[test]
fn prop_batched_event_stream_matches_scalar() {
    check(
        "prop_batched_event_stream_matches_scalar",
        &Config::with_cases(8),
        arb_config,
        |config| {
            let s = stream();
            let mut batched_rec = TraceRecorder::new();
            let batched = Machine::new(config.clone()).run_traced(s, &mut batched_rec);
            let mut scalar_rec = TraceRecorder::new();
            let scalar = run_reference(config, s, &mut scalar_rec);
            prop_assert_eq!(&batched, &scalar, "traced reports diverge");
            prop_assert_eq!(
                batched_rec.events(),
                scalar_rec.events(),
                "event streams diverge for {}",
                batched.summary()
            );
            Ok(())
        },
    );
}

/// Trace capture through a routing plan equals a hand-walked reference:
/// the exact per-node line sequence the reference oracle would probe, in
/// processing order.
#[test]
fn prop_lane_trace_capture_matches_manual_walk() {
    check(
        "prop_lane_trace_capture_matches_manual_walk",
        &Config::with_cases(16),
        |g| (arb_distribution(g), g.u32_in(1..32)),
        |(dist, procs)| {
            let s = stream();
            let plan = RoutingPlan::build(s, dist, *procs);
            let trace = capture_line_trace(s, &plan);
            prop_assert_eq!(trace.node_count(), *procs as usize);

            // Reference: route every fragment by asking the distribution
            // directly, in stream order — the semantics the plan encodes.
            let mut expect: Vec<Vec<u32>> = vec![Vec::new(); *procs as usize];
            for tri in s.triangles() {
                if tri.is_culled() {
                    continue;
                }
                for frag in s.fragments_of(tri) {
                    let owner = dist.owner(frag.x as i32, frag.y as i32, *procs) as usize;
                    expect[owner].extend(frag.texels.iter().map(|t| t.line()));
                }
            }
            for (node, lines) in expect.iter().enumerate() {
                prop_assert_eq!(
                    trace.node_lines(node),
                    &lines[..],
                    "node {node} line sequence diverges"
                );
            }
            Ok(())
        },
    );
}
