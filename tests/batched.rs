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
//! (spatial three-C attribution, full event traces) and for frame groups
//! that share routing, cache passes and timing walks.
//!
//! [`RunReport`]: sortmid::RunReport

use sortmid::machine::run_frame_group;
use sortmid::reference::run_reference;
use sortmid::{
    run_sweep_with_threads, CacheKind, Distribution, Machine, MachineConfig, NullSink,
    SpatialCollector, SweepGrid, TraceRecorder,
};
use sortmid_cache::CacheGeometry;
use sortmid_devharness::prop::{check, Config, Gen};
use sortmid_devharness::prop_assert_eq;
use sortmid_geom::{Rect, Triangle, Vertex};
use sortmid_memsys::{BusConfig, DramConfig};
use sortmid_raster::FragmentStream;
use sortmid_scene::{Benchmark, SceneBuilder};
use sortmid_texture::{TextureDesc, TextureRegistry};
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
    // The oracle times fragment by fragment while the engine takes all-hit
    // runs in bulk, so every window depth checks bulk against single.
    b.prefetch_window(g.pick(&[Some(1), Some(2), Some(7), Some(32), None]));
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

/// One random triangle: `(x, y, w, h, u, v)` — screen origin, extent
/// (possibly past the screen edge) and texture origin.
type TriSpec = (u32, u32, u32, u32, u32, u32);

/// A few hundred random triangles over a 256×256 screen, mostly small
/// (one or two nodes' regions) with some large ones that overlap many.
fn arb_triangles(g: &mut Gen) -> Vec<TriSpec> {
    g.vec(1..300, |g| {
        let (w, h) = match g.choice(4) {
            0 => (g.u32_in(1..160), g.u32_in(1..160)),
            _ => (g.u32_in(1..24), g.u32_in(1..24)),
        };
        (g.u32_in(0..256), g.u32_in(0..256), w, h, g.u32_in(0..448), g.u32_in(0..448))
    })
}

/// Rasterizes `tris` with one 512×512 texture.
fn random_stream(tris: &[TriSpec]) -> FragmentStream {
    let mut reg = TextureRegistry::new();
    let tex = reg.register(TextureDesc::new(512, 512).expect("valid texture")).expect("room");
    let tris: Vec<Triangle> = tris
        .iter()
        .map(|&(x, y, w, h, u, v)| {
            let (x, y, w, h, u, v) = (x as f32, y as f32, w as f32, h as f32, u as f32, v as f32);
            let corners = [
                Vertex::new(x, y, u, v),
                Vertex::new(x + w, y + h / 4.0, u + w / 2.0, v + 8.0),
                Vertex::new(x + w / 8.0, y + h, u + 4.0, v + h / 2.0),
            ];
            Triangle::new(tex.0, corners)
        })
        .collect();
    sortmid_raster::rasterize(&tris, &reg, Rect::of_size(256, 256))
}

/// The machine sizes the one-ring walk is most likely to get wrong: one
/// node, odd counts, and 128 (the overlap mask's top bit).
fn arb_processors(g: &mut Gen) -> u32 {
    g.pick(&[1u32, 3, 16, 64, 127, 128])
}

/// Block, SLI or rectangular tiles.
fn arb_screen_distribution(g: &mut Gen) -> Distribution {
    match g.choice(3) {
        0 => Distribution::block(g.u32_in(1..64)),
        1 => Distribution::sli(g.u32_in(1..32)),
        _ => Distribution::tile(g.u32_in(1..64), g.u32_in(1..64)),
    }
}

/// A triangle buffer that gates hard (1–7 entries) or never (at least
/// as many entries as the stream has triangles).
fn arb_buffer(g: &mut Gen, triangles: usize) -> usize {
    match g.choice(5) {
        4 => triangles + g.usize_in(0..3),
        k => [1, 2, 3, 7][k],
    }
}

/// The broadcast FIFO walk: the engine times every broadcast triangle
/// through one machine-wide ring and visits only the nodes a triangle
/// overlaps, while the oracle keeps one FIFO per node and visits every
/// node. Reports and traced event streams (every node's FIFO push, pop
/// and discard) must agree, from a buffer of one triangle to one that
/// never fills.
#[test]
fn prop_one_ring_broadcast_walk_matches_per_node_fifos() {
    check(
        "prop_one_ring_broadcast_walk_matches_per_node_fifos",
        &Config::with_cases(32),
        |g| {
            let tris = arb_triangles(g);
            let buffer = arb_buffer(g, tris.len());
            let cache = g.pick(&[CacheKind::Perfect, CacheKind::PaperL1]);
            let config = MachineConfig::builder()
                .processors(arb_processors(g))
                .distribution(arb_screen_distribution(g))
                .cache(cache)
                .bus_ratio(g.pick(&[0.5, 1.0, 2.0]))
                .triangle_buffer(buffer)
                .build()
                .expect("valid config");
            (tris, config)
        },
        |(tris, config)| {
            let s = random_stream(tris);
            let machine = Machine::new(config.clone());
            let mut oracle_events = TraceRecorder::new();
            let oracle = run_reference(config, &s, &mut oracle_events);
            prop_assert_eq!(&machine.run(&s), &oracle, "untraced walk: {}", config.summary());
            let mut events = TraceRecorder::new();
            let traced = machine.run_traced(&s, &mut events);
            prop_assert_eq!(&traced, &oracle, "traced walk: {}", config.summary());
            prop_assert_eq!(
                events.events(),
                oracle_events.events(),
                "event streams diverge for {}",
                config.summary()
            );
            Ok(())
        },
    );
}

/// One frame group holding every buffer depth of one cache model: the
/// sweep routes and probes each window once and advances one ring per
/// config, and each report equals the oracle's.
#[test]
fn prop_frame_group_buffers_match_per_node_fifos() {
    check(
        "prop_frame_group_buffers_match_per_node_fifos",
        &Config::with_cases(8),
        |g| {
            let tris = arb_triangles(g);
            let procs = arb_processors(g);
            let dist = arb_screen_distribution(g);
            let cache = g.pick(&[CacheKind::Perfect, CacheKind::PaperL1]);
            (tris, procs, dist, cache)
        },
        |(tris, procs, dist, cache)| {
            let s = random_stream(tris);
            let configs = SweepGrid::new()
                .processors([*procs])
                .distributions([dist.clone()])
                .caches([*cache])
                .buffers([1, 2, 3, 7, tris.len()])
                .build();
            let swept = run_sweep_with_threads(&s, &configs, 2);
            for (config, report) in configs.iter().zip(&swept) {
                let oracle = run_reference(config, &s, &mut NullSink);
                prop_assert_eq!(report, &oracle, "swept {}", config.summary());
            }
            Ok(())
        },
    );
}

/// One perfect config's timing-side knobs: bus ratio (`None` = ∞), DRAM
/// model, prefetch window, triangle buffer and setup floor.
type PerfectKnobs = (Option<f64>, bool, Option<usize>, usize, u64);

/// A frame group mixing perfect configs across bus {0.25, 1, 2, ∞} ×
/// DRAM {none, SDRAM} × prefetch window {1, 7, ∞}, over one or two
/// buffers and setup floors, with a 16 KB config and its exact duplicate
/// among them. Perfect configs equal apart from bus, DRAM and window must
/// share one timing walk, as must the duplicates; every other pair must
/// not. Every report equals the oracle's, from the group and from the
/// sweep alike, and the group runs exactly one walk per distinct timing.
#[test]
fn prop_shared_walks_match_reference() {
    check(
        "prop_shared_walks_match_reference",
        &Config::with_cases(16),
        |g| {
            let tris = arb_triangles(g);
            let procs = g.pick(&[1u32, 3, 16, 64]);
            let dist = arb_screen_distribution(g);
            let buffers = g.vec(1..3, |g| arb_buffer(g, tris.len()));
            let setups = g.vec(1..3, |g| g.pick(&[25u64, 60]));
            let perfect: Vec<PerfectKnobs> = g.vec(1..12, |g| {
                (
                    g.pick(&[Some(0.25), Some(1.0), Some(2.0), None]),
                    g.bool(),
                    g.pick(&[Some(1), Some(7), None]),
                    g.pick(&buffers),
                    g.pick(&setups),
                )
            });
            let l1_at = (g.usize_in(0..perfect.len() + 1), g.usize_in(0..perfect.len() + 2));
            (tris, procs, dist, perfect, l1_at)
        },
        |(tris, procs, dist, perfect, (l1_at, dup_at))| {
            let s = random_stream(tris);
            let build = |cache, bus: Option<f64>, dram: bool, window, buffer, setup| {
                let mut b = MachineConfig::builder();
                b.processors(*procs)
                    .distribution(dist.clone())
                    .cache(cache)
                    .prefetch_window(window)
                    .triangle_buffer(buffer)
                    .setup_cycles(setup)
                    .dram(dram.then(|| DramConfig::sdram_like(BusConfig::ratio(1.0))));
                match bus {
                    Some(r) => b.bus_ratio(r),
                    None => b.infinite_bus(),
                };
                b.build().expect("valid config")
            };
            let mut configs: Vec<MachineConfig> = perfect
                .iter()
                .map(|&(bus, dram, window, buffer, setup)| {
                    build(CacheKind::Perfect, bus, dram, window, buffer, setup)
                })
                .collect();
            let (_, _, _, buffer, setup) = perfect[0];
            let l1 = build(CacheKind::PaperL1, Some(0.25), false, Some(7), buffer, setup);
            configs.insert(*l1_at, l1.clone());
            configs.insert(*dup_at, l1);

            // Distinct timings, counted without the engine's rule: a
            // perfect walk reads only the buffer and the setup floor.
            let mut timings: Vec<(Option<(usize, u64)>, &MachineConfig)> = Vec::new();
            for config in &configs {
                let key = (config.cache == CacheKind::Perfect)
                    .then_some((config.triangle_buffer, config.setup_cycles));
                let same = |(k, c): &(Option<(usize, u64)>, &MachineConfig)| match key {
                    Some(_) => *k == key,
                    None => k.is_none() && *c == config,
                };
                if !timings.iter().any(same) {
                    timings.push((key, config));
                }
            }

            let (grouped, walks) = run_frame_group(&s, &configs);
            let swept = run_sweep_with_threads(&s, &configs, 2);
            for ((config, group), sweep) in configs.iter().zip(&grouped).zip(&swept) {
                let oracle = run_reference(config, &s, &mut NullSink);
                prop_assert_eq!(group, &oracle, "grouped {}", config.summary());
                prop_assert_eq!(sweep, &oracle, "swept {}", config.summary());
            }
            prop_assert_eq!(walks, timings.len(), "one walk per distinct timing");
            Ok(())
        },
    );
}
