//! Property tests proving the stack-distance replay pipeline equivalent to
//! direct simulation, on the in-repo `sortmid-devharness` runner.
//!
//! The tentpole claim of the one-pass cache evaluation is *exact*
//! equivalence, not approximation: walking each node's access sequence
//! through one [`MattsonWalk`] must reproduce — for every
//! `(size, associativity)` point of a random grid — the
//! hit/miss/eviction counters a direct
//! [`SetAssocCache`](sortmid_cache::SetAssocCache) simulation produces,
//! and a sweep whose frame groups mount the walk must emit byte-identical
//! [`RunReport`]s. The node sequences come from
//! [`Distribution::owner`] in stream order, the order a node processes
//! its fragments.
//! These properties randomize the distribution, machine size and cache
//! grid so the equivalence is exercised far beyond the reference sweep.

use sortmid::{
    run_sweep_with_threads, CacheKind, Distribution, Machine, MachineConfig, RunReport,
};
use sortmid_cache::{
    CacheGeometry, CacheStats, ClassifyingCache, FragmentMisses, GeometryRequest, LineCache,
    MattsonWalk, MissBreakdown, SetAssocCache, STACKDIST_MIN_REQUESTS,
};
use sortmid_texture::TEXELS_PER_FRAGMENT;
use sortmid_devharness::prop::{check, Config, Gen};
use sortmid_devharness::{prop_assert, prop_assert_eq};
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

/// Each node's footprint lines in processing order: the fragments of every
/// non-culled triangle, in stream order, to the node
/// [`Distribution::owner`] names.
fn node_lines(s: &FragmentStream, dist: &Distribution, procs: u32) -> Vec<Vec<u32>> {
    let mut nodes = vec![Vec::new(); procs as usize];
    for tri in s.triangles().iter().filter(|t| !t.is_culled()) {
        for frag in s.fragments_of(tri) {
            let owner = dist.owner(frag.x as i32, frag.y as i32, procs) as usize;
            nodes[owner].extend(frag.texels.iter().map(|t| t.line()));
        }
    }
    nodes
}

/// One walk over every node's whole sequence, in one window.
fn walk_nodes(nodes: &[Vec<u32>], grid: &[GeometryRequest]) -> MattsonWalk {
    let mut walk = MattsonWalk::new(grid, nodes.len());
    walk.start_window();
    for (i, lines) in nodes.iter().enumerate() {
        walk.walk(i, lines.chunks_exact(TEXELS_PER_FRAGMENT));
    }
    walk
}

/// Block with width 1..200 or SLI with 1..64 lines.
fn arb_distribution(g: &mut Gen) -> Distribution {
    match g.choice(2) {
        0 => Distribution::block(g.u32_in(1..200)),
        _ => Distribution::sli(g.u32_in(1..64)),
    }
}

/// A random grid of up to 7 distinct cache geometries (random
/// power-of-two sizes and associativities, 64-byte lines) with random
/// classify flags. A drawn duplicate is dropped rather than redrawn, so a
/// shrunk tape, which reads zeros past its end, still ends.
fn arb_cache_grid(g: &mut Gen) -> Vec<GeometryRequest> {
    let mut grid: Vec<GeometryRequest> = Vec::new();
    for _ in 0..g.usize_in(4..8) {
        let size = 512u32 << g.u32_in(0..10);
        let max_log_ways = (size / 64).trailing_zeros().min(4);
        let ways = 1u32 << g.u32_in(0..max_log_ways + 1);
        let geometry = CacheGeometry::new(size, ways, 64).expect("power-of-two grid point");
        if grid.iter().all(|r| r.geometry != geometry) {
            grid.push(GeometryRequest {
                geometry,
                classify: g.bool(),
            });
        }
    }
    grid
}

/// What one geometry of a node's sequence looks like to a direct
/// simulation: each fragment's miss count, the final stats, the three-C
/// breakdown (classifying requests only) and the evictions.
struct Oracle {
    fragment_misses: Vec<u8>,
    stats: CacheStats,
    breakdown: Option<MissBreakdown>,
    evictions: u64,
}

/// Feeds a fresh `SetAssocCache` (plus a `ClassifyingCache` when `req`
/// classifies) the node's sequence one fragment of `per_fragment` lines at
/// a time — the per-fragment oracle the stack-distance walk must equal.
fn oracle(req: &GeometryRequest, lines: &[u32], per_fragment: usize) -> Oracle {
    let mut cache = SetAssocCache::new(req.geometry);
    let mut classed = ClassifyingCache::new(req.geometry);
    let mut fragment_misses = Vec::with_capacity(lines.len() / per_fragment);
    for fragment in lines.chunks_exact(per_fragment) {
        let mut misses = 0u8;
        for &line in fragment {
            if req.classify {
                classed.access_line(line);
            }
            if !cache.access_line(line) {
                misses += 1;
            }
        }
        fragment_misses.push(misses);
    }
    Oracle {
        fragment_misses,
        stats: *cache.stats(),
        breakdown: req.classify.then(|| classed.breakdown()),
        evictions: cache.stats().misses() - cache.resident_lines() as u64,
    }
}

/// Expands a walk's sparse `(fragment, misses)` list to one count
/// per fragment, checking that it is strictly ascending and lists only
/// fragments that missed.
fn dense(sparse: FragmentMisses<'_>, fragments: usize) -> Vec<u8> {
    let sparse: Vec<(u32, u32)> = sparse.collect();
    assert!(sparse.windows(2).all(|w| w[0].0 < w[1].0), "fragments must ascend");
    let mut out = vec![0u8; fragments];
    for (fi, misses) in sparse {
        assert!(misses > 0, "fragment {fi} listed without a miss");
        out[fi as usize] = u8::try_from(misses).expect("at most one miss per access");
    }
    out
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

fn config_for(dist: &Distribution, procs: u32, cache: CacheKind, buffer: usize) -> MachineConfig {
    MachineConfig::builder()
        .processors(procs)
        .distribution(dist.clone())
        .cache(cache)
        .bus_ratio(1.0)
        .triangle_buffer(buffer)
        .build()
        .expect("valid config")
}

/// The tentpole equivalence: for random scenes-distribution-grid triples,
/// one walk reproduces the direct simulator's per-node hit, miss and
/// eviction counts at every `(size, associativity)` of the grid — and the
/// full sweep over those configs emits byte-identical reports whether a
/// config runs in a walk or its own machine.
#[test]
fn prop_stackdist_replay_equals_direct() {
    check(
        "prop_stackdist_replay_equals_direct",
        &Config::with_cases(16),
        |g| (arb_distribution(g), g.u32_in(1..32), arb_cache_grid(g)),
        |(dist, procs, grid)| {
            let s = stream();

            // Counter equivalence: walk every node's sequence once and
            // check every geometry against the per-fragment oracle fed the
            // same sequence.
            let nodes = node_lines(s, dist, *procs);
            let eval = walk_nodes(&nodes, grid);
            for (node, lines) in nodes.iter().enumerate() {
                for (gi, req) in grid.iter().enumerate() {
                    let direct = oracle(req, lines, TEXELS_PER_FRAGMENT);
                    let g = req.geometry;
                    prop_assert_eq!(
                        dense(eval.fragment_misses(node, gi), lines.len() / TEXELS_PER_FRAGMENT),
                        direct.fragment_misses,
                        "node {node} {g}: per-fragment misses diverge"
                    );
                    prop_assert_eq!(
                        eval.stats(node, gi),
                        direct.stats,
                        "node {node} {g}: replayed stats diverge"
                    );
                    prop_assert_eq!(
                        eval.evictions(node, gi),
                        direct.evictions,
                        "node {node} {g}: replayed evictions diverge"
                    );
                    prop_assert_eq!(
                        eval.breakdown(node, gi),
                        direct.breakdown,
                        "node {node} {g}: three-C decomposition diverges"
                    );
                }
            }

            // Report equivalence: the same grid as sweep configs, topped up
            // with the walk's geometry ladder so the frame group mounts the
            // Mattson walk, against each config's own `Machine::run`,
            // byte-identical reports.
            let mut configs: Vec<MachineConfig> = grid
                .iter()
                .map(|r| {
                    let kind = if r.classify {
                        CacheKind::Classifying(r.geometry)
                    } else {
                        CacheKind::SetAssoc(r.geometry)
                    };
                    config_for(dist, *procs, kind, 100)
                })
                .collect();
            for g in walk_geometries() {
                if grid.iter().all(|r| r.geometry != g) {
                    configs.push(config_for(dist, *procs, CacheKind::SetAssoc(g), 100));
                }
            }
            let replayed = run_sweep_with_threads(s, &configs, 1);
            let direct: Vec<RunReport> =
                configs.iter().map(|c| Machine::new(c.clone()).run(s)).collect();
            prop_assert_eq!(replayed.len(), direct.len());
            for (r, d) in replayed.iter().zip(&direct) {
                prop_assert_eq!(r, d, "replayed report diverges for {}", r.summary());
            }
            Ok(())
        },
    );
}

/// Mattson inclusion and compulsory-miss equivalence: at fixed
/// associativity, growing the cache (more sets) never loses hits — and the
/// profile's compulsory count equals the per-fragment oracle's classifying
/// compulsory counter.
#[test]
fn prop_mattson_profile_monotone_and_compulsory_exact() {
    const WAYS: [u32; 3] = [1, 2, 4];
    check(
        "prop_mattson_profile_monotone_and_compulsory_exact",
        &Config::with_cases(16),
        |g| (arb_distribution(g), g.u32_in(1..24)),
        |(dist, procs)| {
            let s = stream();
            // Every power-of-two size from 512 B to 256 KB at each fixed
            // associativity: a capacity ladder per ways value.
            let grid: Vec<GeometryRequest> = (0..10)
                .flat_map(|log| {
                    WAYS.iter().map(move |&ways| GeometryRequest {
                        geometry: CacheGeometry::new(512 << log, ways, 64)
                            .expect("power-of-two ladder"),
                        classify: false,
                    })
                })
                .collect();
            let nodes = node_lines(s, dist, *procs);
            let eval = walk_nodes(&nodes, &grid);
            for (node, lines) in nodes.iter().enumerate() {
                let profile = eval.profile(node);
                for &ways in &WAYS {
                    let mut prev = 0u64;
                    for log in 0..10 {
                        let sets = (512u32 << log) / 64 / ways;
                        prop_assert!(
                            profile.supports(sets, ways),
                            "node {node}: profile must track {sets} sets x {ways} ways"
                        );
                        let hits = profile.hits(sets, ways);
                        prop_assert!(
                            hits >= prev,
                            "node {node}: hits fell from {prev} to {hits} growing to \
                             {sets} sets at {ways} ways"
                        );
                        prop_assert_eq!(
                            hits + profile.misses(sets, ways),
                            profile.accesses(),
                            "node {node}: hits + misses must cover every access"
                        );
                        prev = hits;
                    }
                }

                // Compulsory misses are geometry-independent first
                // touches: the profile and the per-fragment oracle's
                // classifying simulation must agree.
                let paper = GeometryRequest {
                    geometry: CacheGeometry::paper_l1(),
                    classify: true,
                };
                let direct = oracle(&paper, lines, TEXELS_PER_FRAGMENT);
                prop_assert_eq!(
                    eval.compulsory(node),
                    direct.breakdown.expect("classifying oracle").compulsory,
                    "node {node}: walk compulsory diverges from direct simulation"
                );
            }
            Ok(())
        },
    );
}

/// The sweep agrees with each config's own `Machine::run` on a mixed grid
/// that includes replay-ineligible configs (perfect caches) and enough
/// geometries for the Mattson walk, so path selection can never change
/// results.
#[test]
fn prop_mixed_grid_sweep_is_path_independent() {
    check(
        "prop_mixed_grid_sweep_is_path_independent",
        &Config::with_cases(8),
        |g| {
            (
                arb_distribution(g),
                g.u32_in(1..24),
                g.pick(&[1usize, 100, 10_000]),
            )
        },
        |(dist, procs, buffer)| {
            let s = stream();
            let geometries = [
                CacheGeometry::new(4096, 2, 64).expect("valid"),
                CacheGeometry::new(16_384, 4, 64).expect("valid"),
                CacheGeometry::paper_l1(),
            ];
            let mut configs = vec![config_for(dist, *procs, CacheKind::Perfect, *buffer)];
            configs.push(config_for(dist, *procs, CacheKind::PaperL1, *buffer));
            for g in geometries {
                configs.push(config_for(dist, *procs, CacheKind::SetAssoc(g), *buffer));
                configs.push(config_for(dist, *procs, CacheKind::Classifying(g), *buffer));
            }
            // The walk's geometry ladder puts the sweep on the Mattson
            // walk; every config's `Machine::run` is the reference.
            for g in walk_geometries() {
                configs.push(config_for(dist, *procs, CacheKind::SetAssoc(g), *buffer));
            }
            let replayed = run_sweep_with_threads(s, &configs, 2);
            let direct: Vec<RunReport> =
                configs.iter().map(|c| Machine::new(c.clone()).run(s)).collect();
            for (r, d) in replayed.iter().zip(&direct) {
                prop_assert_eq!(r, d, "paths diverge for {}", r.summary());
            }
            Ok(())
        },
    );
}

/// The sweep bench's and the `cache-geometry` benchmark's dense grid:
/// every power-of-two size from 512 B (one set at 8 ways) to 4 MB
/// (direct-mapped) crossed with associativities 1–128, ways capped so
/// each size holds at least one full set — 102 geometries. Every third
/// one classifies, so the three-C oracle deepens the k = 0 walk.
fn dense_grid() -> Vec<GeometryRequest> {
    let mut grid = Vec::new();
    for log_size in 9..=22 {
        for log_ways in 0..=7 {
            let (size, ways) = (1u32 << log_size, 1u32 << log_ways);
            if ways * 64 <= size {
                let geometry = CacheGeometry::new(size, ways, 64).expect("grid geometry");
                grid.push(GeometryRequest { geometry, classify: grid.len() % 3 == 0 });
            }
        }
    }
    assert_eq!(grid.len(), 102);
    grid
}

/// Checks every node and geometry of `eval` — and the node's Mattson
/// profile at that geometry's point — against the per-fragment oracle fed
/// the same per-node sequence.
fn assert_matches_oracle(nodes: &[Vec<u32>], grid: &[GeometryRequest], eval: &MattsonWalk) {
    for (node, lines) in nodes.iter().enumerate() {
        for (gi, req) in grid.iter().enumerate() {
            let direct = oracle(req, lines, TEXELS_PER_FRAGMENT);
            let g = req.geometry;
            assert_eq!(
                eval.profile(node).misses(g.sets(), g.ways()),
                direct.stats.misses(),
                "node {node} {g}: profile"
            );
            assert_eq!(
                dense(eval.fragment_misses(node, gi), lines.len() / TEXELS_PER_FRAGMENT),
                direct.fragment_misses,
                "node {node} {g}: per-fragment misses diverge"
            );
            assert_eq!(eval.stats(node, gi), direct.stats, "node {node} {g}: stats");
            assert_eq!(eval.evictions(node, gi), direct.evictions, "node {node} {g}: evictions");
            assert_eq!(eval.breakdown(node, gi), direct.breakdown, "node {node} {g}: three-C");
        }
    }
}

/// The full 102-geometry grid on one real plan's node sequences: the walk
/// must price every geometry exactly as its own per-fragment simulation.
/// `teapot.full` at this scale touches thousands of lines per node and
/// takes capacity and conflict misses up to 16 KB (the shared `quake`
/// stream touches a dozen lines, too few to exercise the walk).
#[test]
fn dense_grid_on_a_real_plan_matches_the_oracle() {
    let s = SceneBuilder::benchmark(Benchmark::TeapotFull)
        .scale(0.2)
        .build()
        .rasterize();
    let nodes = node_lines(&s, &Distribution::sli(4), 3);
    let grid = dense_grid();
    let eval = walk_nodes(&nodes, &grid);
    let paper = grid.iter().position(|r| r.geometry == CacheGeometry::paper_l1()).unwrap();
    for node in 0..nodes.len() {
        assert!(eval.compulsory(node) > 1000, "node {node}: too few lines to exercise the walk");
        assert!(
            eval.stats(node, paper).misses() > eval.compulsory(node),
            "node {node}: no warm miss at 16 KB"
        );
    }
    assert_matches_oracle(&nodes, &grid, &eval);
}

/// A synthetic sequence on the full grid whose fragments each mix first
/// touches with warm reuses (head repeats, near and far ones), and whose
/// far reuses pass more same-set lines than any geometry holds, so every
/// set count's distance cap saturates — including k = 0, deepened to the
/// 4 MB classifying geometries' 65,536 lines.
#[test]
fn mixed_fragments_saturating_every_cap_match_the_oracle() {
    const LINES: u32 = 70_000;
    let mut lines = Vec::new();
    // A sweep of LINES first touches, four per fragment, each fragment
    // also re-touching its own and the previous fragment's lines.
    for f in 0..LINES / 4 {
        let c = 4 * f;
        let near = if f > 0 { c - 3 } else { c };
        lines.extend([c, c + 1, c + 1, near, c + 2, c + 3, c, c + 2]);
    }
    // Fragments mixing new lines with far reuses of the sweep's first
    // lines (tens of thousands of lines back) and nearer ones.
    for f in 0..1_000 {
        let cold = LINES + 2 * f;
        lines.extend([cold, 3 * f, 3 * f, cold + 1, 3 * f + 1, cold, 40_000 + f, 3 * f]);
    }
    let nodes = [lines];
    let grid = dense_grid();
    let eval = walk_nodes(&nodes, &grid);

    let profile = eval.profile(0);
    for k in 0..=16u32 {
        let sets = 1u32 << k;
        let mut cap = grid
            .iter()
            .filter(|r| r.geometry.sets() == sets)
            .map(|r| r.geometry.ways())
            .max()
            .expect("the grid covers every set count up to 2^16");
        if k == 0 {
            let deepest = grid.iter().filter(|r| r.classify).map(|r| r.geometry.total_lines());
            cap = cap.max(deepest.max().unwrap());
        }
        assert!(profile.supports(sets, cap) && !profile.supports(sets, cap + 1), "2^{k} sets");
        let beyond = profile.accesses() - profile.compulsory() - profile.hits(sets, cap);
        assert!(beyond > 0, "2^{k} sets: no access saturates the cap of {cap}");
    }
    assert_matches_oracle(&nodes, &grid, &eval);
}
