//! A sort-last (object-parallel) texture-mapping stage, as a baseline.
//!
//! The authors' earlier work (\[13\] ICS'98, \[14\] Euro-Par'99) studied
//! texture caches in a **sort-last** machine: triangles — not screen tiles —
//! are distributed among nodes, each node rasterizes its triangles over the
//! full screen, and a composition network merges the images afterwards.
//! The HPCA paper's sort-middle study is motivated against that backdrop,
//! so this module provides the comparison point: same node model (cache,
//! bus, setup floor, 1 pixel/cycle engine), triangle-granular distribution,
//! no clipping and no composition cost (the paper never charges for image
//! networks either). It runs on the sort-middle pipeline's cache pass and
//! engine timing, over a plan that routes each triangle to one node.

use crate::config::MachineConfig;
use crate::plan::RoutingPlan;
use crate::replay::{capture, NodeCapture, Timing};
use crate::report::{CacheCounters, RunReport};
use sortmid_cache::AnyCache;
use sortmid_observe::NullSink;
use sortmid_raster::FragmentStream;
use std::fmt;

/// How triangles are dealt to nodes in the sort-last machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriangleAssignment {
    /// Triangle `k` goes to node `k mod P` — perfect triangle-count
    /// balance, but consecutive triangles of an object (which share
    /// texture regions) land on different nodes.
    RoundRobin,
    /// Runs of `chunk` consecutive triangles go to the same node —
    /// preserves object-level texture locality at the cost of coarser
    /// balancing. This approximates per-object distribution (the paper's
    /// sort-last maps "the textures on different objects in each engine").
    Chunked {
        /// Consecutive triangles per run.
        chunk: u32,
    },
}

impl TriangleAssignment {
    /// The node that triangle `index` is assigned to.
    pub fn owner(&self, index: u64, procs: u32) -> u32 {
        match self {
            TriangleAssignment::RoundRobin => (index % procs as u64) as u32,
            TriangleAssignment::Chunked { chunk } => {
                ((index / *chunk as u64) % procs as u64) as u32
            }
        }
    }
}

impl fmt::Display for TriangleAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TriangleAssignment::RoundRobin => write!(f, "round-robin"),
            TriangleAssignment::Chunked { chunk } => write!(f, "chunked-{chunk}"),
        }
    }
}

/// Runs the sort-last texture-mapping stage: node parameters (cache, bus,
/// buffers, setup floor) come from `config`; its `distribution` is ignored
/// — triangles are dealt whole according to `assignment`.
///
/// The run shares the sort-middle pipeline's stages ([`crate::replay`]):
/// a plan that routes each triangle to its one owner, one cache pass per
/// node, then each node's engine timing. Sort-last nodes run
/// independently, so every triangle arrives at cycle 0: no broadcast, no
/// FIFO backpressure.
///
/// # Examples
///
/// ```
/// use sortmid::sortlast::{run_sort_last, TriangleAssignment};
/// use sortmid::MachineConfig;
/// use sortmid_scene::{Benchmark, SceneBuilder};
///
/// let stream = SceneBuilder::benchmark(Benchmark::Quake).scale(0.1).build().rasterize();
/// let mut config = MachineConfig::uniprocessor();
/// config.processors = 4;
/// let report = run_sort_last(&stream, &config, TriangleAssignment::RoundRobin);
/// assert_eq!(report.fragments(), stream.fragment_count());
/// ```
pub fn run_sort_last(
    stream: &FragmentStream,
    config: &MachineConfig,
    assignment: TriangleAssignment,
) -> RunReport {
    let procs = config.processors;
    let plan = RoutingPlan::single_owner(stream, &config.distribution, procs, |k| {
        assignment.owner(k, procs)
    });
    let mut caches: Vec<AnyCache> = (0..procs).map(|_| config.cache.build_model()).collect();
    let mut recordings = vec![NodeCapture::default(); procs as usize];
    capture::<NullSink>(&mut caches, stream, &plan, &mut recordings);
    let mut misses: Vec<_> = recordings.iter().map(NodeCapture::cursor).collect();
    let mut timing = Timing::new(config);
    timing.routed = plan.routed();
    for pt in &plan.triangles {
        let owner = pt.mask.trailing_zeros() as usize;
        let owned = plan.triangle_segments(pt).first().map_or(0, |seg| seg.count);
        let runs = plan.triangle_runs(pt);
        let (node, misses) = (&mut timing.nodes[owner], &mut misses[owner]);
        node.draw(0, owner as u32, pt.tri, owned, runs, misses, stream, &mut NullSink);
    }
    let summary = format!("sort-last/{}p/{assignment}/{}", procs, config.cache);
    timing.report(summary, stream, caches.iter().map(CacheCounters::of))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheKind;
    use crate::distribution::Distribution;
    use crate::machine::Machine;
    use sortmid_cache::CacheGeometry;
    use sortmid_memsys::{BusConfig, DramConfig};
    use sortmid_scene::{Benchmark, SceneBuilder};

    fn stream() -> FragmentStream {
        SceneBuilder::benchmark(Benchmark::TeapotFull)
            .scale(0.12)
            .build()
            .rasterize()
    }

    fn config(procs: u32, cache: CacheKind) -> MachineConfig {
        MachineConfig::builder()
            .processors(procs)
            .cache(cache)
            .bus_ratio(1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn assignment_owners_are_in_range() {
        for a in [TriangleAssignment::RoundRobin, TriangleAssignment::Chunked { chunk: 7 }] {
            for i in 0..100u64 {
                assert!(a.owner(i, 5) < 5, "{a} index {i}");
            }
        }
        assert_eq!(TriangleAssignment::RoundRobin.owner(13, 4), 1);
        assert_eq!(TriangleAssignment::Chunked { chunk: 10 }.owner(13, 4), 1);
        assert_eq!(TriangleAssignment::Chunked { chunk: 10 }.owner(45, 4), 0);
    }

    #[test]
    fn every_fragment_is_drawn_once() {
        let s = stream();
        for a in [TriangleAssignment::RoundRobin, TriangleAssignment::Chunked { chunk: 16 }] {
            let r = run_sort_last(&s, &config(8, CacheKind::PaperL1), a);
            let drawn: u64 = r.nodes().iter().map(|n| n.pixels).sum();
            assert_eq!(drawn, s.fragment_count(), "{a}");
        }
    }

    #[test]
    fn one_processor_matches_sort_middle() {
        // With a single node both architectures degenerate to the same
        // serial engine, whatever cache the node mounts.
        let s = stream();
        let g = CacheGeometry::paper_l1();
        let l2 = CacheGeometry::new(65536, 8, 64).unwrap();
        let mut configs: Vec<MachineConfig> = [
            CacheKind::Perfect,
            CacheKind::PaperL1,
            CacheKind::SetAssoc(CacheGeometry::new(4096, 2, 64).unwrap()),
            CacheKind::Classifying(g),
            CacheKind::TwoLevel(g, l2),
            CacheKind::Victim(g, 8),
        ]
        .into_iter()
        .map(|cache| config(1, cache))
        .collect();
        let mut dram = config(1, CacheKind::PaperL1);
        dram.dram = Some(DramConfig::sdram_like(BusConfig::ratio(1.0)));
        configs.push(dram);
        for cfg in configs {
            let sl = run_sort_last(&s, &cfg, TriangleAssignment::RoundRobin);
            let sm = Machine::new(cfg.clone()).run(&s);
            assert_eq!(sl.total_cycles(), sm.total_cycles(), "{}", cfg.summary());
            assert_eq!(sl.cache_totals(), sm.cache_totals(), "{}", cfg.summary());
        }
    }

    #[test]
    fn sort_last_reports_are_pinned() {
        // FNV-1a digests of the Debug text of sort-last reports, recorded
        // on the per-triangle node loop before sort-last became a capture
        // over a one-owner-per-triangle plan.
        use TriangleAssignment::{Chunked, RoundRobin};
        let s = stream();
        let g = CacheGeometry::paper_l1();
        let mut dram = config(8, CacheKind::PaperL1);
        dram.dram = Some(DramConfig::sdram_like(BusConfig::ratio(1.0)));
        let runs = [
            (config(8, CacheKind::Perfect), RoundRobin, 0x5ec904d17265005e),
            (config(8, CacheKind::PaperL1), Chunked { chunk: 32 }, 0x38cecbc278b77eca),
            (config(5, CacheKind::Classifying(g)), RoundRobin, 0xe37d1c9574d0b076),
            (config(4, CacheKind::Victim(g, 8)), Chunked { chunk: 7 }, 0x609301094dd7275e),
            (dram, RoundRobin, 0x5dd02b2bebedf0f0),
        ];
        for (cfg, assignment, want) in runs {
            let report = run_sort_last(&s, &cfg, assignment);
            let digest = sortmid_observe::provenance::fnv1a_64(format!("{report:?}").into_bytes());
            assert_eq!(digest, want, "{} {assignment}: {digest:#018x}", cfg.summary());
        }
    }

    #[test]
    fn round_robin_balances_triangles_perfectly() {
        let s = stream();
        let r = run_sort_last(&s, &config(8, CacheKind::Perfect), TriangleAssignment::RoundRobin);
        let counts: Vec<u64> = r.nodes().iter().map(|n| n.triangles).collect();
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "triangle counts {counts:?}");
    }

    #[test]
    fn sort_last_pays_no_overlap() {
        // Each triangle goes to exactly one node: overlap factor 1 for
        // live triangles (vs > 1 for sort-middle on the same scene).
        let s = stream();
        let sl = run_sort_last(&s, &config(16, CacheKind::Perfect), TriangleAssignment::RoundRobin);
        let live = s.triangles().iter().filter(|t| !t.is_culled()).count() as u64;
        assert_eq!(sl.triangles_routed(), live);
        let sm = Machine::new(
            MachineConfig::builder()
                .processors(16)
                .distribution(Distribution::block(16))
                .cache(CacheKind::Perfect)
                .build()
                .unwrap(),
        )
        .run(&s);
        assert!(sm.triangles_routed() > live);
    }

    #[test]
    fn chunking_recovers_texture_locality() {
        // Round robin interleaves objects across nodes; chunked runs keep
        // an object's texture walk on one cache.
        let s = stream();
        let rr = run_sort_last(&s, &config(16, CacheKind::PaperL1), TriangleAssignment::RoundRobin);
        let chunked = run_sort_last(
            &s,
            &config(16, CacheKind::PaperL1),
            TriangleAssignment::Chunked { chunk: 64 },
        );
        assert!(
            chunked.texel_to_fragment() <= rr.texel_to_fragment() * 1.05,
            "chunked {:.3} should not exceed round-robin {:.3}",
            chunked.texel_to_fragment(),
            rr.texel_to_fragment()
        );
    }
}
