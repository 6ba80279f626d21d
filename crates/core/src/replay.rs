//! Trace capture and report synthesis for one-pass multi-config sweeps.
//!
//! Which texture lines a node touches depends only on the fragment stream
//! and the [`RoutingPlan`] — never on the cache, bus or buffer parameters.
//! This module exploits that split: [`capture_line_trace`] records each
//! node's access sequence once per plan, the
//! [stack-distance evaluator](sortmid_cache::stackdist) prices every
//! set-associative geometry of the sweep grid from that one trace, and
//! `replay_timing` re-derives a [`RunReport`] for each config by driving
//! the exact engine/FIFO timing model with the replayed per-fragment miss
//! counts. Configs sharing a `(plan, cache model)` below the walk's
//! threshold replay a `capture_direct` instead — one pass of the model
//! over the plan's buckets — and the same `replay_timing` drives the
//! engines from its sparse miss record. The synthesized reports are
//! byte-identical to [`Machine::run`](crate::machine::Machine::run) —
//! property tests and the sweep's own internal grouping enforce it.

use crate::config::{CacheKind, MachineConfig};
use crate::plan::RoutingPlan;
use crate::report::{NodeReport, RunReport};
use sortmid_cache::{
    AnyCache, CacheGeometry, CacheStats, LineAccessTrace, LineCache, MissBreakdown,
    TraceEvaluation,
};
use sortmid_memsys::{Cycle, EngineTiming, TriangleFifo};
use sortmid_observe::MissClassCounts;
use sortmid_raster::{FragBatch, FragmentStream};
use sortmid_texture::TEXELS_PER_FRAGMENT;

/// Captures the per-node texture-line access sequence one routing plan
/// produces: every node's fragments in processing order, 8 texel lines per
/// fragment — the geometry-independent half of a machine run.
pub fn capture_line_trace(stream: &FragmentStream, plan: &RoutingPlan) -> LineAccessTrace {
    line_trace(&FragBatch::from_stream(stream), stream, plan)
}

/// [`capture_line_trace`] from the stream's already-pivoted [`FragBatch`]
/// (the sweep amortises one batch across every plan): each fragment's
/// footprint lane is copied out of the batch through the plan's buckets.
pub(crate) fn line_trace(
    batch: &FragBatch,
    stream: &FragmentStream,
    plan: &RoutingPlan,
) -> LineAccessTrace {
    // Exact per-node sizing first: traces are the sweep's biggest
    // allocation, growing them piecemeal would fragment.
    let mut counts = vec![0usize; plan.procs() as usize];
    for (node, bucket) in plan.buckets(stream) {
        counts[node] += bucket.len();
    }
    let mut lines: Vec<Vec<u32>> = counts
        .iter()
        .map(|&n| Vec::with_capacity(n * TEXELS_PER_FRAGMENT))
        .collect();
    for (node, bucket) in plan.buckets(stream) {
        let dst = &mut lines[node];
        for &fi in bucket {
            dst.extend_from_slice(batch.lane_array(fi as usize));
        }
    }
    LineAccessTrace::from_nodes(lines, TEXELS_PER_FRAGMENT as u32)
}

/// The stack-distance request a config's cache maps to, when the replay
/// path can serve it: the set-associative geometry plus whether the config
/// wants the three-C decomposition. `None` for cache models the Mattson
/// machinery cannot express (perfect, two-level, victim) and for machines
/// with a DRAM row model (fill cost then depends on miss *addresses*, not
/// just counts).
pub(crate) fn replay_request(config: &MachineConfig) -> Option<(CacheGeometry, bool)> {
    if config.dram.is_some() {
        return None;
    }
    match config.cache {
        CacheKind::PaperL1 => Some((CacheGeometry::paper_l1(), false)),
        CacheKind::SetAssoc(g) => Some((g, false)),
        CacheKind::Classifying(g) => Some((g, true)),
        CacheKind::Perfect
        | CacheKind::TwoLevel(_, _)
        | CacheKind::Victim(_, _) => None,
    }
}

/// One node's cache outcome as the timing replay consumes it: the miss
/// count or miss lines of each fragment in processing order, plus the
/// node's final cache counters. Implemented over a stack-distance
/// evaluation's dense per-fragment counts ([`walk_misses`]) and over a
/// capture's sparse miss list ([`DirectCapture::nodes`]).
pub(crate) trait NodeMisses {
    /// Drives `engine` through the node's next `count` fragments.
    fn advance(&mut self, engine: &mut EngineTiming, count: usize);

    /// The node's cache statistics, three-C breakdown and external
    /// fetches.
    fn cache(&self) -> (CacheStats, Option<MissBreakdown>, u64);
}

/// A stack-distance evaluation's per-fragment miss counts for one node
/// and geometry.
pub(crate) struct WalkMisses<'a> {
    misses: &'a [u8],
    next: usize,
    stats: CacheStats,
    breakdown: Option<MissBreakdown>,
}

/// Each node's [`WalkMisses`] of geometry `geom` in `eval`; `classify`
/// selects whether the reports carry the three-C breakdown (a
/// [`CacheKind::Classifying`] config does, a plain set-associative one
/// does not, even when both share a geometry slot).
pub(crate) fn walk_misses(
    eval: &TraceEvaluation,
    geom: usize,
    classify: bool,
) -> Vec<WalkMisses<'_>> {
    (0..eval.node_count())
        .map(|i| WalkMisses {
            misses: eval.fragment_misses(i, geom),
            next: 0,
            stats: eval.stats(i, geom),
            breakdown: if classify { eval.breakdown(i, geom) } else { None },
        })
        .collect()
}

impl NodeMisses for WalkMisses<'_> {
    fn advance(&mut self, engine: &mut EngineTiming, count: usize) {
        // Run-length walk: all-hit stretches advance the engine in bulk.
        let end = self.next + count;
        let mut j = self.next;
        while j < end {
            if self.misses[j] == 0 {
                let run = j;
                while j < end && self.misses[j] == 0 {
                    j += 1;
                }
                engine.fragments_clean((j - run) as u64);
            } else {
                engine.fragment(self.misses[j] as u32);
                j += 1;
            }
        }
        self.next = end;
    }

    fn cache(&self) -> (CacheStats, Option<MissBreakdown>, u64) {
        (self.stats, self.breakdown, self.stats.misses())
    }
}

/// Synthesizes the [`RunReport`] of `config` from each node's recorded
/// misses, byte-identical to [`Machine::run`](crate::machine::Machine::run):
/// the routing walk, FIFO backpressure, engine scan/stall/setup-floor
/// timing and bus occupancy are simulated exactly as in the direct path,
/// but every texel probe is replaced by the node's [`NodeMisses`].
pub(crate) fn replay_timing<M: NodeMisses>(
    config: &MachineConfig,
    stream: &FragmentStream,
    plan: &RoutingPlan,
    mut nodes: Vec<M>,
) -> RunReport {
    assert!(
        plan.matches(&config.distribution, config.processors),
        "plan built for {}x{} does not fit machine {}x{}",
        plan.distribution(),
        plan.procs(),
        config.distribution,
        config.processors,
    );
    assert_eq!(
        nodes.len(),
        config.processors as usize,
        "recorded misses and machine disagree on node count"
    );
    let procs = config.processors as usize;
    let triangles = stream.triangles();

    let mut engines: Vec<EngineTiming> = (0..procs)
        .map(|_| match config.dram {
            Some(dram) => EngineTiming::with_dram(config.bus, config.prefetch_window, dram),
            None => EngineTiming::new(config.bus, config.prefetch_window),
        })
        .collect();
    let mut fifos: Vec<TriangleFifo> = (0..procs)
        .map(|_| TriangleFifo::new(config.triangle_buffer))
        .collect();
    let mut pixels = vec![0u64; procs];
    let mut routed_tris = vec![0u64; procs];
    let mut discarded = vec![0u64; procs];
    let mut send_time: Cycle = 0;

    for pt in &plan.triangles {
        let mut send = send_time + config.geometry_cycles_per_triangle;
        for fifo in &fifos {
            send = send.max(fifo.earliest_send());
        }
        send_time = send;

        let tri = &triangles[pt.tri as usize];
        let mut seg = pt.seg_start as usize;
        let seg_end = pt.seg_end as usize;
        let mut bucket_start = tri.frag_start as usize;

        let mut m = pt.mask;
        for i in 0..procs {
            if m & 1 != 0 {
                let count = if seg < seg_end && plan.segments[seg].owner == i as u32 {
                    let end = plan.segments[seg].end as usize;
                    seg += 1;
                    let count = end - bucket_start;
                    bucket_start = end;
                    count
                } else {
                    // Bounding-box overlap without owned fragments: the
                    // setup floor still applies.
                    0
                };
                let start = engines[i].start_triangle(send);
                fifos[i].record_start(start);
                routed_tris[i] += 1;
                pixels[i] += count as u64;
                nodes[i].advance(&mut engines[i], count);
                engines[i].finish_triangle(config.setup_cycles);
            } else {
                let start = engines[i].engine_free().max(send);
                fifos[i].record_start(start);
                discarded[i] += 1;
            }
            m >>= 1;
        }
    }

    let node_reports: Vec<NodeReport> = (0..procs)
        .map(|i| {
            let (cache, miss_breakdown, external_fetches) = nodes[i].cache();
            NodeReport {
                pixels: pixels[i],
                triangles: routed_tris[i],
                discarded: discarded[i],
                finish: engines[i].finish_time(),
                busy_cycles: engines[i].busy_cycles(),
                stall_cycles: engines[i].stall_cycles(),
                setup_floor_cycles: engines[i].setup_floor_cycles(),
                starved_cycles: engines[i].starved_cycles(),
                idle_cycles: engines[i].fill_tail_cycles(),
                bus_busy_cycles: engines[i].bus_busy_cycles(),
                cache,
                miss_breakdown,
                external_fetches,
            }
        })
        .collect();
    RunReport::from_nodes(config.summary(), node_reports, stream, plan.routed())
}

/// One cache model's pass over a plan's per-node access sequences, shared
/// by every machine config that mounts that model on that plan.
///
/// Which texel probes hit or miss depends only on the cache model and the
/// per-node access sequence — never on the bus, buffer, or DRAM
/// parameters. [`capture_direct`] therefore runs the model once per
/// `(plan, cache)` pair, recording each node's sparse missing fragments
/// (index, miss count, exact miss line addresses) plus the model's final
/// statistics; [`replay_timing`] then re-derives a full [`RunReport`] per
/// config by driving only the engine/FIFO timing model against the
/// recording.
#[derive(Debug, Clone)]
pub(crate) struct DirectCapture {
    nodes: Vec<NodeCapture>,
}

/// One node's recording in a [`DirectCapture`].
#[derive(Debug, Clone)]
struct NodeCapture {
    /// `(fragment index in lane order, miss count)` for every fragment
    /// with at least one miss, ascending by index.
    miss_frags: Vec<(u32, u32)>,
    /// The miss line addresses, concatenated in access order
    /// (DRAM-backed machines price fills by address, not count).
    miss_lines: Vec<u32>,
    stats: CacheStats,
    breakdown: Option<MissBreakdown>,
    external_fetches: u64,
}

impl DirectCapture {
    /// Each node's recording as a [`NodeMisses`] source for
    /// [`replay_timing`].
    pub(crate) fn nodes(&self) -> Vec<CapturedMisses<'_>> {
        self.nodes
            .iter()
            .map(|node| CapturedMisses { node, next: 0, frag: 0, line: 0 })
            .collect()
    }
}

/// A cursor over one node's [`DirectCapture`] recording: the next
/// fragment index in lane order, the next sparse miss-fragment entry and
/// the next miss line.
pub(crate) struct CapturedMisses<'a> {
    node: &'a NodeCapture,
    next: usize,
    frag: usize,
    line: usize,
}

impl NodeMisses for CapturedMisses<'_> {
    fn advance(&mut self, engine: &mut EngineTiming, count: usize) {
        let end = self.next + count;
        let NodeCapture { miss_frags, miss_lines, .. } = self.node;
        while let Some(&(fi, misses)) = miss_frags.get(self.frag) {
            let (fi, misses) = (fi as usize, misses as usize);
            if fi >= end {
                break;
            }
            if fi > self.next {
                engine.fragments_clean((fi - self.next) as u64);
            }
            engine.fragment_lines(&miss_lines[self.line..self.line + misses]);
            self.line += misses;
            self.frag += 1;
            self.next = fi + 1;
        }
        if end > self.next {
            engine.fragments_clean((end - self.next) as u64);
        }
        self.next = end;
    }

    fn cache(&self) -> (CacheStats, Option<MissBreakdown>, u64) {
        (self.node.stats, self.node.breakdown, self.node.external_fetches)
    }
}

/// Runs `kind`'s cache model over `plan`'s per-node access sequences once,
/// recording the sparse miss structure [`replay_timing`] replays.
///
/// The walk reads footprint lanes straight out of the shared [`FragBatch`]
/// through the plan's fragment buckets — the per-node sequence is exactly
/// the [`capture_line_trace`] order, without materialising the trace.
pub(crate) fn capture_direct(
    kind: CacheKind,
    batch: &FragBatch,
    stream: &FragmentStream,
    plan: &RoutingPlan,
) -> DirectCapture {
    let procs = plan.procs() as usize;
    let mut caches: Vec<AnyCache> = (0..procs).map(|_| kind.build_model()).collect();
    let mut frags: Vec<Vec<(u32, u32)>> = vec![Vec::new(); procs];
    let mut lines: Vec<Vec<u32>> = vec![Vec::new(); procs];
    let mut next = vec![0u32; procs];
    for (node, bucket) in plan.buckets(stream) {
        let (frags, lines, next) = (&mut frags[node], &mut lines[node], &mut next[node]);
        // Dispatch on the cache variant once per *bucket*, not once per
        // fragment, so the concrete batched probe inlines.
        match &mut caches[node] {
            AnyCache::Perfect(c) => capture_bucket(c, batch, bucket, next, frags, lines),
            AnyCache::SetAssoc(c) => capture_bucket(c, batch, bucket, next, frags, lines),
            AnyCache::Classifying(c) => capture_bucket(c, batch, bucket, next, frags, lines),
            AnyCache::TwoLevel(c) => capture_bucket(c, batch, bucket, next, frags, lines),
            AnyCache::Victim(c) => capture_bucket(c, batch, bucket, next, frags, lines),
            AnyCache::Dyn(c) => capture_bucket(c.as_mut(), batch, bucket, next, frags, lines),
        }
    }
    let nodes = caches
        .iter()
        .zip(frags.into_iter().zip(lines))
        .map(|(cache, (miss_frags, miss_lines))| NodeCapture {
            miss_frags,
            miss_lines,
            stats: *cache.stats(),
            breakdown: cache.breakdown(),
            external_fetches: cache.external_fetches(),
        })
        .collect();
    DirectCapture { nodes }
}

/// One owner bucket of [`capture_direct`]'s walk: probes each fragment's
/// footprint lane through the concrete cache model and records the sparse
/// misses.
#[inline]
fn capture_bucket<C: LineCache + ?Sized>(
    cache: &mut C,
    batch: &FragBatch,
    bucket: &[u32],
    next: &mut u32,
    frags: &mut Vec<(u32, u32)>,
    lines: &mut Vec<u32>,
) {
    let mut miss_buf = [0u32; TEXELS_PER_FRAGMENT];
    let mut classes = MissClassCounts::default();
    for &fi in bucket {
        let misses = cache.access_lane(batch.lane_array(fi as usize), &mut miss_buf, &mut classes);
        if misses > 0 {
            frags.push((*next, misses as u32));
            lines.extend_from_slice(&miss_buf[..misses]);
        }
        *next += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Distribution;
    use crate::machine::Machine;
    use sortmid_cache::{evaluate_trace, GeometryRequest};
    use sortmid_scene::{Benchmark, SceneBuilder};

    fn stream() -> FragmentStream {
        SceneBuilder::benchmark(Benchmark::Quake)
            .scale(0.1)
            .build()
            .rasterize()
    }

    fn config(procs: u32, cache: CacheKind) -> MachineConfig {
        MachineConfig::builder()
            .processors(procs)
            .distribution(Distribution::block(16))
            .cache(cache)
            .build()
            .unwrap()
    }

    #[test]
    fn trace_covers_every_fragment_once() {
        let s = stream();
        let plan = RoutingPlan::build(&s, &Distribution::block(16), 4);
        let trace = capture_line_trace(&s, &plan);
        assert_eq!(trace.node_count(), 4);
        let fragments: usize = (0..4).map(|n| trace.fragment_count(n)).sum();
        assert_eq!(fragments as u64, s.fragment_count());
    }

    #[test]
    fn replayed_report_is_byte_identical_to_direct() {
        let s = stream();
        let geometry = CacheGeometry::paper_l1();
        for (cache, classify) in [
            (CacheKind::PaperL1, false),
            (CacheKind::Classifying(geometry), true),
        ] {
            let cfg = config(4, cache);
            let plan = RoutingPlan::build(&s, &cfg.distribution, cfg.processors);
            let trace = capture_line_trace(&s, &plan);
            let eval = evaluate_trace(&trace, &[GeometryRequest { geometry, classify }]);
            let replayed = replay_timing(&cfg, &s, &plan, walk_misses(&eval, 0, classify));
            let direct = Machine::new(cfg).run(&s);
            assert_eq!(replayed, direct);
        }
    }

    #[test]
    fn replay_request_covers_the_mattson_expressible_kinds() {
        let g = CacheGeometry::paper_l1();
        assert_eq!(
            replay_request(&config(2, CacheKind::PaperL1)),
            Some((g, false))
        );
        assert_eq!(
            replay_request(&config(2, CacheKind::SetAssoc(g))),
            Some((g, false))
        );
        assert_eq!(
            replay_request(&config(2, CacheKind::Classifying(g))),
            Some((g, true))
        );
        assert_eq!(replay_request(&config(2, CacheKind::Perfect)), None);
        assert_eq!(
            replay_request(&config(2, CacheKind::Victim(g, 4))),
            None
        );
    }
}
