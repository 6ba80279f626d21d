//! The frame pipeline's cache and timing stages, shared by every way a
//! report is made.
//!
//! Each node owns a private cache, so which lines it misses depends only
//! on the fragments it owns (never on bus, buffer or DRAM parameters), and
//! the FIFO and engine timing depends only on those misses. A report is
//! made in three stages over a [`RoutingPlan`]: route the triangles
//! ([`crate::plan`]); run each node's cache over its buckets — `capture`
//! records every fragment's miss lines, or one [`capture_line_trace`]
//! feeds the [stack-distance evaluator](sortmid_cache::stackdist) that
//! prices many set-associative geometries at once; then walk the
//! broadcast, FIFO and engine timing over the misses (`Timing`).
//!
//! The frame loop in [`crate::machine`] streams a frame through the stages
//! window by window with persistent caches and a resumable `Timing`, for
//! [`Machine::run`](crate::machine::Machine::run) and for each sweep frame
//! group alike. A Mattson-walk plan instead routes its whole frame once
//! and replays one evaluation per config (`replay_timing`). Property tests
//! pin both to the per-texel [`crate::reference`] oracle.

use crate::config::{CacheKind, MachineConfig};
use crate::plan::RoutingPlan;
use crate::report::{CacheCounters, NodeReport, RunReport};
use sortmid_cache::{
    AnyCache, CacheGeometry, FragmentMisses, LineAccessTrace, LineCache, TraceEvaluation,
};
use sortmid_geom::Rect;
use sortmid_memsys::{Cycle, EngineTiming, TriangleFifo};
use sortmid_observe::{MissClassCounts, NullSink, TraceEvent, TraceSink};
use sortmid_raster::FragmentStream;
use sortmid_texture::{footprint_lines, TEXELS_PER_FRAGMENT};
use std::iter::Peekable;

/// Captures the per-node texture-line access sequence one routing plan
/// produces: every node's fragments in processing order, 8 texel lines per
/// fragment — the geometry-independent half of a machine run.
pub fn capture_line_trace(stream: &FragmentStream, plan: &RoutingPlan) -> LineAccessTrace {
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
            dst.extend_from_slice(&footprint_lines(&stream.fragments()[fi as usize].texels));
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

/// Each node's miss cursor over geometry `geom` in `eval`, with its cache
/// counters; `classify` selects whether the reports carry the three-C
/// breakdown (a [`CacheKind::Classifying`] config does, a plain
/// set-associative one does not, even when both share a geometry slot).
pub(crate) fn walk_misses(
    eval: &TraceEvaluation,
    geom: usize,
    classify: bool,
) -> (Vec<MissCursor<'_>>, Vec<CacheCounters>) {
    (0..eval.node_count())
        .map(|i| {
            let stats = eval.stats(i, geom);
            let counters = CacheCounters {
                stats,
                breakdown: if classify { eval.breakdown(i, geom) } else { None },
                external_fetches: stats.misses(),
            };
            (MissCursor::new(eval.fragment_misses(i, geom), None, &[]), counters)
        })
        .unzip()
}

/// One node's cache outcome over the fragments of a plan: which fragments
/// missed, on which lines, in processing order.
///
/// Which texel probes hit or miss depends only on the cache model and the
/// node's access sequence, never on the bus, buffer or DRAM parameters, so
/// one recording serves every timing walk over the same cache and plan.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeCapture {
    /// Fragments recorded (the next fragment's index in lane order).
    frags: u32,
    /// `(fragment index in lane order, miss count)` for every fragment
    /// with at least one miss, ascending by index.
    miss_frags: Vec<(u32, u32)>,
    /// The miss line addresses, concatenated in access order
    /// (DRAM-backed machines price fills by address, not count).
    miss_lines: Vec<u32>,
    /// Each missing fragment's three-C counts, parallel to `miss_frags`;
    /// recorded only for traced runs, which report them per fragment.
    classes: Vec<MissClassCounts>,
}

impl NodeCapture {
    /// A cursor replaying the recording from its first fragment.
    pub(crate) fn cursor(&self) -> MissCursor<'_> {
        let misses = FragmentMisses::new(&self.miss_frags, &[]);
        MissCursor::new(misses, Some(&self.miss_lines), &self.classes)
    }
}

/// Runs every node's cache over its buckets of `plan`, replacing each
/// node's recording with the outcome. A perfect cache reads no fragment:
/// every probe hits, so its bucket only adds its hits and fragments. With
/// an enabled `S` the recording also keeps each missing fragment's three-C
/// counts for the traced timing walk, so untraced recordings do not grow.
pub(crate) fn capture<S: TraceSink>(
    caches: &mut [AnyCache],
    stream: &FragmentStream,
    plan: &RoutingPlan,
    nodes: &mut [NodeCapture],
) {
    for node in nodes.iter_mut() {
        node.frags = 0;
        node.miss_frags.clear();
        node.miss_lines.clear();
        node.classes.clear();
    }
    for (node, bucket) in plan.buckets(stream) {
        let rec = &mut nodes[node];
        // Dispatch on the cache variant once per *bucket*, not once per
        // fragment, so the concrete batched probe inlines.
        match &mut caches[node] {
            AnyCache::Perfect(c) => {
                c.record_hits((bucket.len() * TEXELS_PER_FRAGMENT) as u64);
                rec.frags += bucket.len() as u32;
            }
            AnyCache::SetAssoc(c) => capture_bucket::<S, _>(c, stream, bucket, rec),
            AnyCache::Classifying(c) => capture_bucket::<S, _>(c, stream, bucket, rec),
            AnyCache::TwoLevel(c) => capture_bucket::<S, _>(c, stream, bucket, rec),
            AnyCache::Victim(c) => capture_bucket::<S, _>(c, stream, bucket, rec),
        }
    }
}

/// One owner bucket of [`capture`]: one batched
/// [`LineCache::access_lane`] probe per fragment footprint, recording the
/// sparse misses.
#[inline]
fn capture_bucket<S: TraceSink, C: LineCache>(
    cache: &mut C,
    stream: &FragmentStream,
    bucket: &[u32],
    rec: &mut NodeCapture,
) {
    let mut miss_buf = [0u32; TEXELS_PER_FRAGMENT];
    let mut classes = MissClassCounts::default();
    for &fi in bucket {
        if S::ENABLED {
            classes = MissClassCounts::default();
        }
        let lane = footprint_lines(&stream.fragments()[fi as usize].texels);
        let misses = cache.access_lane(&lane, &mut miss_buf, &mut classes);
        if misses > 0 {
            rec.miss_frags.push((rec.frags, misses as u32));
            rec.miss_lines.extend_from_slice(&miss_buf[..misses]);
            if S::ENABLED {
                rec.classes.push(classes);
            }
        }
        rec.frags += 1;
    }
}

/// One node's cache outcome as the timing walk consumes it: a cursor over
/// the fragments that missed, in processing order, from a capture
/// ([`NodeCapture::cursor`]) or a stack-distance evaluation
/// ([`walk_misses`]). All-hit stretches between them advance the engine
/// in bulk.
pub(crate) struct MissCursor<'a> {
    /// `(fragment index in lane order, miss count)` of every fragment with
    /// at least one miss, ascending by index.
    misses: Peekable<FragmentMisses<'a>>,
    /// The miss line addresses in access order, when recorded; an
    /// evaluation keeps counts only, which prices the same on a machine
    /// without a DRAM row model.
    miss_lines: Option<&'a [u32]>,
    /// Each missing fragment's three-C counts, parallel to `misses`
    /// (traced captures only).
    classes: &'a [MissClassCounts],
    /// The next fragment index in lane order, missing fragment and miss
    /// line.
    next: usize,
    frag: usize,
    line: usize,
}

impl<'a> MissCursor<'a> {
    fn new(
        misses: FragmentMisses<'a>,
        miss_lines: Option<&'a [u32]>,
        classes: &'a [MissClassCounts],
    ) -> Self {
        MissCursor { misses: misses.peekable(), miss_lines, classes, next: 0, frag: 0, line: 0 }
    }

    /// Drives `engine` through the fragments of one triangle that `node`
    /// owns; `bucket` holds their stream indices in processing order. An
    /// enabled `sink` also receives every fragment's spatial sample.
    fn advance<S: TraceSink>(
        &mut self,
        engine: &mut EngineTiming,
        bucket: &[u32],
        node: u32,
        stream: &FragmentStream,
        sink: &mut S,
    ) {
        assert!(
            self.miss_lines.is_some() || !S::ENABLED,
            "a stack-distance walk keeps miss counts, not lines to trace"
        );
        let (start, end) = (self.next, self.next + bucket.len());
        let sample = |sink: &mut S, index: usize, misses: usize, class| {
            let frag = &stream.fragments()[bucket[index - start] as usize];
            sink.record_fragment(node, frag.x, frag.y, misses as u32, class);
        };
        loop {
            let miss = self.misses.next_if(|&(fi, _)| (fi as usize) < end);
            let clean_end = miss.map_or(end, |(fi, _)| fi as usize);
            // Every fragment owes a traced sink a spatial sample; untraced
            // runs advance all-hit stretches in bulk.
            if S::ENABLED {
                for index in self.next..clean_end {
                    engine.fragment_lines_sink(&[], node, sink);
                    sample(sink, index, 0, MissClassCounts::default());
                }
            } else if clean_end > self.next {
                engine.fragments_clean((clean_end - self.next) as u64);
            }
            let Some((fi, misses)) = miss else { break };
            match self.miss_lines {
                Some(miss_lines) => {
                    let lines = &miss_lines[self.line..self.line + misses as usize];
                    engine.fragment_lines_sink(lines, node, sink);
                    if S::ENABLED {
                        sample(sink, fi as usize, lines.len(), self.classes[self.frag]);
                    }
                    self.line += lines.len();
                }
                None => engine.fragment(misses),
            }
            self.frag += 1;
            self.next = fi as usize + 1;
        }
        self.next = end;
    }
}

/// Synthesizes the [`RunReport`] of `config` from each node's recorded
/// misses and cache counters over the whole of `plan`: the sweep's timing
/// walk for a stack-distance evaluation.
pub(crate) fn replay_timing(
    config: &MachineConfig,
    stream: &FragmentStream,
    plan: &RoutingPlan,
    mut nodes: Vec<MissCursor<'_>>,
    counters: Vec<CacheCounters>,
) -> RunReport {
    assert!(
        plan.matches(&config.distribution, config.processors),
        "plan built for {}x{} does not fit machine {}x{}",
        plan.distribution(),
        plan.procs(),
        config.distribution,
        config.processors,
    );
    let mut timing = Timing::new(config);
    timing.advance(stream, plan, &mut nodes, &mut NullSink);
    timing.report(config.summary(), stream, counters)
}

/// The screen-space anchor a triangle's setup padding is attributed to in
/// spatial traces: the bounding-box origin clamped to non-negative
/// coordinates (an overlapped node pays the setup floor even when it owns
/// no fragment of the triangle, so fragment positions cannot anchor it).
pub(crate) fn setup_anchor(bbox: &Rect) -> (u16, u16) {
    (
        bbox.x0.clamp(0, u16::MAX as i32) as u16,
        bbox.y0.clamp(0, u16::MAX as i32) as u16,
    )
}

/// The machine's timing over one frame, resumable window by window: the
/// in-order geometry stage broadcasting every triangle, the FIFO
/// backpressure that gates it, and each engine's scan, bus-stall and
/// setup-floor timing.
///
/// Every triangle enters every node's FIFO, so all the FIFOs hold the
/// same triangles in the same order, and one ring stands for them all.
/// Node *n* dequeues triangle *j* at `max(send_j, engine_free_n)` whether
/// it draws or discards it, and a discard leaves the engine untouched. So
/// the latest dequeue of triangle *j* over all nodes is
/// `max(send_j, F_j)`, where `F_j` is the latest engine-free time of any
/// node before *j*; triangle *k* may be sent once triangle *k − B* has
/// left that ring. Engine-free times only move in a draw, so `F` is a
/// running max of the draws' finish times, and an untraced walk visits
/// only the nodes a triangle overlaps.
#[derive(Clone)]
pub(crate) struct Timing {
    geometry_cycles: Cycle,
    pub(crate) nodes: Vec<NodeTiming>,
    /// The broadcast gate: the latest dequeue over all nodes of each of
    /// the last `B` triangles sent.
    fifo: TriangleFifo,
    send_time: Cycle,
    /// The latest engine-free time of any node so far.
    engine_free: Cycle,
    /// Triangles broadcast so far: each node drew or discarded every one.
    broadcast: u64,
    pub(crate) routed: u64,
}

impl Timing {
    /// The timing state of `config`'s machine before its first triangle.
    pub(crate) fn new(config: &MachineConfig) -> Self {
        Timing {
            geometry_cycles: config.geometry_cycles_per_triangle,
            nodes: (0..config.processors).map(|_| NodeTiming::new(config)).collect(),
            fifo: TriangleFifo::new(config.triangle_buffer),
            send_time: 0,
            engine_free: 0,
            broadcast: 0,
            routed: 0,
        }
    }

    /// Walks the triangles routed into `plan` as
    /// [`Machine`](crate::Machine) describes — broadcast, FIFO
    /// backpressure, setup floor — driving each overlapped node's engine
    /// through its recorded `misses`. An enabled `sink` receives the
    /// events of every node, discards included, in simulation order.
    pub(crate) fn advance<S: TraceSink>(
        &mut self,
        stream: &FragmentStream,
        plan: &RoutingPlan,
        misses: &mut [MissCursor<'_>],
        sink: &mut S,
    ) {
        assert_eq!(misses.len(), self.nodes.len(), "one miss source per node");
        self.routed += plan.routed();
        // Every node, without shifting a u128 by 128 at 128 processors.
        let all_nodes = u128::MAX >> (128 - self.nodes.len());
        for pt in &plan.triangles {
            // In-order producer: sending is gated by the geometry bus rate
            // and by the full FIFOs, and never goes back in time.
            let send = (self.send_time + self.geometry_cycles).max(self.fifo.earliest_send());
            self.send_time = send;
            self.fifo.record_start(send.max(self.engine_free));
            self.broadcast += 1;

            let mut buckets = plan.triangle_buckets(pt, stream).peekable();
            let mut visit = if S::ENABLED { all_nodes } else { pt.mask };
            while visit != 0 {
                let i = visit.trailing_zeros() as usize;
                visit &= visit - 1;
                let (node, id) = (&mut self.nodes[i], i as u32);
                if S::ENABLED {
                    sink.record(TraceEvent::FifoPush { node: id, at: send });
                }
                if (pt.mask >> i) & 1 != 0 {
                    // An overlap without owned fragments still pays the
                    // setup floor.
                    let owned = buckets.next_if(|&(owner, _)| owner == i);
                    let bucket = owned.map_or(&[][..], |(_, b)| b);
                    let free = node.draw(send, id, pt.tri, bucket, &mut misses[i], stream, sink);
                    self.engine_free = self.engine_free.max(free);
                } else {
                    node.discard(send, id, pt.tri, sink);
                }
            }
        }
    }

    /// The frame's report, with each node's cache columns from `counters`.
    pub(crate) fn report(
        self,
        summary: String,
        stream: &FragmentStream,
        counters: impl IntoIterator<Item = CacheCounters>,
    ) -> RunReport {
        let nodes = self
            .nodes
            .iter()
            .zip(counters)
            .map(|(node, c)| {
                // A node discards every broadcast triangle it does not
                // draw; sort-last draws without broadcasting, so saturate.
                let discarded = self.broadcast.saturating_sub(node.triangles);
                node.report(discarded, c)
            })
            .collect();
        RunReport::from_nodes(summary, nodes, stream, self.routed)
    }
}

/// One node's engine and work counters. The broadcast FIFO and the
/// discard count belong to [`Timing`]: a discard has no engine side
/// effect, so an untraced walk never visits a node for one.
#[derive(Clone)]
pub(crate) struct NodeTiming {
    engine: EngineTiming,
    setup_cycles: Cycle,
    pixels: u64,
    triangles: u64,
}

impl NodeTiming {
    /// A node of `config`'s machine before its first triangle.
    fn new(config: &MachineConfig) -> Self {
        NodeTiming {
            engine: match config.dram {
                Some(dram) => EngineTiming::with_dram(config.bus, config.prefetch_window, dram),
                None => EngineTiming::new(config.bus, config.prefetch_window),
            },
            setup_cycles: config.setup_cycles,
            pixels: 0,
            triangles: 0,
        }
    }

    /// Processes triangle `tri`, sent at `arrival`, whose fragments owned
    /// by this node (`node`) are `bucket` — possibly none, as the setup
    /// floor applies regardless. Returns the cycle the engine is free
    /// again.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn draw<S: TraceSink>(
        &mut self,
        arrival: Cycle,
        node: u32,
        tri: u32,
        bucket: &[u32],
        misses: &mut MissCursor<'_>,
        stream: &FragmentStream,
        sink: &mut S,
    ) -> Cycle {
        let start = self.engine.start_triangle(arrival);
        self.triangles += 1;
        self.pixels += bucket.len() as u64;
        if S::ENABLED {
            sink.record(TraceEvent::FifoPop { node, at: start });
            sink.record(TraceEvent::TriStart { node, tri, at: start, frags: bucket.len() as u32 });
        }
        misses.advance(&mut self.engine, bucket, node, stream, sink);
        let free = self.engine.finish_triangle(self.setup_cycles);
        if S::ENABLED {
            let (x, y) = setup_anchor(&stream.triangles()[tri as usize].bbox);
            sink.record_setup(node, x, y, self.engine.last_setup_padding());
            sink.record(TraceEvent::TriRetire { node, tri, at: free });
        }
        free
    }

    /// Traces a broadcast triangle whose bounding box misses this node's
    /// region: the clipping hardware discards it for free when the engine
    /// reaches it, but it held a FIFO slot until then — that occupancy is
    /// the whole point of Section 8's buffering study, and [`Timing`]'s
    /// one ring accounts for it. Only traced walks visit a node to
    /// discard.
    fn discard<S: TraceSink>(&self, arrival: Cycle, node: u32, tri: u32, sink: &mut S) {
        let start = self.engine.engine_free().max(arrival);
        sink.record(TraceEvent::FifoPop { node, at: start });
        sink.record(TraceEvent::TriDiscard { node, tri, at: start });
    }

    /// This node's report row, with `discarded` broadcast triangles and
    /// the cache columns from `cache`.
    fn report(&self, discarded: u64, cache: CacheCounters) -> NodeReport {
        NodeReport::new(&self.engine, self.pixels, self.triangles, discarded, cache)
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
            let (nodes, counters) = walk_misses(&eval, 0, classify);
            let replayed = replay_timing(&cfg, &s, &plan, nodes, counters);
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
