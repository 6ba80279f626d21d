//! The frame pipeline's cache and timing stages.
//!
//! Each node owns a private cache, so which lines it misses depends only
//! on the fragments it owns (never on bus, buffer or DRAM parameters), and
//! the FIFO and engine timing depends only on those misses. A frame
//! window is made in three stages over a `RoutingPlan`: route its
//! triangles into owner runs ([`crate::plan`]); run each cache model over
//! the runs — `capture` runs one model's per-node caches and records every
//! fragment's miss lines, `walk_window` feeds one
//! [`MattsonWalk`] that prices many set-associative geometries at once;
//! then walk the broadcast, FIFO and engine timing over the misses
//! (`Timing`).
//!
//! The frame loop in [`crate::machine`] streams a frame through the stages
//! window by window with persistent cache models and a resumable
//! `Timing`, for [`Machine::run`](crate::machine::Machine::run) and for
//! each sweep frame group alike. Property tests pin it to the per-texel
//! [`crate::reference`] oracle.

use crate::config::{CacheKind, MachineConfig};
use crate::plan::{RoutingPlan, Run};
use crate::report::{CacheCounters, NodeReport, RunReport};
use sortmid_cache::{AnyCache, CacheGeometry, FragmentMisses, LineCache, MattsonWalk};
use sortmid_geom::Rect;
use sortmid_memsys::{Cycle, EngineTiming, TriangleFifo};
use sortmid_observe::{MissClassCounts, TraceEvent, TraceSink};
use sortmid_raster::{Fragment, FragmentStream};
use sortmid_texture::{footprint_lines, TEXELS_PER_FRAGMENT};
use std::iter::Peekable;

/// The stack-distance request a config's cache maps to, when a
/// [`MattsonWalk`] can serve it: the set-associative geometry plus whether
/// the config wants the three-C decomposition. `None` for cache models the
/// Mattson machinery cannot express (perfect, two-level, victim) and for
/// machines with a DRAM row model (fill cost then depends on miss
/// *addresses*, not just counts).
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

/// Runs every node's cache over its runs of `plan`, replacing each node's
/// recording with the outcome. The runs are taken in stream order and
/// their fragments read where the stream holds them; each node thereby
/// sees its fragments in processing order. A perfect cache reads no
/// fragment: every probe hits, so each of a triangle's per-owner counts
/// only adds its hits and fragments. With an enabled `S` the recording
/// also keeps each missing fragment's three-C counts for the traced timing
/// walk, so untraced recordings do not grow.
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
    if matches!(caches.first(), Some(AnyCache::Perfect(_))) {
        for seg in plan.segments() {
            let node = seg.owner as usize;
            let AnyCache::Perfect(c) = &mut caches[node] else {
                unreachable!("a model's caches share one kind")
            };
            c.record_hits(seg.count as u64 * TEXELS_PER_FRAGMENT as u64);
            nodes[node].frags += seg.count;
        }
        return;
    }
    for run in plan.runs() {
        let (rec, frags) = (&mut nodes[run.owner as usize], &stream.fragments()[run.range()]);
        // Dispatch on the cache variant once per *run*, not once per
        // fragment, so the concrete batched probe inlines.
        match &mut caches[run.owner as usize] {
            AnyCache::Perfect(_) => unreachable!("a model's caches share one kind"),
            AnyCache::SetAssoc(c) => capture_run::<S, _>(c, frags, rec),
            AnyCache::Classifying(c) => capture_run::<S, _>(c, frags, rec),
            AnyCache::TwoLevel(c) => capture_run::<S, _>(c, frags, rec),
            AnyCache::Victim(c) => capture_run::<S, _>(c, frags, rec),
            AnyCache::Growing(c) => capture_run::<S, _>(c, frags, rec),
        }
    }
}

/// One owner run of [`capture`]: one batched [`LineCache::access_lane`]
/// probe per fragment footprint, recording the sparse misses.
#[inline]
fn capture_run<S: TraceSink, C: LineCache>(
    cache: &mut C,
    frags: &[Fragment],
    rec: &mut NodeCapture,
) {
    let mut miss_buf = [0u32; TEXELS_PER_FRAGMENT];
    let mut classes = MissClassCounts::default();
    for frag in frags {
        if S::ENABLED {
            classes = MissClassCounts::default();
        }
        let lane = footprint_lines(&frag.texels);
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

/// Walks every node's fragments of `plan` through `walk` as one window:
/// the footprint lines a node's cache would probe, in the same order.
/// Node by node, each node's runs in stream order, not run by run in plan
/// order: one node's recency stack stays in the host's caches while it is
/// walked, which kept the traced `cache-geometry` walk at 746–748 ms a
/// round, against 852–890 ms walking in plan order (2-vCPU Xeon, seed 0).
pub(crate) fn walk_window(walk: &mut MattsonWalk, stream: &FragmentStream, plan: &RoutingPlan) {
    walk.start_window();
    for node in 0..walk.node_count() {
        let runs = plan.runs().iter().filter(|run| run.owner as usize == node);
        let frags = runs.flat_map(|run| &stream.fragments()[run.range()]);
        walk.walk(node, frags.map(|frag| footprint_lines(&frag.texels)));
    }
}

/// One node's cache outcome as the timing walk consumes it: a cursor over
/// the fragments that missed, in processing order, from a capture
/// ([`NodeCapture::cursor`]) or a Mattson walk ([`MissCursor::walked`]).
/// All-hit stretches between them advance the engine in bulk.
pub(crate) struct MissCursor<'a> {
    /// `(fragment index in lane order, miss count)` of every fragment with
    /// at least one miss, ascending by index.
    misses: Peekable<FragmentMisses<'a>>,
    /// The miss line addresses in access order, when recorded; a Mattson
    /// walk keeps counts only, which prices the same on a machine without
    /// a DRAM row model.
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

    /// A counts-only cursor over `node`'s misses in geometry `geom` of
    /// `walk`'s current window.
    pub(crate) fn walked(walk: &'a MattsonWalk, node: usize, geom: usize) -> Self {
        MissCursor::new(walk.fragment_misses(node, geom), None, &[])
    }

    /// Drives `engine` through the `count` fragments of one triangle that
    /// `node` owns. An enabled `sink` also receives every fragment's
    /// spatial sample, at the pixel it finds in the triangle's `runs`.
    fn advance<S: TraceSink>(
        &mut self,
        engine: &mut EngineTiming,
        count: u32,
        runs: &[Run],
        node: u32,
        stream: &FragmentStream,
        sink: &mut S,
    ) {
        assert!(
            self.miss_lines.is_some() || !S::ENABLED,
            "a stack-distance walk keeps miss counts, not lines to trace"
        );
        let end = self.next + count as usize;
        // Samples are taken in processing order, one per owned fragment.
        let mut owned = runs
            .iter()
            .filter(|run| run.owner == node)
            .flat_map(|run| &stream.fragments()[run.range()]);
        let mut sample = |sink: &mut S, misses: usize, class| {
            let frag = owned.next().expect("one sample per owned fragment");
            sink.record_fragment(node, frag.x, frag.y, misses as u32, class);
        };
        loop {
            let miss = self.misses.next_if(|&(fi, _)| (fi as usize) < end);
            let clean_end = miss.map_or(end, |(fi, _)| fi as usize);
            // Every fragment owes a traced sink a spatial sample; untraced
            // runs advance all-hit stretches in bulk.
            if S::ENABLED {
                for _ in self.next..clean_end {
                    engine.fragment_lines_sink(&[], node, sink);
                    sample(sink, 0, MissClassCounts::default());
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
                        sample(sink, lines.len(), self.classes[self.frag]);
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

            let runs = plan.triangle_runs(pt);
            let mut segments = plan.triangle_segments(pt).iter().peekable();
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
                    let owned = segments.next_if(|seg| seg.owner == id).map_or(0, |seg| seg.count);
                    let cursor = &mut misses[i];
                    let free = node.draw(send, id, pt.tri, owned, runs, cursor, stream, sink);
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

    /// Processes triangle `tri`, sent at `arrival`, of which this node
    /// (`node`) owns `owned` fragments — possibly none, as the setup floor
    /// applies regardless — found in the triangle's `runs`. Returns the
    /// cycle the engine is free again.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn draw<S: TraceSink>(
        &mut self,
        arrival: Cycle,
        node: u32,
        tri: u32,
        owned: u32,
        runs: &[Run],
        misses: &mut MissCursor<'_>,
        stream: &FragmentStream,
        sink: &mut S,
    ) -> Cycle {
        let start = self.engine.start_triangle(arrival);
        self.triangles += 1;
        self.pixels += owned as u64;
        if S::ENABLED {
            sink.record(TraceEvent::FifoPop { node, at: start });
            sink.record(TraceEvent::TriStart { node, tri, at: start, frags: owned });
        }
        misses.advance(&mut self.engine, owned, runs, node, stream, sink);
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

    fn config(procs: u32, cache: CacheKind) -> MachineConfig {
        MachineConfig::builder()
            .processors(procs)
            .distribution(Distribution::block(16))
            .cache(cache)
            .build()
            .unwrap()
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
