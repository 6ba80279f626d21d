//! The parallel sort-middle machine simulation.

use crate::batch::LaneScratch;
use crate::config::MachineConfig;
use crate::node::Node;
use crate::plan::OwnerLut;
use crate::report::RunReport;
use sortmid_geom::Rect;
use sortmid_memsys::Cycle;
use sortmid_observe::{NullSink, TraceEvent, TraceSink};
use sortmid_raster::FragmentStream;

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

/// The machine: replays a [`FragmentStream`] under a [`MachineConfig`].
///
/// The simulation walks the triangle stream once, in order — exactly the
/// order the geometry stage emits. For each triangle it:
///
/// 1. **broadcasts** it: every node's FIFO takes a slot (the paper's chips
///    receive every primitive and clip in hardware — a node whose region
///    the bounding box misses discards the triangle for free, but the slot
///    was still occupied);
/// 2. waits until **every** FIFO has space (the geometry stage is a single
///    in-order producer — a full FIFO anywhere blocks everyone, which is
///    the paper's local load imbalance);
/// 3. nodes whose regions the bounding box overlaps pay the 25-cycle setup
///    floor and scan their owned fragments, probing their private cache
///    once per fragment footprint and queuing line fills on their private
///    bus.
///
/// Machine time is the cycle the slowest node completes its last fill.
///
/// # Examples
///
/// See [`crate`]-level docs.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
}

impl Machine {
    /// Creates a machine from a validated configuration.
    pub fn new(config: MachineConfig) -> Self {
        Machine { config }
    }

    /// The configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Simulates the stream and returns the run report.
    pub fn run(&self, stream: &FragmentStream) -> RunReport {
        self.run_traced(stream, &mut NullSink)
    }

    /// [`run`](Self::run) with a [`TraceSink`] receiving the run's event
    /// stream: FIFO push/pop per node, triangle start/retire/discard, and
    /// every texture-bus line fill with its exact slot and cost.
    ///
    /// The report is byte-identical to [`run`](Self::run) — tracing only
    /// observes. Events are emitted in *simulation* order (triangle by
    /// triangle), not globally sorted by cycle; consumers such as
    /// [`TraceRecorder`](sortmid_observe::TraceRecorder) sort on export.
    /// With [`NullSink`] the whole event path monomorphizes away, which is
    /// what keeps the untraced sweep at its reference speed.
    pub fn run_traced<S: TraceSink>(&self, stream: &FragmentStream, sink: &mut S) -> RunReport {
        let mut nodes = self.nodes();
        let routed = self.run_frame(stream, &mut nodes, sink);
        RunReport::from_nodes(
            self.config.summary(),
            nodes.iter().map(Node::report).collect(),
            stream,
            routed,
        )
    }

    /// Per-node track labels for trace exports: `node <i> (<cache model>)`.
    pub fn node_labels(&self) -> Vec<String> {
        let label = Node::new(&self.config).cache_label();
        (0..self.config.processors)
            .map(|i| format!("node {i} ({label})"))
            .collect()
    }

    /// Simulates a *sequence* of frames on the same machine: timing and
    /// FIFOs restart each frame, but every node's **cache stays warm** —
    /// the inter-frame locality situation the paper's closing paragraph
    /// asks about (an L2 per node only sees its own screen fraction, so a
    /// viewpoint translation larger than the tile size defeats it).
    ///
    /// Returns one report per frame; each report's cache statistics cover
    /// only that frame.
    pub fn run_sequence(&self, frames: &[&FragmentStream]) -> Vec<RunReport> {
        let mut nodes = self.nodes();
        let mut reports = Vec::with_capacity(frames.len());
        for (i, stream) in frames.iter().enumerate() {
            if i > 0 {
                for node in &mut nodes {
                    node.start_new_frame();
                }
            }
            let snapshots: Vec<_> = nodes.iter().map(Node::cache_snapshot).collect();
            let routed = self.run_frame(stream, &mut nodes, &mut NullSink);
            reports.push(RunReport::from_nodes(
                format!("{} frame {}", self.config.summary(), i),
                nodes
                    .iter()
                    .zip(&snapshots)
                    .map(|(node, snap)| node.report_since(snap))
                    .collect(),
                stream,
                routed,
            ));
        }
        reports
    }

    fn nodes(&self) -> Vec<Node> {
        (0..self.config.processors)
            .map(|_| Node::new(&self.config))
            .collect()
    }

    /// Replays one stream over existing nodes; returns the routed count.
    ///
    /// Each triangle's fragments are routed through an [`OwnerLut`] into
    /// per-node [`LaneScratch`] buffers (footprint line ids plus pixel
    /// coordinates, stream order), and every overlapped node scans its
    /// buffer on the batched core. The buffers are reused triangle to
    /// triangle, so memory stays O(largest triangle).
    fn run_frame<S: TraceSink>(
        &self,
        stream: &FragmentStream,
        nodes: &mut [Node],
        sink: &mut S,
    ) -> u64 {
        let procs = self.config.processors;
        let dist = &self.config.distribution;
        let lut = OwnerLut::build(dist, stream.screen(), procs);
        let mut scratch: Vec<LaneScratch> = nodes.iter().map(|_| LaneScratch::default()).collect();
        let mut send_time: Cycle = 0;
        let mut routed: u64 = 0;

        for (ti, tri) in stream.triangles().iter().enumerate() {
            if tri.is_culled() {
                continue;
            }
            let mask = dist.overlap_mask(&tri.bbox, procs);
            debug_assert_ne!(mask, 0, "non-culled triangle must route somewhere");
            routed += mask.count_ones() as u64;

            // Partition the triangle's fragments by owner.
            for frag in stream.fragments_of(tri) {
                let owner = lut.owner(frag.x, frag.y);
                debug_assert!(mask & (1u128 << owner) != 0, "owner outside overlap mask");
                scratch[owner as usize].push(frag);
            }

            // In-order producer broadcasting to every node: sending is
            // gated by the geometry bus rate and by the fullest FIFO
            // anywhere, and never goes back in time.
            let mut send = send_time + self.config.geometry_cycles_per_triangle;
            for node in nodes.iter() {
                send = send.max(node.earliest_send());
            }
            send_time = send;

            let mut m = mask;
            for (i, (node, lanes)) in nodes.iter_mut().zip(&mut scratch).enumerate() {
                if S::ENABLED {
                    // The broadcast occupies a slot in *every* FIFO.
                    sink.record(TraceEvent::FifoPush { node: i as u32, at: send });
                }
                if m & 1 != 0 {
                    node.process_triangle_lanes(
                        send,
                        lanes.lanes(),
                        i as u32,
                        ti as u32,
                        setup_anchor(&tri.bbox),
                        sink,
                    );
                    lanes.clear();
                } else {
                    node.discard_triangle_traced(send, i as u32, ti as u32, sink);
                }
                m >>= 1;
            }
        }
        routed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheKind;
    use crate::distribution::Distribution;
    use sortmid_scene::{Benchmark, SceneBuilder};

    fn stream() -> FragmentStream {
        SceneBuilder::benchmark(Benchmark::Quake)
            .scale(0.1)
            .build()
            .rasterize()
    }

    fn config(procs: u32, dist: Distribution, cache: CacheKind) -> MachineConfig {
        MachineConfig::builder()
            .processors(procs)
            .distribution(dist)
            .cache(cache)
            .build()
            .unwrap()
    }

    #[test]
    fn discards_complement_routed_triangles() {
        // Broadcast semantics: every node sees every non-culled triangle,
        // either as a routed triangle or as a discard.
        let s = stream();
        let live = s.triangles().iter().filter(|t| !t.is_culled()).count() as u64;
        let report = Machine::new(config(8, Distribution::block(16), CacheKind::Perfect)).run(&s);
        for node in report.nodes() {
            assert_eq!(node.triangles + node.discarded, live);
        }
    }

    #[test]
    fn all_fragments_are_drawn_under_any_distribution() {
        let s = stream();
        for dist in [Distribution::block(8), Distribution::sli(2)] {
            for procs in [1u32, 3, 16] {
                let report = Machine::new(config(procs, dist.clone(), CacheKind::Perfect)).run(&s);
                let drawn: u64 = report.nodes().iter().map(|n| n.pixels).sum();
                assert_eq!(drawn, s.fragment_count(), "{dist} {procs}p");
            }
        }
    }

    #[test]
    fn parallel_machine_is_no_slower_than_serial_work() {
        let s = stream();
        let base = Machine::new(config(1, Distribution::block(16), CacheKind::Perfect)).run(&s);
        let par = Machine::new(config(4, Distribution::block(16), CacheKind::Perfect)).run(&s);
        assert!(par.total_cycles() <= base.total_cycles());
        let speedup = par.speedup_vs(&base);
        assert!(speedup > 1.0 && speedup <= 4.0, "speedup {speedup}");
    }

    #[test]
    fn single_processor_time_is_total_work() {
        // With a perfect cache and one node, time = sum of max(25, pixels).
        let s = stream();
        let report = Machine::new(config(1, Distribution::block(16), CacheKind::Perfect)).run(&s);
        let expected: u64 = s
            .triangles()
            .iter()
            .filter(|t| !t.is_culled())
            .map(|t| (t.fragment_count() as u64).max(25))
            .sum();
        assert_eq!(report.total_cycles(), expected);
    }

    #[test]
    fn distributions_agree_on_single_processor() {
        let s = stream();
        let a = Machine::new(config(1, Distribution::block(4), CacheKind::PaperL1)).run(&s);
        let b = Machine::new(config(1, Distribution::sli(16), CacheKind::PaperL1)).run(&s);
        assert_eq!(a.total_cycles(), b.total_cycles());
        assert_eq!(a.texel_to_fragment(), b.texel_to_fragment());
    }

    #[test]
    fn smaller_tiles_raise_texel_traffic() {
        // The locality effect (Figure 6): with 16 processors, 4-pixel tiles
        // fetch more than 64-pixel tiles.
        let s = stream();
        let small = Machine::new(config(16, Distribution::block(4), CacheKind::PaperL1)).run(&s);
        let big = Machine::new(config(16, Distribution::block(64), CacheKind::PaperL1)).run(&s);
        assert!(
            small.texel_to_fragment() > big.texel_to_fragment(),
            "small {} vs big {}",
            small.texel_to_fragment(),
            big.texel_to_fragment()
        );
    }

    #[test]
    fn tiny_fifo_hurts() {
        let s = stream();
        let mut small_cfg = config(8, Distribution::block(16), CacheKind::PaperL1);
        small_cfg.triangle_buffer = 1;
        let mut big_cfg = config(8, Distribution::block(16), CacheKind::PaperL1);
        big_cfg.triangle_buffer = 10_000;
        let small = Machine::new(small_cfg).run(&s);
        let big = Machine::new(big_cfg).run(&s);
        assert!(
            small.total_cycles() > big.total_cycles(),
            "buf1 {} vs buf10000 {}",
            small.total_cycles(),
            big.total_cycles()
        );
    }

    #[test]
    fn geometry_bus_rate_bounds_the_machine() {
        let s = stream();
        let live = s.triangles().iter().filter(|t| !t.is_culled()).count() as u64;
        let mut cfg = config(16, Distribution::block(16), CacheKind::Perfect);
        let fast = Machine::new(cfg.clone()).run(&s);
        cfg.geometry_cycles_per_triangle = 100;
        let slow = Machine::new(cfg).run(&s);
        assert!(slow.total_cycles() > fast.total_cycles());
        // The rate is a hard lower bound: the last triangle cannot be sent
        // before live * rate cycles.
        assert!(slow.total_cycles() >= live * 100);
    }

    #[test]
    fn sequence_first_frame_matches_single_run() {
        let s = stream();
        let machine = Machine::new(config(8, Distribution::block(16), CacheKind::PaperL1));
        let single = machine.run(&s);
        let seq = machine.run_sequence(&[&s, &s]);
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[0].total_cycles(), single.total_cycles());
        assert_eq!(seq[0].cache_totals().misses(), single.cache_totals().misses());
    }

    #[test]
    fn warm_caches_make_the_second_frame_cheaper() {
        let s = stream();
        let machine = Machine::new(config(4, Distribution::block(16), CacheKind::PaperL1));
        let seq = machine.run_sequence(&[&s, &s]);
        // An identical second frame re-reads the same lines: every
        // compulsory miss of frame 1 becomes a hit (up to capacity).
        assert!(
            seq[1].cache_totals().misses() <= seq[0].cache_totals().misses(),
            "frame 2 misses {} vs frame 1 {}",
            seq[1].cache_totals().misses(),
            seq[0].cache_totals().misses()
        );
        assert!(seq[1].total_cycles() <= seq[0].total_cycles());
    }

    #[test]
    fn routed_triangles_grow_with_processors() {
        let s = stream();
        let few = Machine::new(config(2, Distribution::sli(1), CacheKind::Perfect)).run(&s);
        let many = Machine::new(config(32, Distribution::sli(1), CacheKind::Perfect)).run(&s);
        assert!(many.overlap_factor() >= few.overlap_factor());
        assert!(few.overlap_factor() >= 1.0);
    }
}
