//! One texture-mapping node: engine timing + cache + triangle FIFO.

use crate::batch::TriangleLanes;
use crate::config::MachineConfig;
use crate::report::NodeReport;
use sortmid_cache::{AnyCache, CacheStats, LineCache};
use sortmid_memsys::{Cycle, EngineTiming, TriangleFifo};
use sortmid_observe::{MissClassCounts, TraceEvent, TraceSink};
use sortmid_texture::TEXELS_PER_FRAGMENT;

/// The simulation state of one node.
///
/// The cache is stored as a concrete [`AnyCache`] enum rather than a
/// `Box<dyn LineCache>`: the probe runs once per fragment, so
/// devirtualizing `access_lane` lets the common set-associative and
/// perfect-cache probes inline into [`Node::process_triangle_lanes`].
pub(crate) struct Node {
    engine: EngineTiming,
    cache: AnyCache,
    fifo: TriangleFifo,
    setup_cycles: Cycle,
    pixel_work: u64,
    triangles_routed: u64,
    triangles_discarded: u64,
}

impl Node {
    /// Builds a node from the machine configuration.
    pub(crate) fn new(config: &MachineConfig) -> Self {
        let engine = match config.dram {
            Some(dram) => EngineTiming::with_dram(config.bus, config.prefetch_window, dram),
            None => EngineTiming::new(config.bus, config.prefetch_window),
        };
        Node {
            engine,
            cache: config.cache.build_model(),
            fifo: TriangleFifo::new(config.triangle_buffer),
            setup_cycles: config.setup_cycles,
            pixel_work: 0,
            triangles_routed: 0,
            triangles_discarded: 0,
        }
    }

    /// The earliest cycle the geometry stage may send this node another
    /// triangle (FIFO backpressure).
    pub(crate) fn earliest_send(&self) -> Cycle {
        self.fifo.earliest_send()
    }

    /// Processes one routed triangle: `arrival` is its send time, `lanes`
    /// holds the fragments this node owns, in stream order (possibly none
    /// — the setup floor still applies).
    ///
    /// Reports the FIFO dequeue, the triangle's start (with fragment
    /// count), every bus line fill, the retire, and the spatial hooks —
    /// one sample per fragment (with classified line misses) plus the
    /// triangle's setup-floor padding anchored at `anchor` (the bounding
    /// box origin, so overlaps that own no fragments still attribute their
    /// setup somewhere meaningful). With [`NullSink`](sortmid_observe::NullSink)
    /// all event code monomorphizes away, leaving the untraced hot loop.
    pub(crate) fn process_triangle_lanes<S: TraceSink>(
        &mut self,
        arrival: Cycle,
        lanes: TriangleLanes<'_>,
        node_id: u32,
        tri_id: u32,
        anchor: (u16, u16),
        sink: &mut S,
    ) {
        // Dispatch on the cache variant once per *triangle*, not once per
        // fragment, so the concrete batched probe inlines into the loop.
        self.process_triangle_with(
            arrival,
            lanes.len(),
            node_id,
            tri_id,
            anchor,
            sink,
            |cache, engine, sink| match cache {
                AnyCache::Perfect(c) => scan_lanes(c, engine, lanes, node_id, sink),
                AnyCache::SetAssoc(c) => scan_lanes(c, engine, lanes, node_id, sink),
                AnyCache::Classifying(c) => scan_lanes(c, engine, lanes, node_id, sink),
                AnyCache::TwoLevel(c) => scan_lanes(c, engine, lanes, node_id, sink),
                AnyCache::Victim(c) => scan_lanes(c, engine, lanes, node_id, sink),
                AnyCache::Dyn(c) => scan_lanes(c.as_mut(), engine, lanes, node_id, sink),
            },
        );
    }

    /// The triangle framing around a fragment scan: engine start, FIFO
    /// dequeue, counters, lifecycle events and the setup floor. `scan`
    /// probes the cache and feeds the engine for the triangle's `frags`
    /// fragments — the batched lane scan in production, the per-texel walk
    /// in [`crate::reference`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn process_triangle_with<S: TraceSink>(
        &mut self,
        arrival: Cycle,
        frags: usize,
        node_id: u32,
        tri_id: u32,
        anchor: (u16, u16),
        sink: &mut S,
        scan: impl FnOnce(&mut AnyCache, &mut EngineTiming, &mut S),
    ) {
        let start = self.engine.start_triangle(arrival);
        self.fifo.record_start(start);
        self.triangles_routed += 1;
        self.pixel_work += frags as u64;
        if S::ENABLED {
            sink.record(TraceEvent::FifoPop { node: node_id, at: start });
            sink.record(TraceEvent::TriStart {
                node: node_id,
                tri: tri_id,
                at: start,
                frags: frags as u32,
            });
        }
        scan(&mut self.cache, &mut self.engine, sink);
        let free = self.engine.finish_triangle(self.setup_cycles);
        if S::ENABLED {
            sink.record_setup(node_id, anchor.0, anchor.1, self.engine.last_setup_padding());
            sink.record(TraceEvent::TriRetire { node: node_id, tri: tri_id, at: free });
        }
    }

    /// Accepts a broadcast triangle whose bounding box misses this node's
    /// region: the clipping hardware discards it for free, but it occupied
    /// a FIFO slot until the engine reached it — that occupancy is the
    /// whole point of Section 8's buffering study.
    pub(crate) fn discard_triangle_traced<S: TraceSink>(
        &mut self,
        arrival: Cycle,
        node_id: u32,
        tri_id: u32,
        sink: &mut S,
    ) {
        let start = self.engine.engine_free().max(arrival);
        self.fifo.record_start(start);
        self.triangles_discarded += 1;
        if S::ENABLED {
            sink.record(TraceEvent::FifoPop { node: node_id, at: start });
            sink.record(TraceEvent::TriDiscard { node: node_id, tri: tri_id, at: start });
        }
    }

    /// Short label of this node's cache model (for trace track names).
    pub(crate) fn cache_label(&self) -> &'static str {
        self.cache.label()
    }

    /// Prepares the node for the next frame of a sequence: timing, FIFO
    /// and counters restart, but the **cache keeps its contents** — that
    /// retention is exactly what the inter-frame locality study measures.
    pub(crate) fn start_new_frame(&mut self) {
        self.engine.reset();
        self.fifo.reset();
        self.pixel_work = 0;
        self.triangles_routed = 0;
        self.triangles_discarded = 0;
    }

    /// Snapshot of the cumulative cache counters, for per-frame deltas in
    /// sequence runs.
    pub(crate) fn cache_snapshot(&self) -> (CacheStats, u64) {
        (*self.cache.stats(), self.cache.external_fetches())
    }

    /// Like [`report`](Self::report) but with cache statistics expressed
    /// relative to an earlier [`cache_snapshot`](Self::cache_snapshot)
    /// (the per-frame view in a warm-cache sequence).
    pub(crate) fn report_since(&self, snapshot: &(CacheStats, u64)) -> NodeReport {
        let mut report = self.report();
        report.cache = self.cache.stats().delta_since(&snapshot.0);
        report.external_fetches = self.cache.external_fetches() - snapshot.1;
        report
    }

    /// Snapshot of this node's counters for the report.
    pub(crate) fn report(&self) -> NodeReport {
        NodeReport {
            pixels: self.pixel_work,
            triangles: self.triangles_routed,
            discarded: self.triangles_discarded,
            finish: self.engine.finish_time(),
            busy_cycles: self.engine.busy_cycles(),
            stall_cycles: self.engine.stall_cycles(),
            setup_floor_cycles: self.engine.setup_floor_cycles(),
            starved_cycles: self.engine.starved_cycles(),
            idle_cycles: self.engine.fill_tail_cycles(),
            bus_busy_cycles: self.engine.bus_busy_cycles(),
            miss_breakdown: self.cache.breakdown(),
            cache: cache_stats_copy(self.cache.stats()),
            external_fetches: self.cache.external_fetches(),
        }
    }
}

fn cache_stats_copy(stats: &CacheStats) -> CacheStats {
    *stats
}

/// The batched hot loop: one [`LineCache::access_lane`] call resolves a
/// fragment's whole footprint (branch-free compares, duplicate-run
/// collapse — whatever the concrete model overrides), and the miss lines
/// feed the engine's bus in access order. Generic over the concrete cache
/// model so the probe fully inlines (`?Sized` keeps the
/// `Box<dyn LineCache>` escape hatch usable through the same code path).
#[inline]
fn scan_lanes<C, S>(
    cache: &mut C,
    engine: &mut EngineTiming,
    lanes: TriangleLanes<'_>,
    node_id: u32,
    sink: &mut S,
) where
    C: LineCache + ?Sized,
    S: TraceSink,
{
    // Untraced runs coalesce consecutive all-hit fragments into one bulk
    // engine advance ([`EngineTiming::fragments_clean`]); traced runs keep
    // the per-fragment engine calls because every fragment owes the sink a
    // spatial sample.
    let mut clean_run: u64 = 0;
    for (i, lane) in lanes.lines.chunks_exact(TEXELS_PER_FRAGMENT).enumerate() {
        let mut miss_lines = [0u32; TEXELS_PER_FRAGMENT];
        let mut classes = MissClassCounts::default();
        let misses = cache.access_lane(lane, &mut miss_lines, &mut classes);
        debug_assert!(
            misses <= lane.len(),
            "fragment at ({}, {}) reported {misses} misses for an {}-texel footprint",
            lanes.xs[i],
            lanes.ys[i],
            lane.len(),
        );
        if !S::ENABLED && misses == 0 {
            clean_run += 1;
            continue;
        }
        if clean_run > 0 {
            engine.fragments_clean(clean_run);
            clean_run = 0;
        }
        engine.fragment_lines_sink(&miss_lines[..misses], node_id, sink);
        if S::ENABLED {
            sink.record_fragment(node_id, lanes.xs[i], lanes.ys[i], misses as u32, classes);
        }
    }
    if clean_run > 0 {
        engine.fragments_clean(clean_run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::LaneScratch;
    use crate::config::CacheKind;
    use crate::distribution::Distribution;
    use sortmid_observe::NullSink;
    use sortmid_raster::Fragment;
    use sortmid_texture::{TextureDesc, TextureRegistry};

    fn config(cache: CacheKind) -> MachineConfig {
        MachineConfig::builder()
            .processors(1)
            .distribution(Distribution::block(16))
            .cache(cache)
            .build()
            .unwrap()
    }

    /// Feeds `frags` to `node` as one triangle arriving at cycle 0.
    fn process(node: &mut Node, frags: &[Fragment]) {
        let mut lanes = LaneScratch::default();
        for frag in frags {
            lanes.push(frag);
        }
        node.process_triangle_lanes(0, lanes.lanes(), 0, 0, (0, 0), &mut NullSink);
    }

    fn fragment(reg: &TextureRegistry, u: i32, v: i32) -> Fragment {
        let id = reg.ids().next().unwrap();
        let a = reg.texel_addr(id, 0, u, v);
        Fragment {
            x: 0,
            y: 0,
            texels: [a; 8],
        }
    }

    #[test]
    fn node_counts_work_and_setup_floor() {
        let mut reg = TextureRegistry::new();
        reg.register(TextureDesc::new(64, 64).unwrap()).unwrap();
        let mut node = Node::new(&config(CacheKind::Perfect));
        let f = fragment(&reg, 0, 0);
        process(&mut node, &[f; 5]);
        // 5 pixels < 25-cycle floor.
        assert_eq!(node.report().finish, 25);
        assert_eq!(node.report().pixels, 5);
        assert_eq!(node.report().triangles, 1);
    }

    #[test]
    fn cache_misses_feed_the_bus() {
        let mut reg = TextureRegistry::new();
        reg.register(TextureDesc::new(256, 256).unwrap()).unwrap();
        let id = reg.ids().next().unwrap();
        let mut node = Node::new(&config(CacheKind::PaperL1));
        // 64 fragments in distinct 4x4 blocks: one compulsory miss each.
        let frags: Vec<Fragment> = (0..64)
            .map(|i| {
                let a = reg.texel_addr(id, 0, (i % 16) * 4, (i / 16) * 4);
                Fragment { x: 0, y: 0, texels: [a; 8] }
            })
            .collect();
        process(&mut node, &frags);
        let rep = node.report();
        assert_eq!(rep.cache.misses(), 64);
        assert_eq!(rep.external_fetches, 64);
        // 64 fills at 16 cycles on a ratio-1 bus dominate the 64 scans.
        assert!(rep.finish > 64 * 16);
    }

    #[test]
    fn empty_triangle_still_costs_setup() {
        let mut node = Node::new(&config(CacheKind::Perfect));
        process(&mut node, &[]);
        process(&mut node, &[]);
        assert_eq!(node.report().finish, 50);
        assert_eq!(node.report().pixels, 0);
        assert_eq!(node.report().triangles, 2);
    }
}
