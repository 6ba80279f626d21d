//! The parallel sort-middle machine simulation and its one frame loop.
//!
//! A frame group — configs sharing one distribution and processor count —
//! streams a frame through the shared pipeline of [`crate::replay`] one
//! window of whole triangles at a time: route the window once, run each
//! distinct cache model over it once (one cache per node, or one Mattson
//! walk pricing many set-associative geometries), then advance one timing
//! walk per distinct timing. [`Machine::run`], [`Machine::run_traced`]
//! and [`Machine::run_sequence`] are the one-config group; the sweep runs
//! each plan group as one (`crate::sweep`).

use crate::config::{CacheKind, MachineConfig};
use crate::plan::RoutingPlan;
use crate::replay::{capture, replay_request, walk_window, MissCursor, NodeCapture, Timing};
use crate::report::{CacheCounters, RunReport};
use sortmid_cache::{AnyCache, GeometryRequest, MattsonWalk, STACKDIST_MIN_REQUESTS};
use sortmid_observe::{HostSink, NullHostSink, NullSink, TraceSink};
use sortmid_raster::FragmentStream;
use std::ops::Range;

/// Fragments per frame window. A [`FrameGroup`] routes, probes and times a
/// frame one window of whole triangles at a time, so its plan and miss
/// recordings stay O(window) whatever the stream. Measured on the
/// benchmark's `single-config` workload on a 2-vCPU Xeon: at 16 Ki
/// fragments peak RSS is 74.1 MiB and query p50 12.1 ms, against 74.3 MiB
/// and 11.6 ms for the per-triangle loop this pipeline replaced (medians
/// of 10 alternating pairs, seed 1); one whole-frame window peaks at
/// 80.5–80.7 MiB (seed 0). Windows of 1 Ki to 64 Ki fragments ran within
/// noise of each other.
const WINDOW_FRAGMENTS: usize = 16 * 1024;

/// How a frame group's configs share work, decided from the configs
/// alone: the cache model each config mounts, and the timing walk each
/// reuses. The sweep prices a group's task from it before any cache is
/// built.
pub(crate) struct Layout {
    /// Each config's model, and its geometry slot when the model is the
    /// walk.
    mounts: Vec<Mount>,
    /// Each distinct model: a cache kind built once per node, or `None`
    /// for the walk.
    pub(crate) models: Vec<Option<CacheKind>>,
    /// The walk's geometry grid; empty when the group has no walk.
    pub(crate) requests: Vec<GeometryRequest>,
    /// The first config whose timing walk each config's equals
    /// ([`MachineConfig::shares_timing`]); itself when none does.
    walk_of: Vec<usize>,
}

/// Where a config's cache outcome comes from: model `model`, and for the
/// walk, geometry slot `geom` with the three-C breakdown iff `classify` (a
/// [`CacheKind::Classifying`] config and a plain one may share a slot).
#[derive(Clone, Copy)]
struct Mount {
    model: usize,
    geom: usize,
    classify: bool,
}

impl Layout {
    /// Mounts `configs`' caches. The set-associative configs share one
    /// Mattson walk iff they request at least [`STACKDIST_MIN_REQUESTS`]
    /// distinct geometries; every other config shares the per-node caches
    /// of its cache kind.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or its members differ in distribution
    /// or processor count.
    pub(crate) fn of(configs: &[&MachineConfig]) -> Self {
        let first = configs[0];
        let mut requests: Vec<GeometryRequest> = Vec::new();
        let slots: Vec<Option<(usize, bool)>> = configs
            .iter()
            .map(|config| {
                assert!(
                    config.processors == first.processors
                        && config.distribution == first.distribution,
                    "a frame group shares one routing"
                );
                let (geometry, classify) = replay_request(config)?;
                let geom = match requests.iter().position(|r| r.geometry == geometry) {
                    Some(gi) => {
                        requests[gi].classify |= classify;
                        gi
                    }
                    None => {
                        requests.push(GeometryRequest { geometry, classify });
                        requests.len() - 1
                    }
                };
                Some((geom, classify))
            })
            .collect();
        // The walk pays off only on dense geometry grids.
        if requests.len() < STACKDIST_MIN_REQUESTS {
            requests.clear();
        }
        let mut models: Vec<Option<CacheKind>> = Vec::new();
        let mounts = configs
            .iter()
            .zip(slots)
            .map(|(config, slot)| {
                let (kind, (geom, classify)) = match slot {
                    Some(slot) if !requests.is_empty() => (None, slot),
                    _ => (Some(config.cache), (0, false)),
                };
                let model = models.iter().position(|&m| m == kind).unwrap_or_else(|| {
                    models.push(kind);
                    models.len() - 1
                });
                Mount { model, geom, classify }
            })
            .collect();
        let walk_of = configs
            .iter()
            .enumerate()
            .map(|(k, config)| {
                configs[..k].iter().position(|other| other.shares_timing(config)).unwrap_or(k)
            })
            .collect();
        Layout { mounts, models, requests, walk_of }
    }

    /// The number of distinct timing walks the group runs untraced.
    pub(crate) fn walks(&self) -> usize {
        self.walk_of.iter().enumerate().filter(|&(k, &owner)| owner == k).count()
    }

    /// Each model's number of configs.
    pub(crate) fn uses(&self) -> Vec<u64> {
        let mut uses = vec![0; self.models.len()];
        for mount in &self.mounts {
            uses[mount.model] += 1;
        }
        uses
    }
}

/// One cache model of a frame group, shared by every config that mounts
/// it.
enum Model {
    /// One cache per node.
    Caches(Vec<AnyCache>),
    /// One walk pricing every walk config's geometry on every node.
    Walk(MattsonWalk),
}

/// Configs sharing one distribution and processor count, run over a frame
/// together, doing only the work whose result can differ between them:
///
/// * each window is routed once;
/// * each distinct cache model runs over it once: a model's node caches
///   probe it — a perfect cache's bucket only counts its hits, as every
///   probe hits — or the walk prices every walk config's geometry;
/// * each distinct timing advances one walk over its model's misses.
///   Configs whose walks must be equal
///   ([`MachineConfig::shares_timing`]) share the first one's walk, and
///   each sharer takes a clone of it when the frame ends. A traced frame
///   walks every config, as its sink must see every config's events.
///
/// Cache models persist across [`run_frame`](Self::run_frame) calls, so a
/// sequence of frames runs warm.
pub(crate) struct FrameGroup<'a> {
    configs: Vec<&'a MachineConfig>,
    layout: Layout,
    models: Vec<Model>,
    /// Timing walks the last [`run_frame`](Self::run_frame) ran.
    walks: usize,
}

impl<'a> FrameGroup<'a> {
    /// Mounts `configs`' cache models ([`Layout::of`]).
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or its members differ in distribution
    /// or processor count.
    pub(crate) fn new(configs: Vec<&'a MachineConfig>) -> Self {
        let layout = Layout::of(&configs);
        let procs = configs[0].processors as usize;
        let models = layout
            .models
            .iter()
            .map(|kind| match kind {
                Some(kind) => Model::Caches((0..procs).map(|_| kind.build_model()).collect()),
                None => Model::Walk(MattsonWalk::new(&layout.requests, procs)),
            })
            .collect();
        FrameGroup { configs, layout, models, walks: 0 }
    }

    /// Config `k`'s per-node cache counters so far.
    pub(crate) fn counters(&self, k: usize) -> Vec<CacheCounters> {
        let Mount { model, geom, classify } = self.layout.mounts[k];
        match &self.models[model] {
            Model::Caches(caches) => caches.iter().map(CacheCounters::of).collect(),
            Model::Walk(walk) => (0..walk.node_count())
                .map(|i| {
                    let stats = walk.stats(i, geom);
                    let breakdown = walk.breakdown(i, geom).filter(|_| classify);
                    CacheCounters { stats, breakdown, external_fetches: stats.misses() }
                })
                .collect(),
        }
    }

    /// Timing walks the last [`run_frame`](Self::run_frame) ran: one per
    /// distinct timing untraced, one per config traced.
    pub(crate) fn walks(&self) -> usize {
        self.walks
    }

    /// Runs one frame and returns each config's timing, window by window:
    /// route the window under a `plan-build` span of `host`, run every
    /// cache model over its buckets under a `capture` span (the walk under
    /// a `mattson-walk` child span), then advance each distinct timing
    /// over its model's misses. `sink` receives the timing events of every
    /// config (a traced run holds one).
    pub(crate) fn run_frame<S: TraceSink, H: HostSink>(
        &mut self,
        stream: &FragmentStream,
        sink: &mut S,
        host: &H,
    ) -> Vec<Timing> {
        let first = self.configs[0];
        let procs = first.processors as usize;
        let mut plan = RoutingPlan::new(stream, &first.distribution, first.processors);
        // Each per-node cache model's recording of the last window.
        let mut recordings = vec![vec![NodeCapture::default(); procs]; self.models.len()];
        // Each config's walk, or `None` where it shares an earlier one's.
        let walk_of = &self.layout.walk_of;
        let mut timings: Vec<Option<Timing>> = self
            .configs
            .iter()
            .enumerate()
            .map(|(k, c)| (S::ENABLED || walk_of[k] == k).then(|| Timing::new(c)))
            .collect();
        self.walks = timings.iter().flatten().count();
        for window in windows(stream) {
            {
                let _s = host.span("plan-build");
                plan.route(stream, window);
            }
            {
                let _s = host.span("capture");
                for (model, nodes) in self.models.iter_mut().zip(&mut recordings) {
                    match model {
                        Model::Caches(caches) => capture::<S>(caches, stream, &plan, nodes),
                        Model::Walk(walk) => {
                            let _w = host.span("mattson-walk");
                            walk_window(walk, stream, &plan);
                        }
                    }
                }
            }
            for (timing, mount) in timings.iter_mut().zip(&self.layout.mounts) {
                let Some(timing) = timing else { continue };
                let mut misses: Vec<_> = match &self.models[mount.model] {
                    Model::Caches(_) => {
                        recordings[mount.model].iter().map(NodeCapture::cursor).collect()
                    }
                    Model::Walk(walk) => (0..walk.node_count())
                        .map(|i| MissCursor::walked(walk, i, mount.geom))
                        .collect(),
                };
                timing.advance(stream, &plan, &mut misses, sink);
            }
        }
        for k in 0..timings.len() {
            if timings[k].is_none() {
                timings[k] = timings[walk_of[k]].clone();
            }
        }
        timings.into_iter().map(|t| t.expect("every config has a walk")).collect()
    }
}

/// Runs `configs` as one untraced frame group over `stream`: each
/// config's report, and the number of timing walks the group ran. Test
/// support for walk sharing; production code runs frame groups through
/// [`Machine`] and the sweep.
///
/// # Panics
///
/// Panics if `configs` is empty or its members differ in distribution
/// or processor count.
#[doc(hidden)]
pub fn run_frame_group(
    stream: &FragmentStream,
    configs: &[MachineConfig],
) -> (Vec<RunReport>, usize) {
    let mut group = FrameGroup::new(configs.iter().collect());
    let timings = group.run_frame(stream, &mut NullSink, &NullHostSink);
    let reports = timings
        .into_iter()
        .zip(configs)
        .enumerate()
        .map(|(k, (timing, config))| timing.report(config.summary(), stream, group.counters(k)))
        .collect();
    (reports, group.walks())
}

/// Splits `stream`'s triangles into consecutive windows of at most
/// [`WINDOW_FRAGMENTS`] fragments; a triangle larger than that is a window
/// of its own.
pub(crate) fn windows(stream: &FragmentStream) -> impl Iterator<Item = Range<usize>> + '_ {
    let tris = stream.triangles();
    let mut start = 0;
    std::iter::from_fn(move || {
        if start == tris.len() {
            return None;
        }
        let (mut end, mut frags) = (start, 0);
        while end < tris.len() {
            let n = tris[end].fragment_count() as usize;
            if end > start && frags + n > WINDOW_FRAGMENTS {
                break;
            }
            frags += n;
            end += 1;
        }
        let window = start..end;
        start = end;
        Some(window)
    })
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
/// Because every cache is private, a node's misses depend only on the
/// fragments it owns, so the run streams the frame in windows of whole
/// triangles through three stages ([`crate::replay`]): route the window
/// into a `RoutingPlan`, run each node's persistent cache over its
/// buckets, then advance the engine and FIFO timing over the recorded
/// misses. This is the frame loop the sweep runs its frame groups on,
/// with one config.
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
        let mut group = FrameGroup::new(vec![&self.config]);
        let timing = group.run_frame(stream, sink, &NullHostSink).remove(0);
        timing.report(self.config.summary(), stream, group.counters(0))
    }

    /// Per-node track labels for trace exports: `node <i> (<cache model>)`.
    pub fn node_labels(&self) -> Vec<String> {
        let label = self.config.cache.label();
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
        let mut group = FrameGroup::new(vec![&self.config]);
        let mut reports = Vec::with_capacity(frames.len());
        for (i, stream) in frames.iter().enumerate() {
            let before = group.counters(0);
            let timing = group.run_frame(stream, &mut NullSink, &NullHostSink).remove(0);
            let counters = group
                .counters(0)
                .into_iter()
                .zip(&before)
                .map(|(counters, before)| counters.since(before));
            reports.push(timing.report(
                format!("{} frame {}", self.config.summary(), i),
                stream,
                counters,
            ));
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheKind;
    use crate::distribution::Distribution;
    use sortmid_geom::Rect;
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
    fn run_sequence_breakdown_is_per_frame() {
        // A classifying machine's three-C breakdown covers the same frame
        // as its cache statistics, so the exact-sum identity holds on
        // every frame of a warm-cache sequence, not only the first.
        use sortmid_cache::CacheGeometry;
        let s = stream();
        let cache = CacheKind::Classifying(CacheGeometry::new(4096, 2, 64).unwrap());
        let machine = Machine::new(config(4, Distribution::block(16), cache));
        let reports = machine.run_sequence(&[&s, &s, &s]);
        for (frame, report) in reports.iter().enumerate() {
            for (i, node) in report.nodes().iter().enumerate() {
                assert!(node.miss_breakdown.is_some(), "frame {frame} node {i}: no breakdown");
                if let Err(e) = node.verify_misses() {
                    panic!("frame {frame} node {i}: {e}");
                }
            }
        }
        // A repeated frame finds its lines already touched: no compulsory
        // misses after the first frame.
        let compulsory = |r: &RunReport| -> u64 {
            r.nodes().iter().map(|n| n.miss_breakdown.unwrap().compulsory).sum()
        };
        assert!(compulsory(&reports[0]) > 0);
        assert_eq!(compulsory(&reports[1]), 0);
        assert_eq!(compulsory(&reports[2]), 0);
    }

    #[test]
    fn run_sequence_reports_are_pinned() {
        // FNV-1a digests of the Debug text of a three-frame warm-cache
        // sequence (frame, panned frame, frame again) for each cache
        // family and a DRAM-backed machine, recorded on the per-triangle
        // engine before frames were streamed in windows. The classifying
        // digest was re-recorded when its three-C breakdown became per
        // frame, like its statistics.
        use sortmid_cache::CacheGeometry;
        use sortmid_memsys::{BusConfig, DramConfig};
        use sortmid_scene::animate::{camera_path, CameraStep};
        let scene = SceneBuilder::benchmark(Benchmark::Quake).scale(0.1).build();
        let s = scene.rasterize();
        let s2 = camera_path(&scene, 2, CameraStep::pan(6.0, 2.0))[1].rasterize();
        let (l1, l2) = (CacheGeometry::paper_l1(), CacheGeometry::paper_l2());
        let mut dram = config(8, Distribution::block(16), CacheKind::PaperL1);
        dram.dram = Some(DramConfig::sdram_like(BusConfig::ratio(1.0)));
        dram.triangle_buffer = 16;
        let machines = [
            (config(8, Distribution::block(16), CacheKind::Perfect), 0x59ca205e6161831b),
            (config(8, Distribution::block(16), CacheKind::PaperL1), 0xe7dd28b3c799fa23),
            (config(6, Distribution::sli(4), CacheKind::Classifying(l1)), 0xf58e8d17210c5bc4),
            (config(4, Distribution::block(8), CacheKind::TwoLevel(l1, l2)), 0xf57813dad8df2744),
            (dram, 0x36780b90b53152d0),
        ];
        for (cfg, want) in machines {
            let reports = Machine::new(cfg.clone()).run_sequence(&[&s, &s2, &s]);
            let digest = sortmid_observe::provenance::fnv1a_64(format!("{reports:?}").into_bytes());
            assert_eq!(digest, want, "{}: {digest:#018x}", cfg.summary());
        }
    }

    #[test]
    fn tiny_buffer_reports_and_events_are_pinned() {
        // FNV-1a digests of the Debug text of the report and of the traced
        // event stream, where the broadcast FIFO gates hardest: buffers of
        // 1–5 triangles at 64 and 128 processors (the mask's top bit set).
        // Recorded on the per-node FIFO timing walk, before the machine's
        // broadcast gate became one ring.
        use sortmid_observe::provenance::fnv1a_64;
        use sortmid_observe::TraceRecorder;
        let s = stream();
        let (b16, sli1) = (Distribution::block(16), Distribution::sli(1));
        let (perfect, l1) = (CacheKind::Perfect, CacheKind::PaperL1);
        let machines = [
            (64, &b16, perfect, 1, 0xcc258ba1443a0713, 0x974030e44ee69162),
            (64, &b16, l1, 1, 0x6dae83fe105c4a6d, 0xc90d00a504ebe6e9),
            (64, &b16, perfect, 5, 0x05a2d4fdf3012792, 0x4d4f67c116b9ec96),
            (64, &b16, l1, 5, 0x00adb003da69fea0, 0xff890bb2e2904274),
            (128, &sli1, perfect, 2, 0xf91899cbdbf58bfd, 0x2935c1ead14fdb0c),
            (128, &sli1, l1, 2, 0x59a89a1328b4febd, 0x26cd59dc85252b64),
        ];
        for (procs, dist, cache, buffer, want_report, want_events) in machines {
            let mut cfg = config(procs, dist.clone(), cache);
            cfg.triangle_buffer = buffer;
            let mut events = TraceRecorder::new();
            let machine = Machine::new(cfg.clone());
            let report = machine.run_traced(&s, &mut events);
            assert_eq!(machine.run(&s), report, "untraced walk: {}", cfg.summary());
            let report_digest = fnv1a_64(format!("{report:?}").into_bytes());
            let event_digest = fnv1a_64(
                events.events().iter().flat_map(|e| format!("{e:?}").into_bytes()),
            );
            assert_eq!(
                (report_digest, event_digest),
                (want_report, want_events),
                "{}: ({report_digest:#018x}, {event_digest:#018x})",
                cfg.summary()
            );
        }
    }

    #[test]
    fn prefetch_window_reports_are_pinned() {
        // FNV-1a digests of the Debug text of the report and of the traced
        // event stream across the prefetch-window axis (1, 3, 32 fragments
        // and unbounded) at a starved and a matched bus, plus a DRAM
        // machine; then one Mattson-walk sweep at window 4, whose
        // counts-only cursor drives the engine with miss counts. Recorded
        // on the per-fragment completion ring, before the window kept
        // only the fills that can stall.
        use sortmid_cache::{CacheGeometry, STACKDIST_MIN_REQUESTS};
        use sortmid_memsys::{BusConfig, DramConfig};
        use sortmid_observe::provenance::fnv1a_64;
        use sortmid_observe::TraceRecorder;
        let s = stream();
        let l1 = CacheGeometry::paper_l1();
        let nodes = [
            (16, Distribution::block(16), CacheKind::PaperL1),
            (64, Distribution::sli(2), CacheKind::Classifying(l1)),
        ];
        let mut machines = Vec::new();
        for (procs, dist, cache) in nodes {
            for window in [Some(1), Some(3), Some(32), None] {
                for ratio in [0.25, 1.0] {
                    let mut cfg = config(procs, dist.clone(), cache);
                    cfg.prefetch_window = window;
                    cfg.bus = BusConfig::ratio(ratio);
                    machines.push(cfg);
                }
            }
        }
        let mut dram = config(16, Distribution::block(16), CacheKind::PaperL1);
        dram.dram = Some(DramConfig::sdram_like(BusConfig::ratio(0.5)));
        dram.bus = BusConfig::ratio(0.5);
        dram.prefetch_window = Some(3);
        machines.push(dram);
        let want: [(u64, u64); 17] = [
            (0x0853f4d5298a60ef, 0x7df48a48d7a9a458), // 16p block-16 PaperL1, window 1, bus 0.25
            (0x20a0c8875284319d, 0x5b1bff0debe0ed25), // 16p block-16 PaperL1, window 1, bus 1.0
            (0x2d683821df784e14, 0x98783ec101ac227a), // 16p block-16 PaperL1, window 3, bus 0.25
            (0xc689b6c223b2c03f, 0x5b275b39dc2b4920), // 16p block-16 PaperL1, window 3, bus 1.0
            (0x4f55fe983c10d68c, 0x9b00c2b41c9510f3), // 16p block-16 PaperL1, window 32, bus 0.25
            (0x40a7b4638984bb20, 0x1a1bcb0445c17b3e), // 16p block-16 PaperL1, window 32, bus 1.0
            (0x2ea8976c2f3354ee, 0xfb321d6673751934), // 16p block-16 PaperL1, unbounded, bus 0.25
            (0xd0fdde4fda275e60, 0x598c04c03ebd2765), // 16p block-16 PaperL1, unbounded, bus 1.0
            (0x1aa21e863493f604, 0xc043a4cba4c75db0), // 64p SLI-2 Classifying, window 1, bus 0.25
            (0xd36a020b3cbe9bb5, 0x3a077a9512a9fa50), // 64p SLI-2 Classifying, window 1, bus 1.0
            (0xbabd6ddaa27dcee1, 0x4bd99be3588c7136), // 64p SLI-2 Classifying, window 3, bus 0.25
            (0xc2de3803d5ac76bb, 0x1e5d78819472afe6), // 64p SLI-2 Classifying, window 3, bus 1.0
            (0xfd9d8efd1c121b4a, 0x9daea3aeea11f754), // 64p SLI-2 Classifying, window 32, bus 0.25
            (0x3091d1bacd5ef938, 0x92ab70ea9df82fa4), // 64p SLI-2 Classifying, window 32, bus 1.0
            (0xa26c45600d8e5e1e, 0x65bcb978955d1a2e), // 64p SLI-2 Classifying, unbounded, bus 0.25
            (0x04b28075bedbc67e, 0xe815250fc4fd4e54), // 64p SLI-2 Classifying, unbounded, bus 1.0
            (0x0aa3b4547f124b9d, 0xa3de8dfc9718100a), // DRAM, window 3
        ];
        let mut got = Vec::new();
        for cfg in &machines {
            let mut events = TraceRecorder::new();
            let machine = Machine::new(cfg.clone());
            let report = machine.run_traced(&s, &mut events);
            assert_eq!(machine.run(&s), report, "untraced walk: {}", cfg.summary());
            let report_digest = fnv1a_64(format!("{report:?}").into_bytes());
            let event_digest = fnv1a_64(
                events.events().iter().flat_map(|e| format!("{e:?}").into_bytes()),
            );
            got.push((report_digest, event_digest));
        }
        assert_eq!(got, want, "{got:#018x?}");

        let geometries: Vec<CacheGeometry> = (9..=16)
            .flat_map(|log| [1, 2, 4, 8].map(|ways| CacheGeometry::new(1 << log, ways, 64).unwrap()))
            .collect();
        assert!(geometries.len() >= STACKDIST_MIN_REQUESTS);
        let mut configs = crate::sweep::SweepGrid::new()
            .processors([16])
            .distributions([Distribution::block(16)])
            .caches(geometries.iter().map(|&g| CacheKind::SetAssoc(g)))
            .build();
        for cfg in &mut configs {
            cfg.prefetch_window = Some(4);
            cfg.bus = BusConfig::ratio(0.25);
        }
        let reports = crate::sweep::run_sweep(&s, &configs);
        let digest = fnv1a_64(format!("{reports:?}").into_bytes());
        assert_eq!(digest, 0x061e224b6fc525f5, "walk sweep: {digest:#018x}");
    }

    /// A stream spanning several windows: two runs of small triangles with
    /// one screen-filling triangle, larger than a window, between them.
    /// Every fifth small triangle is a sliver that covers no pixel centre:
    /// routed (its bounding box is not empty) but owning no fragment.
    fn windowed_stream() -> FragmentStream {
        use sortmid_geom::{Triangle, Vertex};
        use sortmid_texture::{TextureDesc, TextureRegistry};
        let mut reg = TextureRegistry::new();
        let tex = reg.register(TextureDesc::new(512, 512).unwrap()).unwrap();
        let small = |k: u32| {
            let (x, y) = ((k * 37 % 240) as f32, (k * 53 % 232) as f32);
            let (u, v) = ((k * 71 % 448) as f32, (k * 29 % 448) as f32);
            if k.is_multiple_of(5) {
                let sliver = |dx: f32, dy: f32| {
                    Vertex::new(x + dx, y + dy, u + 8.0 * dx, v + 8.0 * dy)
                };
                let corners = [sliver(0.3, 0.3), sliver(3.7, 0.7), sliver(0.3, 0.35)];
                return Triangle::new(tex.0, corners);
            }
            Triangle::new(
                tex.0,
                [
                    Vertex::new(x, y, u, v),
                    Vertex::new(x + 14.0, y + 3.0, u + 40.0, v + 8.0),
                    Vertex::new(x + 2.0, y + 20.0, u + 6.0, v + 60.0),
                ],
            )
        };
        let big = Triangle::new(
            tex.0,
            [
                Vertex::new(0.0, 0.0, 0.0, 0.0),
                Vertex::new(256.0, 0.0, 512.0, 0.0),
                Vertex::new(0.0, 256.0, 0.0, 512.0),
            ],
        );
        let mut tris: Vec<Triangle> = (0..400).map(small).collect();
        tris.push(big);
        tris.extend((400..800).map(small));
        sortmid_raster::rasterize(&tris, &reg, Rect::of_size(256, 256))
    }

    #[test]
    fn window_boundaries_are_invisible() {
        use crate::reference::run_reference;
        use sortmid_cache::CacheGeometry;
        use sortmid_memsys::{BusConfig, DramConfig};
        use sortmid_observe::{SpatialCollector, TraceRecorder};
        let s = windowed_stream();
        let windows: Vec<_> = windows(&s).collect();
        assert!(windows.len() >= 3, "{} windows", windows.len());
        let frags = |w: &Range<usize>| -> usize {
            s.triangles()[w.clone()].iter().map(|t| t.fragment_count() as usize).sum()
        };
        assert!(
            windows.iter().any(|w| w.len() == 1 && frags(w) > WINDOW_FRAGMENTS),
            "one triangle is larger than a window"
        );
        assert!(windows.iter().all(|w| w.len() == 1 || frags(w) <= WINDOW_FRAGMENTS));
        let empty = |t: &&sortmid_raster::TriangleRecord| !t.is_culled() && t.fragment_count() == 0;
        let slivers = s.triangles().iter().filter(empty).count();
        assert!(slivers >= 100, "{slivers} slivers route without fragments");

        let g = CacheGeometry::new(4096, 2, 64).unwrap();
        let mut dram = config(5, Distribution::sli(3), CacheKind::PaperL1);
        dram.dram = Some(DramConfig::sdram_like(BusConfig::ratio(1.0)));
        dram.triangle_buffer = 4;
        let mut tiny_fifo = config(16, Distribution::block(8), CacheKind::Classifying(g));
        tiny_fifo.triangle_buffer = 1;
        for cfg in [
            config(1, Distribution::block(16), CacheKind::Perfect),
            config(7, Distribution::block(32), CacheKind::Victim(g, 4)),
            tiny_fifo,
            dram,
        ] {
            let machine = Machine::new(cfg.clone());
            let (mut events, mut oracle_events) = (TraceRecorder::new(), TraceRecorder::new());
            let report = machine.run_traced(&s, &mut events);
            assert_eq!(report, run_reference(&cfg, &s, &mut oracle_events), "{}", cfg.summary());
            assert_eq!(events.events(), oracle_events.events(), "{}", cfg.summary());

            let spatial = || SpatialCollector::new(256, 256, 16, cfg.processors);
            let (mut samples, mut oracle_samples) = (spatial(), spatial());
            assert_eq!(machine.run_traced(&s, &mut samples), report);
            run_reference(&cfg, &s, &mut oracle_samples);
            assert_eq!(samples.grid().cells(), oracle_samples.grid().cells());
            assert_eq!(samples.node_misses(), oracle_samples.node_misses());
            assert_eq!(samples.node_setup(), oracle_samples.node_setup());
        }
    }

    #[test]
    fn frame_group_reports_equal_the_reference() {
        // One plan's mixed frame group through the sweep: every cache
        // family, bus ∞/1/2, buffers 1/8/10 000 and a DRAM machine, over a
        // stream of several windows. The group routes and probes each
        // window once, and every config's report equals the oracle's.
        use crate::reference::run_reference;
        use crate::sweep::{run_sweep_profiled, SweepGrid, SweepOptions};
        use sortmid_cache::CacheGeometry;
        use sortmid_devharness::Json;
        use sortmid_memsys::{BusConfig, DramConfig};
        use sortmid_observe::HostProfiler;
        let s = windowed_stream();
        let n_windows = windows(&s).count();
        assert!(n_windows >= 3, "{n_windows} windows");

        let (g, l2) = (CacheGeometry::new(4096, 2, 64).unwrap(), CacheGeometry::paper_l2());
        let dist = Distribution::block(8);
        let mut configs = SweepGrid::new()
            .processors([6])
            .distributions([dist.clone()])
            .caches([
                CacheKind::Perfect,
                CacheKind::PaperL1,
                CacheKind::Classifying(g),
                CacheKind::TwoLevel(g, l2),
                CacheKind::Victim(g, 4),
            ])
            .bus_ratios([None, Some(1.0), Some(2.0)])
            .buffers([1, 8, 10_000])
            .build();
        let mut dram = config(6, dist, CacheKind::PaperL1);
        dram.dram = Some(DramConfig::sdram_like(BusConfig::ratio(1.0)));
        configs.push(dram);
        assert_eq!(configs.len(), 46);

        let profiler = HostProfiler::new();
        let swept = run_sweep_profiled(&s, &configs, SweepOptions { threads: 2 }, &profiler);
        for (cfg, report) in configs.iter().zip(&swept) {
            assert_eq!(report, &run_reference(cfg, &s, &mut NullSink), "{}", cfg.summary());
        }
        let profile = profiler.finish();
        let spans = |name: &str| profile.spans.iter().filter(|span| span.name == name).count();
        assert_eq!(spans("plan-build"), n_windows, "one route per window for the group");
        assert_eq!(spans("capture"), n_windows, "one cache pass per window for the group");
        let counters = profile.metrics.get("counters").expect("counters object");
        let count = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
        assert_eq!(count("sweep.path.replay"), 0);
        assert_eq!(count("sweep.path.captured"), configs.len() as u64);
    }

    #[test]
    fn frame_group_sharing_reports_are_pinned() {
        // FNV-1a digest of the Debug text of one design-sweep-shaped plan
        // over the multi-window stream: {perfect, 16 KB} × bus {1, 2, ∞}
        // × buffers {100, 500, 10 000}, plus a perfect machine with a DRAM
        // model and one with a one-fragment prefetch window. Recorded with
        // one timing walk per config, before perfect configs that differ
        // only in bus, DRAM or window shared one walk.
        use crate::sweep::{run_sweep, SweepGrid};
        use sortmid_memsys::{BusConfig, DramConfig};
        use sortmid_observe::provenance::fnv1a_64;
        let s = windowed_stream();
        let dist = Distribution::block(16);
        let mut configs = SweepGrid::new()
            .processors([16])
            .distributions([dist.clone()])
            .caches([CacheKind::Perfect, CacheKind::PaperL1])
            .bus_ratios([Some(1.0), Some(2.0), None])
            .buffers([100, 500, 10_000])
            .build();
        let mut dram = config(16, dist.clone(), CacheKind::Perfect);
        dram.dram = Some(DramConfig::sdram_like(BusConfig::ratio(1.0)));
        let mut narrow = config(16, dist, CacheKind::Perfect);
        narrow.prefetch_window = Some(1);
        configs.extend([dram, narrow]);
        assert_eq!(configs.len(), 20);
        let reports = run_sweep(&s, &configs);
        let digest = fnv1a_64(format!("{reports:?}").into_bytes());
        assert_eq!(digest, 0xecc78b6223afe46f, "sharing plan: {digest:#018x}");
    }

    #[test]
    fn walk_group_reports_are_pinned() {
        // FNV-1a digest of the Debug text of one sweep over the
        // multi-window stream: two plan groups (6p block-8, 5p SLI-3), each
        // pricing 32 set-associative geometries with the Mattson walk next
        // to the paper L1, two classifying configs sharing walk geometries,
        // a perfect, a victim and a DRAM-backed machine, at buffers 1 and
        // 100 and prefetch windows 3 and unbounded. Recorded while walk
        // plans still built a whole-frame line trace.
        use crate::sweep::{run_sweep, SweepGrid};
        use sortmid_cache::CacheGeometry;
        use sortmid_memsys::{BusConfig, DramConfig};
        use sortmid_observe::provenance::fnv1a_64;
        let s = windowed_stream();
        assert!(windows(&s).count() >= 3);
        let ladder: Vec<CacheGeometry> = (9..=16)
            .flat_map(|log| [1, 2, 4, 8].map(|ways| CacheGeometry::new(1 << log, ways, 64).unwrap()))
            .collect();
        let g = CacheGeometry::new(4096, 2, 64).unwrap();
        let mut caches = vec![CacheKind::Perfect, CacheKind::PaperL1];
        caches.extend(ladder.iter().map(|&g| CacheKind::SetAssoc(g)));
        caches.extend([
            CacheKind::Classifying(g),
            CacheKind::Classifying(CacheGeometry::paper_l1()),
            CacheKind::Victim(g, 4),
        ]);
        let mut configs = Vec::new();
        for (procs, dist) in [(6, Distribution::block(8)), (5, Distribution::sli(3))] {
            let mut plan = SweepGrid::new()
                .processors([procs])
                .distributions([dist.clone()])
                .caches(caches.clone())
                .buffers([1, 100])
                .build();
            let mut dram = config(procs, dist, CacheKind::PaperL1);
            dram.dram = Some(DramConfig::sdram_like(BusConfig::ratio(1.0)));
            plan.push(dram);
            for window in [Some(3), None] {
                configs.extend(plan.iter().cloned().map(|mut c| {
                    c.prefetch_window = window;
                    c
                }));
            }
        }
        assert_eq!(configs.len(), 2 * 2 * (37 * 2 + 1));
        let reports = run_sweep(&s, &configs);
        let digest = fnv1a_64(format!("{reports:?}").into_bytes());
        assert_eq!(digest, 0xfca9e68be2ff63ea, "walk groups: {digest:#018x}");
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
