//! Trace capture and report synthesis for one-pass multi-config sweeps.
//!
//! Which texture lines a node touches depends only on the fragment stream
//! and the [`RoutingPlan`] — never on the cache, bus or buffer parameters.
//! This module exploits that split: [`capture_line_trace`] records each
//! node's access sequence once per plan, the
//! [stack-distance evaluator](sortmid_cache::stackdist) prices every
//! set-associative geometry of the sweep grid from that one trace, and
//! [`run_replayed`] re-derives a [`RunReport`] for each config by driving
//! the exact engine/FIFO timing model with the replayed per-fragment miss
//! counts. The synthesized reports are byte-identical to
//! [`Machine::run`](crate::machine::Machine::run) — property tests and the
//! sweep's own internal grouping enforce it.

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

/// Synthesizes the [`RunReport`] of `config` from a plan evaluation,
/// byte-identical to [`Machine::run`](crate::machine::Machine::run):
/// the routing walk, FIFO backpressure, engine scan/stall/setup-floor
/// timing and bus occupancy are simulated exactly as in the direct path,
/// but every texel probe is replaced by the precomputed per-fragment miss
/// count of the config's geometry.
///
/// `geom` indexes the config's geometry in `eval`'s request grid;
/// `classify` selects whether the report carries the three-C breakdown
/// (a [`CacheKind::Classifying`] config does, a plain set-associative one
/// does not, even when both share a geometry slot).
pub(crate) fn run_replayed(
    config: &MachineConfig,
    stream: &FragmentStream,
    plan: &RoutingPlan,
    eval: &TraceEvaluation,
    geom: usize,
    classify: bool,
) -> RunReport {
    assert!(
        plan.matches(&config.distribution, config.processors),
        "plan built for {}x{} does not fit machine {}x{}",
        plan.distribution(),
        plan.procs(),
        config.distribution,
        config.processors,
    );
    let procs = config.processors as usize;
    let triangles = stream.triangles();

    let mut engines: Vec<EngineTiming> = (0..procs)
        .map(|_| EngineTiming::new(config.bus, config.prefetch_window))
        .collect();
    let mut fifos: Vec<TriangleFifo> = (0..procs)
        .map(|_| TriangleFifo::new(config.triangle_buffer))
        .collect();
    let mut pixels = vec![0u64; procs];
    let mut routed_tris = vec![0u64; procs];
    let mut discarded = vec![0u64; procs];
    // Per-node cursor into the replayed per-fragment miss counts; the walk
    // below visits fragments in exactly the order the trace recorded them.
    let mut cursor = vec![0usize; procs];
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
                // Run-length walk over the replayed miss counts: all-hit
                // stretches advance the engine in bulk.
                let frag_misses = eval.fragment_misses(i, geom);
                let end = cursor[i] + count;
                let mut j = cursor[i];
                while j < end {
                    let misses = frag_misses[j];
                    if misses == 0 {
                        let run = j;
                        while j < end && frag_misses[j] == 0 {
                            j += 1;
                        }
                        engines[i].fragments_clean((j - run) as u64);
                    } else {
                        engines[i].fragment(misses as u32);
                        j += 1;
                    }
                }
                cursor[i] = end;
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
            let stats = eval.stats(i, geom);
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
                cache: stats,
                miss_breakdown: if classify { eval.breakdown(i, geom) } else { None },
                external_fetches: stats.misses(),
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
/// statistics; [`run_direct_captured`] then re-derives a full
/// [`RunReport`] per config by driving only the engine/FIFO timing model
/// against the recording — clean fragment runs advance in bulk via
/// [`EngineTiming::fragments_clean`].
#[derive(Debug, Clone)]
pub(crate) struct DirectCapture {
    /// Per node: `(fragment index in lane order, miss count)` for every
    /// fragment with at least one miss, ascending by index.
    miss_frags: Vec<Vec<(u32, u32)>>,
    /// Per node: the miss line addresses, concatenated in access order
    /// (DRAM-backed machines price fills by address, not count).
    miss_lines: Vec<Vec<u32>>,
    stats: Vec<CacheStats>,
    breakdown: Vec<Option<MissBreakdown>>,
    external_fetches: Vec<u64>,
}

/// Runs `kind`'s cache model over `plan`'s per-node access sequences once,
/// recording the sparse miss structure [`run_direct_captured`] replays.
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
    DirectCapture {
        miss_frags: frags,
        miss_lines: lines,
        stats: caches.iter().map(|c| *c.stats()).collect(),
        breakdown: caches.iter().map(|c| c.breakdown()).collect(),
        external_fetches: caches.iter().map(|c| c.external_fetches()).collect(),
    }
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

/// Synthesizes the [`RunReport`] of `config` from a [`DirectCapture`] of
/// its cache model on its plan, byte-identical to
/// [`Machine::run`](crate::machine::Machine::run): the
/// routing walk, FIFO backpressure and engine timing run exactly as in the
/// direct path, but the texel probes are replaced by the recorded miss
/// lines (all-hit stretches advance in bulk).
pub(crate) fn run_direct_captured(
    config: &MachineConfig,
    stream: &FragmentStream,
    plan: &RoutingPlan,
    capture: &DirectCapture,
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
        capture.stats.len(),
        config.processors as usize,
        "capture and machine disagree on node count"
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
    // Per-node cursors: the next fragment index in lane order, the next
    // entry of the sparse miss-fragment list, and the next miss line.
    let mut cursor = vec![0usize; procs];
    let mut frag_cursor = vec![0usize; procs];
    let mut line_cursor = vec![0usize; procs];
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
                    0
                };
                let start = engines[i].start_triangle(send);
                fifos[i].record_start(start);
                routed_tris[i] += 1;
                pixels[i] += count as u64;
                let end = cursor[i] + count;
                let miss_frags = &capture.miss_frags[i];
                let miss_lines = &capture.miss_lines[i];
                let mut prev = cursor[i];
                while frag_cursor[i] < miss_frags.len()
                    && (miss_frags[frag_cursor[i]].0 as usize) < end
                {
                    let (fi, misses) = miss_frags[frag_cursor[i]];
                    let (fi, misses) = (fi as usize, misses as usize);
                    if fi > prev {
                        engines[i].fragments_clean((fi - prev) as u64);
                    }
                    engines[i].fragment_lines(&miss_lines[line_cursor[i]..line_cursor[i] + misses]);
                    line_cursor[i] += misses;
                    frag_cursor[i] += 1;
                    prev = fi + 1;
                }
                if end > prev {
                    engines[i].fragments_clean((end - prev) as u64);
                }
                cursor[i] = end;
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
        .map(|i| NodeReport {
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
            cache: capture.stats[i],
            miss_breakdown: capture.breakdown[i],
            external_fetches: capture.external_fetches[i],
        })
        .collect();
    RunReport::from_nodes(config.summary(), node_reports, stream, plan.routed())
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
            let replayed = run_replayed(&cfg, &s, &plan, &eval, 0, classify);
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
