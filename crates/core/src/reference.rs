//! The reference oracle: the machine simulated the slow, obvious way.
//!
//! [`run_reference`] replays a stream with the same broadcast, FIFO and
//! engine timing as [`Machine::run_traced`](crate::Machine::run_traced),
//! but it routes every fragment through [`Distribution::owner`]'s div/rem
//! chain and probes the cache one texel at a time. The production engine
//! uses an [`OwnerLut`](crate::OwnerLut) and the batched lane probe
//! instead. No production path calls this module; the equivalence property
//! tests pin the engine's reports, spatial samples and event streams to it.
//!
//! [`Distribution::owner`]: crate::Distribution::owner

use crate::config::MachineConfig;
use crate::machine::setup_anchor;
use crate::node::Node;
use crate::report::RunReport;
use sortmid_cache::LineCache;
use sortmid_memsys::{Cycle, EngineTiming};
use sortmid_observe::{MissClassCounts, TraceEvent, TraceSink};
use sortmid_raster::{Fragment, FragmentStream};
use sortmid_texture::TEXELS_PER_FRAGMENT;

/// Simulates `stream` under `config` on the per-texel reference path. The
/// report, and everything `sink` observes, must equal
/// [`Machine::run_traced`](crate::Machine::run_traced)'s.
#[doc(hidden)]
pub fn run_reference<S: TraceSink>(
    config: &MachineConfig,
    stream: &FragmentStream,
    sink: &mut S,
) -> RunReport {
    let procs = config.processors;
    let dist = &config.distribution;
    let mut nodes: Vec<Node> = (0..procs).map(|_| Node::new(config)).collect();
    let mut owned: Vec<Vec<&Fragment>> = vec![Vec::new(); procs as usize];
    let mut send_time: Cycle = 0;
    let mut routed: u64 = 0;

    for (ti, tri) in stream.triangles().iter().enumerate() {
        if tri.is_culled() {
            continue;
        }
        let mask = dist.overlap_mask(&tri.bbox, procs);
        routed += mask.count_ones() as u64;
        for frag in stream.fragments_of(tri) {
            owned[dist.owner(frag.x as i32, frag.y as i32, procs) as usize].push(frag);
        }

        let mut send = send_time + config.geometry_cycles_per_triangle;
        for node in &nodes {
            send = send.max(node.earliest_send());
        }
        send_time = send;

        for (i, (node, frags)) in nodes.iter_mut().zip(&mut owned).enumerate() {
            let id = i as u32;
            if S::ENABLED {
                sink.record(TraceEvent::FifoPush { node: id, at: send });
            }
            if (mask >> i) & 1 != 0 {
                let anchor = setup_anchor(&tri.bbox);
                node.process_triangle_with(
                    send,
                    frags.len(),
                    id,
                    ti as u32,
                    anchor,
                    sink,
                    |cache, engine, sink| scan_fragments(cache, engine, frags, id, sink),
                );
                frags.clear();
            } else {
                node.discard_triangle_traced(send, id, ti as u32, sink);
            }
        }
    }
    RunReport::from_nodes(
        config.summary(),
        nodes.iter().map(Node::report).collect(),
        stream,
        routed,
    )
}

/// The per-texel probe loop: every texel of every fragment goes through
/// [`LineCache::access_line_classified`] on its own, and the misses feed
/// the engine's bus in access order.
fn scan_fragments<C, S>(
    cache: &mut C,
    engine: &mut EngineTiming,
    frags: &[&Fragment],
    node_id: u32,
    sink: &mut S,
) where
    C: LineCache + ?Sized,
    S: TraceSink,
{
    for frag in frags {
        let mut miss_lines = [0u32; TEXELS_PER_FRAGMENT];
        let mut misses = 0usize;
        let mut classes = MissClassCounts::default();
        for texel in &frag.texels {
            let line = texel.line();
            let (hit, class) = cache.access_line_classified(line);
            if !hit {
                miss_lines[misses] = line;
                misses += 1;
                if let Some(class) = class {
                    classes.add(class);
                }
            }
        }
        engine.fragment_lines_sink(&miss_lines[..misses], node_id, sink);
        if S::ENABLED {
            sink.record_fragment(node_id, frag.x, frag.y, misses as u32, classes);
        }
    }
}
