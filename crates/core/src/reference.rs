//! The reference oracle: the machine simulated the slow, obvious way.
//!
//! [`run_reference`] replays a stream with the same broadcast, FIFO and
//! engine timing as [`Machine::run_traced`](crate::Machine::run_traced),
//! but as one triangle at a time over self-contained nodes: it routes
//! every fragment through [`Distribution::owner`]'s div/rem chain and
//! probes the cache one texel at a time. The production engine routes
//! windows through an [`OwnerLut`](crate::OwnerLut), runs the batched lane
//! probe ahead of a separate timing walk, and shares none of this framing.
//! No production path calls this module; the equivalence property tests
//! pin the engine's reports, spatial samples and event streams to it.
//!
//! [`Distribution::owner`]: crate::Distribution::owner

use crate::config::MachineConfig;
use crate::replay::setup_anchor;
use crate::report::{CacheCounters, NodeReport, RunReport};
use sortmid_cache::{AnyCache, LineCache};
use sortmid_memsys::{Cycle, EngineTiming, TriangleFifo};
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
            send = send.max(node.fifo.earliest_send());
        }
        send_time = send;

        for (i, (node, frags)) in nodes.iter_mut().zip(&mut owned).enumerate() {
            let id = i as u32;
            if S::ENABLED {
                sink.record(TraceEvent::FifoPush { node: id, at: send });
            }
            if (mask >> i) & 1 != 0 {
                node.draw(send, frags, id, ti as u32, setup_anchor(&tri.bbox), sink);
                frags.clear();
            } else {
                node.discard(send, id, ti as u32, sink);
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

/// One node: engine timing, private cache, triangle FIFO and counters.
struct Node {
    engine: EngineTiming,
    cache: AnyCache,
    fifo: TriangleFifo,
    setup_cycles: Cycle,
    pixels: u64,
    triangles: u64,
    discarded: u64,
}

impl Node {
    fn new(config: &MachineConfig) -> Self {
        let engine = match config.dram {
            Some(dram) => EngineTiming::with_dram(config.bus, config.prefetch_window, dram),
            None => EngineTiming::new(config.bus, config.prefetch_window),
        };
        Node {
            engine,
            cache: config.cache.build_model(),
            fifo: TriangleFifo::new(config.triangle_buffer),
            setup_cycles: config.setup_cycles,
            pixels: 0,
            triangles: 0,
            discarded: 0,
        }
    }

    /// Processes one routed triangle: `frags` are the fragments this node
    /// owns, in stream order (possibly none — the setup floor still
    /// applies).
    fn draw<S: TraceSink>(
        &mut self,
        arrival: Cycle,
        frags: &[&Fragment],
        node: u32,
        tri: u32,
        anchor: (u16, u16),
        sink: &mut S,
    ) {
        let start = self.engine.start_triangle(arrival);
        self.fifo.record_start(start);
        self.triangles += 1;
        self.pixels += frags.len() as u64;
        if S::ENABLED {
            sink.record(TraceEvent::FifoPop { node, at: start });
            sink.record(TraceEvent::TriStart { node, tri, at: start, frags: frags.len() as u32 });
        }
        scan_fragments(&mut self.cache, &mut self.engine, frags, node, sink);
        let free = self.engine.finish_triangle(self.setup_cycles);
        if S::ENABLED {
            sink.record_setup(node, anchor.0, anchor.1, self.engine.last_setup_padding());
            sink.record(TraceEvent::TriRetire { node, tri, at: free });
        }
    }

    /// Accepts a broadcast triangle the node's clipper discards: it costs
    /// no engine time but held a FIFO slot until the engine reached it.
    fn discard<S: TraceSink>(&mut self, arrival: Cycle, node: u32, tri: u32, sink: &mut S) {
        let start = self.engine.engine_free().max(arrival);
        self.fifo.record_start(start);
        self.discarded += 1;
        if S::ENABLED {
            sink.record(TraceEvent::FifoPop { node, at: start });
            sink.record(TraceEvent::TriDiscard { node, tri, at: start });
        }
    }

    fn report(&self) -> NodeReport {
        let cache = CacheCounters::of(&self.cache);
        NodeReport::new(&self.engine, self.pixels, self.triangles, self.discarded, cache)
    }
}

/// The per-texel probe loop: every texel of every fragment goes through
/// [`LineCache::access_line_classified`] on its own, and the misses feed
/// the engine's bus in access order.
fn scan_fragments<S: TraceSink>(
    cache: &mut AnyCache,
    engine: &mut EngineTiming,
    frags: &[&Fragment],
    node: u32,
    sink: &mut S,
) {
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
        engine.fragment_lines_sink(&miss_lines[..misses], node, sink);
        if S::ENABLED {
            sink.record_fragment(node, frag.x, frag.y, misses as u32, classes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheKind;
    use crate::distribution::Distribution;
    use sortmid_observe::NullSink;
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
        let frags: Vec<&Fragment> = frags.iter().collect();
        node.draw(0, &frags, 0, 0, (0, 0), &mut NullSink);
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
