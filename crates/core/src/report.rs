//! Run results: machine time, per-node counters and derived metrics.

use sortmid_cache::stats::MissBreakdown;
use sortmid_cache::{AnyCache, CacheStats, LineCache};
use sortmid_memsys::{Cycle, EngineTiming};
use sortmid_observe::CycleBreakdown;
use sortmid_raster::FragmentStream;
use sortmid_util::stats::imbalance_percent;
use std::fmt;

/// Counters of one node after a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeReport {
    /// Fragments this node drew.
    pub pixels: u64,
    /// Triangles routed to this node (each paid the setup floor).
    pub triangles: u64,
    /// Broadcast triangles this node's clipper discarded (they occupied a
    /// FIFO slot but cost no engine time).
    pub discarded: u64,
    /// Cycle the node's last pixel fully completed.
    pub finish: Cycle,
    /// Cycles the engine spent scanning or in the setup floor.
    pub busy_cycles: u64,
    /// Cycles the engine stalled on the saturated bus.
    pub stall_cycles: u64,
    /// Cycles padding the per-triangle setup floor (a subset of
    /// [`busy_cycles`](Self::busy_cycles)).
    pub setup_floor_cycles: u64,
    /// Cycles the engine starved on an empty FIFO waiting for the geometry
    /// stage (Figure 8's local load imbalance).
    pub starved_cycles: u64,
    /// Cycles after the engine's last scan while line fills drained (the
    /// fill tail).
    pub idle_cycles: u64,
    /// Cycles this node's texture bus spent transferring lines.
    pub bus_busy_cycles: u64,
    /// L1 access statistics.
    pub cache: CacheStats,
    /// Per-kind miss decomposition (only with
    /// [`CacheKind::Classifying`](crate::CacheKind::Classifying)).
    pub miss_breakdown: Option<MissBreakdown>,
    /// Lines fetched from external texture memory.
    pub external_fetches: u64,
}

/// A node cache's counters as a report carries them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CacheCounters {
    pub(crate) stats: CacheStats,
    pub(crate) breakdown: Option<MissBreakdown>,
    pub(crate) external_fetches: u64,
}

impl CacheCounters {
    /// `cache`'s counters now.
    pub(crate) fn of(cache: &AnyCache) -> Self {
        CacheCounters {
            stats: *cache.stats(),
            breakdown: cache.breakdown(),
            external_fetches: cache.external_fetches(),
        }
    }

    /// The per-frame view of a warm cache: statistics and external
    /// fetches since `earlier`; the three-C breakdown stays cumulative.
    pub(crate) fn since(self, earlier: &CacheCounters) -> Self {
        CacheCounters {
            stats: self.stats.delta_since(&earlier.stats),
            external_fetches: self.external_fetches - earlier.external_fetches,
            ..self
        }
    }
}

impl NodeReport {
    /// Assembles a node's row from its engine, its work counters and its
    /// cache's counters.
    pub(crate) fn new(
        engine: &EngineTiming,
        pixels: u64,
        triangles: u64,
        discarded: u64,
        cache: CacheCounters,
    ) -> Self {
        NodeReport {
            pixels,
            triangles,
            discarded,
            finish: engine.finish_time(),
            busy_cycles: engine.busy_cycles(),
            stall_cycles: engine.stall_cycles(),
            setup_floor_cycles: engine.setup_floor_cycles(),
            starved_cycles: engine.starved_cycles(),
            idle_cycles: engine.fill_tail_cycles(),
            bus_busy_cycles: engine.bus_busy_cycles(),
            cache: cache.stats,
            miss_breakdown: cache.breakdown,
            external_fetches: cache.external_fetches,
        }
    }

    /// Attributes every cycle up to [`finish`](Self::finish) to one of the
    /// five categories. The identity `breakdown.total() == finish` holds
    /// exactly (see [`CycleBreakdown::verify`]); `busy` here excludes the
    /// setup-floor padding that [`busy_cycles`](Self::busy_cycles)
    /// includes.
    pub fn cycle_breakdown(&self) -> CycleBreakdown {
        CycleBreakdown {
            setup: self.setup_floor_cycles,
            busy: self.busy_cycles - self.setup_floor_cycles,
            bus_stall: self.stall_cycles,
            starved: self.starved_cycles,
            idle: self.idle_cycles,
        }
    }

    /// Checks the three-C exact-sum identity `compulsory + capacity +
    /// conflict == misses` against this node's cache counters — the miss
    /// analogue of the cycle identity above. Nodes without a classifying
    /// cache carry no breakdown and trivially pass.
    ///
    /// # Errors
    ///
    /// Returns the mismatching totals when the identity does not hold.
    pub fn verify_misses(&self) -> Result<(), sortmid_cache::MissIdentityError> {
        match &self.miss_breakdown {
            Some(b) => b.verify(self.cache.misses()),
            None => Ok(()),
        }
    }
}

/// The result of one machine run.
///
/// # Examples
///
/// ```
/// use sortmid::{Machine, MachineConfig};
/// use sortmid_scene::{Benchmark, SceneBuilder};
///
/// let scene = SceneBuilder::benchmark(Benchmark::Quake).scale(0.1).build();
/// let stream = scene.rasterize();
/// let report = Machine::new(MachineConfig::uniprocessor()).run(&stream);
/// assert_eq!(report.fragments(), stream.fragment_count());
/// assert!(report.total_cycles() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    summary: String,
    total_cycles: Cycle,
    nodes: Vec<NodeReport>,
    fragments: u64,
    triangles: u64,
    triangles_routed: u64,
}

impl RunReport {
    pub(crate) fn new(
        summary: String,
        total_cycles: Cycle,
        nodes: Vec<NodeReport>,
        fragments: u64,
        triangles: u64,
        triangles_routed: u64,
    ) -> Self {
        RunReport {
            summary,
            total_cycles,
            nodes,
            fragments,
            triangles,
            triangles_routed,
        }
    }

    /// Assembles the report of one simulated frame of `stream`: machine
    /// time is the latest node finish.
    pub(crate) fn from_nodes(
        summary: String,
        nodes: Vec<NodeReport>,
        stream: &FragmentStream,
        triangles_routed: u64,
    ) -> Self {
        let total_cycles = nodes.iter().map(|n| n.finish).max().unwrap_or(0);
        Self::new(
            summary,
            total_cycles,
            nodes,
            stream.fragment_count(),
            stream.triangle_count() as u64,
            triangles_routed,
        )
    }

    /// The configuration summary this report belongs to.
    pub fn summary(&self) -> &str {
        &self.summary
    }

    /// Machine time: the cycle the slowest node finished.
    pub fn total_cycles(&self) -> Cycle {
        self.total_cycles
    }

    /// Per-node counters.
    pub fn nodes(&self) -> &[NodeReport] {
        &self.nodes
    }

    /// Total fragments drawn.
    pub fn fragments(&self) -> u64 {
        self.fragments
    }

    /// Triangles in the stream (including culled).
    pub fn triangles(&self) -> u64 {
        self.triangles
    }

    /// Sum over triangles of the number of nodes each was routed to — the
    /// primitive-overlap factor of Molnar's analysis.
    pub fn triangles_routed(&self) -> u64 {
        self.triangles_routed
    }

    /// Mean number of nodes a (non-culled) triangle was routed to.
    pub fn overlap_factor(&self) -> f64 {
        if self.triangles == 0 {
            0.0
        } else {
            self.triangles_routed as f64 / self.triangles as f64
        }
    }

    /// Speedup against a (typically single-processor) baseline run.
    ///
    /// # Panics
    ///
    /// Panics if this run took zero cycles.
    pub fn speedup_vs(&self, baseline: &RunReport) -> f64 {
        assert!(self.total_cycles > 0, "run took zero cycles");
        baseline.total_cycles as f64 / self.total_cycles as f64
    }

    /// The paper's Figure 5 metric over *pixel work*: percent by which the
    /// busiest node exceeds the average.
    pub fn pixel_imbalance_percent(&self) -> f64 {
        let work: Vec<f64> = self.nodes.iter().map(|n| n.pixels as f64).collect();
        imbalance_percent(&work)
    }

    /// Imbalance over full engine-busy cycles (includes setup floors).
    pub fn busy_imbalance_percent(&self) -> f64 {
        let work: Vec<f64> = self.nodes.iter().map(|n| n.busy_cycles as f64).collect();
        imbalance_percent(&work)
    }

    /// The paper's Figure 6 metric: texels fetched from external memory per
    /// fragment drawn (16 texels per fetched line).
    pub fn texel_to_fragment(&self) -> f64 {
        if self.fragments == 0 {
            return 0.0;
        }
        let texels: u64 = self.nodes.iter().map(|n| n.external_fetches * 16).sum();
        texels as f64 / self.fragments as f64
    }

    /// Aggregate L1 statistics over all nodes.
    pub fn cache_totals(&self) -> CacheStats {
        let mut total = CacheStats::new();
        for n in &self.nodes {
            total.merge(&n.cache);
        }
        total
    }

    /// Total engine stall cycles across nodes (bus saturation indicator).
    pub fn total_stalls(&self) -> u64 {
        self.nodes.iter().map(|n| n.stall_cycles).sum()
    }

    /// Total FIFO-starvation cycles across nodes (Figure 8's local load
    /// imbalance indicator: shrinks as the triangle buffer grows).
    pub fn total_starved(&self) -> u64 {
        self.nodes.iter().map(|n| n.starved_cycles).sum()
    }

    /// Sum of all nodes' [`cycle_breakdown`](NodeReport::cycle_breakdown)s.
    /// Its total equals the sum of per-node finish times, *not*
    /// `nodes * total_cycles` — nodes finish at different cycles.
    pub fn aggregate_breakdown(&self) -> CycleBreakdown {
        let mut total = CycleBreakdown::default();
        for n in &self.nodes {
            total += n.cycle_breakdown();
        }
        total
    }

    /// Aggregate miss decomposition over nodes, when every node tracked it.
    pub fn miss_breakdown(&self) -> Option<MissBreakdown> {
        let mut total = MissBreakdown::default();
        for n in &self.nodes {
            let b = n.miss_breakdown?;
            total.compulsory += b.compulsory;
            total.capacity += b.capacity;
            total.conflict += b.conflict;
        }
        if self.nodes.is_empty() {
            None
        } else {
            Some(total)
        }
    }

    /// Mean texture-bus utilisation across nodes: bus-busy cycles divided
    /// by machine time. Near 1.0 on a node means the memory system, not
    /// the engine, bounds it (the paper's bandwidth saturation).
    pub fn bus_utilization(&self) -> f64 {
        if self.total_cycles == 0 || self.nodes.is_empty() {
            return 0.0;
        }
        let busy: u64 = self.nodes.iter().map(|n| n.bus_busy_cycles).sum();
        busy as f64 / (self.total_cycles as f64 * self.nodes.len() as f64)
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} cycles, {} fragments, t/f {:.2}, imbalance {:.1}%",
            self.summary,
            self.total_cycles,
            self.fragments,
            self.texel_to_fragment(),
            self.pixel_imbalance_percent()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(pixels: u64, fetches: u64) -> NodeReport {
        NodeReport {
            pixels,
            triangles: 1,
            discarded: 0,
            finish: pixels,
            busy_cycles: pixels,
            stall_cycles: 0,
            setup_floor_cycles: 0,
            starved_cycles: 0,
            idle_cycles: 0,
            bus_busy_cycles: fetches * 16,
            cache: CacheStats::new(),
            miss_breakdown: None,
            external_fetches: fetches,
        }
    }

    fn report(nodes: Vec<NodeReport>, cycles: u64) -> RunReport {
        let fragments = nodes.iter().map(|n| n.pixels).sum();
        RunReport::new("test".into(), cycles, nodes, fragments, 10, 15)
    }

    #[test]
    fn speedup_and_imbalance() {
        let base = report(vec![node(1000, 0)], 1000);
        let par = report(vec![node(300, 0), node(200, 0), node(250, 0), node(250, 0)], 300);
        assert!((par.speedup_vs(&base) - 1000.0 / 300.0).abs() < 1e-9);
        // busiest 300 vs mean 250 -> 20 %
        assert!((par.pixel_imbalance_percent() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn texel_to_fragment_accounts_lines() {
        let r = report(vec![node(100, 10), node(100, 0)], 100);
        // 10 lines * 16 texels / 200 fragments = 0.8
        assert!((r.texel_to_fragment() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn overlap_factor() {
        let r = report(vec![node(10, 0)], 10);
        assert!((r.overlap_factor() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn bus_utilization_averages_over_nodes() {
        // Two nodes over 100 cycles: one fetched 5 lines (80 busy cycles),
        // the other none -> mean utilisation 0.4.
        let r = report(vec![node(100, 5), node(100, 0)], 100);
        assert!((r.bus_utilization() - 0.4).abs() < 1e-9);
        let idle = RunReport::new("idle".into(), 0, vec![], 0, 0, 0);
        assert_eq!(idle.bus_utilization(), 0.0);
    }

    #[test]
    fn empty_run_has_zero_ratios() {
        let r = RunReport::new("empty".into(), 1, vec![], 0, 0, 0);
        assert_eq!(r.texel_to_fragment(), 0.0);
        assert_eq!(r.overlap_factor(), 0.0);
        assert_eq!(r.pixel_imbalance_percent(), 0.0);
    }

    #[test]
    fn breakdown_identity_and_aggregate() {
        let mut n = node(100, 0);
        n.setup_floor_cycles = 30;
        n.busy_cycles = 80;
        n.stall_cycles = 5;
        n.starved_cycles = 10;
        n.idle_cycles = 5;
        n.finish = 100;
        let b = n.cycle_breakdown();
        assert_eq!(b.setup, 30);
        assert_eq!(b.busy, 50, "busy excludes the setup floor");
        assert!(b.verify(n.finish).is_ok());
        let r = report(vec![n.clone(), n], 100);
        assert_eq!(r.aggregate_breakdown().total(), 200);
        assert_eq!(r.total_starved(), 20);
    }

    #[test]
    fn display_is_informative() {
        let r = report(vec![node(10, 1)], 42);
        let s = r.to_string();
        assert!(s.contains("42 cycles"));
        assert!(s.contains("t/f"));
    }
}
