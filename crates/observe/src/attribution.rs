//! Per-tile and per-node attribution of fragments, setup cycles and
//! classified cache misses.
//!
//! [`SpatialCollector`] is a [`TraceSink`] that listens
//! to the machine's *spatial* hooks (per-fragment samples and per-triangle
//! setup padding) instead of the temporal event stream. During a traced
//! run it bins every sample into a [`ScreenGrid`] of [`TileStats`] and
//! keeps per-node totals, answering the paper's *where* questions: which
//! tiles carry the depth-complexity hotspots, where the setup floor burns
//! cycles, and where the three-C classifier places the locality loss that
//! makes SLI's best group size shrink.
//!
//! The miss classes mirror `sortmid-cache`'s classifier; [`MissClass`]
//! lives here (the substrate crate) so the cache crate can report classes
//! through the sink without a dependency cycle.

use crate::artifact::{checked_sum, Artifact};
use crate::heatmap::ScreenGrid;
use crate::provenance::Provenance;
use crate::record;
use crate::sink::TraceSink;
use crate::{Cycle, TraceEvent};
use std::fmt;

/// The classification of one cache miss, per the standard three-C model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// First-ever access to the line (misses in any cache).
    Compulsory,
    /// A fully-associative LRU cache of equal capacity would also miss.
    Capacity,
    /// Only the set-associative cache misses (associativity artefact).
    Conflict,
}

/// Counters of classified misses, one per [`MissClass`].
///
/// # Examples
///
/// ```
/// use sortmid_observe::{MissClass, MissClassCounts};
///
/// let mut c = MissClassCounts::default();
/// c.add(MissClass::Compulsory);
/// c.add(MissClass::Conflict);
/// assert_eq!(c.total(), 2);
/// assert_eq!(c.compulsory, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MissClassCounts {
    /// Classified-compulsory misses.
    pub compulsory: u64,
    /// Classified-capacity misses.
    pub capacity: u64,
    /// Classified-conflict misses.
    pub conflict: u64,
}

impl MissClassCounts {
    /// Counts one classified miss.
    #[inline]
    pub fn add(&mut self, class: MissClass) {
        match class {
            MissClass::Compulsory => self.compulsory += 1,
            MissClass::Capacity => self.capacity += 1,
            MissClass::Conflict => self.conflict += 1,
        }
    }

    /// Sum over the three classes.
    pub fn total(&self) -> u64 {
        self.compulsory + self.capacity + self.conflict
    }

    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &MissClassCounts) {
        self.compulsory += other.compulsory;
        self.capacity += other.capacity;
        self.conflict += other.conflict;
    }
}

impl fmt::Display for MissClassCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "compulsory={} capacity={} conflict={}",
            self.compulsory, self.capacity, self.conflict
        )
    }
}

/// Per-tile accumulators of one traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileStats {
    /// Fragments drawn in the tile. Divided by the tile's pixel area this
    /// is the tile's depth complexity.
    pub fragments: u64,
    /// Setup-floor padding cycles attributed to the tile (anchored at each
    /// triangle's bounding-box origin).
    pub setup_cycles: u64,
    /// Texture lines fetched for the tile's fragments (×16 texels per line
    /// and ÷ [`fragments`](Self::fragments) gives the tile's
    /// texel-to-fragment ratio).
    pub lines_fetched: u64,
    /// Three-C split of the tile's misses (zero for unclassified caches).
    pub misses: MissClassCounts,
    /// Node that drew the tile's most recent fragment. With the static
    /// distributions a tile no coarser than the distribution granularity
    /// has exactly one owner, so "last" is "the" owner there.
    pub owner: u32,
}

/// A [`TraceSink`] that accumulates spatial attribution: a
/// [`ScreenGrid`] of [`TileStats`] plus per-node fragment/miss/setup
/// totals. It ignores the temporal event stream, so it composes cheaply
/// with big runs.
///
/// # Examples
///
/// ```
/// use sortmid_observe::{MissClassCounts, SpatialCollector, TraceSink};
///
/// let mut col = SpatialCollector::new(64, 64, 16, 4);
/// col.record_fragment(1, 20, 8, 2, MissClassCounts::default());
/// assert_eq!(col.grid().cell(1, 0).fragments, 1);
/// assert_eq!(col.node_fragments()[1], 1);
/// assert_eq!(col.fragment_total(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SpatialCollector {
    grid: ScreenGrid<TileStats>,
    node_fragments: Vec<u64>,
    node_lines: Vec<u64>,
    node_setup: Vec<u64>,
    node_misses: Vec<MissClassCounts>,
}

impl SpatialCollector {
    /// A collector for a `width`×`height` screen binned at `tile` pixels,
    /// with `procs` per-node accumulators.
    ///
    /// # Panics
    ///
    /// Panics if the screen is empty, `tile` is zero, or `procs` is zero.
    pub fn new(width: u32, height: u32, tile: u32, procs: u32) -> Self {
        assert!(procs > 0, "collector needs at least one node");
        SpatialCollector {
            grid: ScreenGrid::new(width, height, tile),
            node_fragments: vec![0; procs as usize],
            node_lines: vec![0; procs as usize],
            node_setup: vec![0; procs as usize],
            node_misses: vec![MissClassCounts::default(); procs as usize],
        }
    }

    /// The filled per-tile grid.
    pub fn grid(&self) -> &ScreenGrid<TileStats> {
        &self.grid
    }

    /// Fragments drawn per node.
    pub fn node_fragments(&self) -> &[u64] {
        &self.node_fragments
    }

    /// Lines fetched per node.
    pub fn node_lines(&self) -> &[u64] {
        &self.node_lines
    }

    /// Setup-floor padding cycles per node.
    pub fn node_setup(&self) -> &[u64] {
        &self.node_setup
    }

    /// Classified misses per node.
    pub fn node_misses(&self) -> &[MissClassCounts] {
        &self.node_misses
    }

    /// Total fragments seen (equals the run report's fragment count).
    pub fn fragment_total(&self) -> u64 {
        self.node_fragments.iter().sum()
    }

    /// Gini coefficient of the per-node fragment load (0 = perfectly even,
    /// → 1 = one node drew everything).
    pub fn fragment_gini(&self) -> f64 {
        let loads: Vec<f64> = self.node_fragments.iter().map(|&f| f as f64).collect();
        sortmid_util::stats::gini(&loads)
    }

    /// The `HEATMAP_<preset>.json` document of this run: grid geometry,
    /// per-tile metric planes and per-node totals.
    pub fn document(&self, preset: &str, config: &str, provenance: Provenance) -> HeatmapDoc {
        let g = &self.grid;
        let plane = |value: fn(&TileStats) -> u64| -> TilePlane {
            g.cells()
                .chunks(g.cols() as usize)
                .map(|row| row.iter().map(value).collect())
                .collect()
        };
        HeatmapDoc {
            preset: preset.to_string(),
            config: config.to_string(),
            screen: Screen { width: g.width().into(), height: g.height().into() },
            tile: g.tile().into(),
            cols: g.cols().into(),
            rows: g.rows().into(),
            fragments: self.fragment_total(),
            fragment_gini: self.fragment_gini(),
            tiles: Tiles {
                fragments: plane(|t| t.fragments),
                setup_cycles: plane(|t| t.setup_cycles),
                lines_fetched: plane(|t| t.lines_fetched),
                miss_compulsory: plane(|t| t.misses.compulsory),
                miss_capacity: plane(|t| t.misses.capacity),
                miss_conflict: plane(|t| t.misses.conflict),
                owner: plane(|t| t.owner.into()),
            },
            nodes: (0..self.node_fragments.len())
                .map(|i| {
                    let m = self.node_misses[i];
                    NodeTotals {
                        node: i as u64,
                        fragments: self.node_fragments[i],
                        setup_cycles: self.node_setup[i],
                        misses: m.total(),
                        compulsory: m.compulsory,
                        capacity: m.capacity,
                        conflict: m.conflict,
                    }
                })
                .collect(),
            provenance,
        }
    }
}

/// One per-tile metric plane: `rows` rows of `cols` values.
pub type TilePlane = Vec<Vec<u64>>;

record! {
    /// Screen size in pixels.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Screen {
        pub width: u64,
        pub height: u64,
    }
}

record! {
    /// The per-tile metric planes of a heatmap, one per [`TileStats`]
    /// field (`miss_*` split out by class).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Tiles {
        pub fragments: TilePlane,
        pub setup_cycles: TilePlane,
        pub lines_fetched: TilePlane,
        pub miss_compulsory: TilePlane,
        pub miss_capacity: TilePlane,
        pub miss_conflict: TilePlane,
        pub owner: TilePlane,
    }
}

impl Tiles {
    /// Every plane with its name, the categorical `owner` plane last.
    pub fn planes(&self) -> [(&'static str, &TilePlane); 7] {
        [
            ("fragments", &self.fragments),
            ("setup_cycles", &self.setup_cycles),
            ("lines_fetched", &self.lines_fetched),
            ("miss_compulsory", &self.miss_compulsory),
            ("miss_capacity", &self.miss_capacity),
            ("miss_conflict", &self.miss_conflict),
            ("owner", &self.owner),
        ]
    }
}

record! {
    /// One node's totals in a heatmap document (the collector's per-node
    /// accumulators); the three-C split sums to `misses`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct NodeTotals {
        pub node: u64,
        pub fragments: u64,
        pub setup_cycles: u64,
        pub misses: u64,
        pub compulsory: u64,
        pub capacity: u64,
        pub conflict: u64,
    }
}

record! {
    /// A `HEATMAP_<preset>.json` document: one run's spatial attribution,
    /// emitted from a [`SpatialCollector`] — the preset and machine config
    /// it ran, the screen and its tile grid (`tile` pixels square, `cols`
    /// × `rows`), the fragment total and the Gini coefficient of the
    /// per-node load, the per-tile planes, and per-node totals.
    #[derive(Debug, Clone, PartialEq)]
    pub struct HeatmapDoc {
        pub preset: String,
        pub config: String,
        pub screen: Screen,
        pub tile: u64,
        pub cols: u64,
        pub rows: u64,
        pub fragments: u64,
        pub fragment_gini: f64,
        pub tiles: Tiles,
        pub nodes: Vec<NodeTotals>,
        pub provenance: Provenance,
    }
}

impl Artifact for HeatmapDoc {
    /// Every plane is `rows`×`cols`, tile and node fragments both sum to
    /// the document total, and each node's three-C split sums to its
    /// misses.
    fn verify(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.tile == 0 || self.cols == 0 || self.rows == 0 {
            problems.push("'tile'/'cols'/'rows' must be positive integers".to_string());
        }
        for (metric, plane) in self.tiles.planes() {
            let cols_ok = plane.iter().all(|r| r.len() as u64 == self.cols);
            if plane.len() as u64 != self.rows || !cols_ok {
                problems.push(format!("'tiles.{metric}' is not a rows x cols integer grid"));
            }
        }
        let total = self.fragments;
        let tile_sum = checked_sum(self.tiles.fragments.iter().flatten().copied());
        let node_sum = checked_sum(self.nodes.iter().map(|n| n.fragments));
        for (what, sum) in [("tile", tile_sum), ("node", node_sum)] {
            match sum {
                Some(sum) if sum == total => {}
                Some(sum) => problems.push(format!(
                    "{what} fragments sum to {sum}, document total is {total}"
                )),
                None => problems.push(format!("{what} fragments overflow u64")),
            }
        }
        if self.nodes.is_empty() {
            problems.push("'nodes' is empty".to_string());
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if checked_sum([n.compulsory, n.capacity, n.conflict]) != Some(n.misses) {
                problems.push(format!(
                    "node{i}: three-C identity broken: {}+{}+{} != {} misses",
                    n.compulsory, n.capacity, n.conflict, n.misses
                ));
            }
        }
        problems
    }
}

impl TraceSink for SpatialCollector {
    /// The temporal stream is ignored — this sink is purely spatial.
    #[inline(always)]
    fn record(&mut self, _event: TraceEvent) {}

    #[inline]
    fn record_fragment(&mut self, node: u32, x: u16, y: u16, lines: u32, classes: MissClassCounts) {
        let tile = self.grid.at(x as u32, y as u32);
        tile.fragments += 1;
        tile.lines_fetched += lines as u64;
        tile.misses.merge(&classes);
        tile.owner = node;
        let n = node as usize;
        self.node_fragments[n] += 1;
        self.node_lines[n] += lines as u64;
        self.node_misses[n].merge(&classes);
    }

    #[inline]
    fn record_setup(&mut self, node: u32, x: u16, y: u16, padding: Cycle) {
        if padding > 0 {
            self.grid.at(x as u32, y as u32).setup_cycles += padding;
            self.node_setup[node as usize] += padding;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Schema;
    use sortmid_devharness::json::Json;

    fn classes(c: u64, k: u64, f: u64) -> MissClassCounts {
        MissClassCounts {
            compulsory: c,
            capacity: k,
            conflict: f,
        }
    }

    #[test]
    fn fragments_and_misses_bin_by_tile_and_node() {
        let mut col = SpatialCollector::new(32, 32, 16, 2);
        col.record_fragment(0, 0, 0, 3, classes(2, 1, 0));
        col.record_fragment(1, 20, 20, 1, classes(1, 0, 0));
        col.record_fragment(1, 21, 20, 0, classes(0, 0, 0));
        assert_eq!(col.grid().cell(0, 0).fragments, 1);
        assert_eq!(col.grid().cell(1, 1).fragments, 2);
        assert_eq!(col.grid().cell(1, 1).owner, 1);
        assert_eq!(col.node_fragments(), &[1, 2]);
        assert_eq!(col.node_lines(), &[3, 1]);
        assert_eq!(col.node_misses()[0].total(), 3);
        assert_eq!(col.fragment_total(), 3);
    }

    #[test]
    fn setup_padding_accumulates_at_the_anchor() {
        let mut col = SpatialCollector::new(64, 64, 16, 1);
        col.record_setup(0, 17, 2, 20);
        col.record_setup(0, 17, 2, 5);
        col.record_setup(0, 0, 0, 0); // zero padding leaves no trace
        assert_eq!(col.grid().cell(1, 0).setup_cycles, 25);
        assert_eq!(col.grid().cell(0, 0).setup_cycles, 0);
        assert_eq!(col.node_setup(), &[25]);
    }

    #[test]
    fn json_carries_grid_geometry_and_node_identity() {
        let mut col = SpatialCollector::new(32, 16, 16, 2);
        col.record_fragment(1, 16, 0, 2, classes(1, 1, 0));
        let doc = col.document("demo", "2p/block-16", Provenance::collect(1, 2)).to_json();
        assert_eq!(doc.get("preset").and_then(Json::as_str), Some("demo"));
        assert_eq!(doc.get("cols").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("rows").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("fragments").and_then(Json::as_u64), Some(1));
        let nodes = doc.get("nodes").and_then(Json::as_arr).unwrap();
        assert_eq!(nodes.len(), 2);
        let n1 = &nodes[1];
        assert_eq!(n1.get("misses").and_then(Json::as_u64), Some(2));
        assert_eq!(
            n1.get("compulsory").and_then(Json::as_u64).unwrap()
                + n1.get("capacity").and_then(Json::as_u64).unwrap()
                + n1.get("conflict").and_then(Json::as_u64).unwrap(),
            2
        );
    }

    #[test]
    fn heatmap_verify_flags_overflowing_fragment_totals() {
        let mut col = SpatialCollector::new(32, 16, 16, 2);
        col.record_fragment(0, 0, 0, 0, classes(0, 0, 0));
        let mut doc = col.document("demo", "2p/block-16", Provenance::collect(1, 2));
        assert!(doc.verify().is_empty(), "{:?}", doc.verify());
        doc.tiles.fragments[0] = vec![u64::MAX, 2];
        doc.nodes[1].fragments = u64::MAX;
        let problems = doc.verify();
        assert!(problems.iter().any(|p| p == "tile fragments overflow u64"), "{problems:?}");
        assert!(problems.iter().any(|p| p == "node fragments overflow u64"), "{problems:?}");
    }

    #[test]
    fn gini_is_zero_for_even_load() {
        let mut col = SpatialCollector::new(16, 16, 8, 2);
        col.record_fragment(0, 0, 0, 0, MissClassCounts::default());
        col.record_fragment(1, 8, 8, 0, MissClassCounts::default());
        assert!(col.fragment_gini().abs() < 1e-12);
    }
}
