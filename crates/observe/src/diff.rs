//! Differential observability: attributed deltas between two runs'
//! artefacts.
//!
//! The paper's argument is comparative (which distribution wins, what a
//! small buffer costs), and so is the day-to-day question a regression
//! gate answers: *what changed between this run and the baseline, and
//! why?* This module compares **artefacts, not runs** — deterministic
//! and free, where re-measurement is neither. Three differs cover every
//! level the instrumentation records:
//!
//! * [`SweepDiff`] — per-config simulated-cycle deltas, each split by the
//!   five-way [`CycleBreakdown`](crate::CycleBreakdown) identity summed
//!   over nodes;
//! * [`HeatmapDiff`] — tile-level delta grids for every numeric metric
//!   plane (rendered as diverging-palette PPMs), owner-flip counts, and
//!   per-node three-C miss-class deltas;
//! * [`MetricsDiff`] — per-phase wall-time deltas, counter deltas, and
//!   histogram distribution shifts.
//!
//! Each differ compares two documents decoded by their owner type
//! ([`crate::artifact`]), refuses incomparable [`Provenance`] (different
//! schema, scene seed or config grid), and names the field — never
//! panics — when a delta does not fit an `i64`. Diffing a document
//! against itself is **exactly zero at every level** (a devharness
//! property pins this), so any nonzero delta is a real difference.

use crate::artifact::{delta, Artifact};
use crate::attribution::{HeatmapDoc, MissClass, TilePlane};
use crate::breakdown::{BreakdownDelta, SweepBreakdowns};
use crate::heatmap::ScreenGrid;
use crate::host::MetricsDoc;
use crate::metrics::HistogramSnapshot;
use crate::palette::diverging_color;
use crate::provenance::Provenance;
use crate::record;
use sortmid_util::ppm::Image;
use std::collections::{BTreeMap, BTreeSet};

/// `cur` vs `base` as a signed percentage string, or `(was 0)` when the
/// base cannot anchor a ratio.
fn fmt_pct(cur: u64, base: u64) -> String {
    if base == 0 {
        if cur == 0 {
            "+0.0%".to_string()
        } else {
            "(was 0)".to_string()
        }
    } else {
        format!("{:+.1}%", (cur as f64 / base as f64 - 1.0) * 100.0)
    }
}

/// Compacts sorted indices into a `2-5,7` style range list.
fn compact_ranges(indices: &[usize]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < indices.len() {
        let start = indices[i];
        let mut end = start;
        while i + 1 < indices.len() && indices[i + 1] == end + 1 {
            i += 1;
            end = indices[i];
        }
        if !out.is_empty() {
            out.push(',');
        }
        if start == end {
            out.push_str(&start.to_string());
        } else {
            out.push_str(&format!("{start}-{end}"));
        }
        i += 1;
    }
    out
}

/// Pairs two named lists: the items both sides have, as `(base, cur)` in
/// the current side's order, then the names only the baseline has and
/// the names only the current side has.
#[allow(clippy::type_complexity)]
fn pair_by_name<'a, T>(
    base: &'a [T],
    cur: &'a [T],
    name: impl Fn(&T) -> &str,
) -> (Vec<(&'a T, &'a T)>, Vec<String>, Vec<String>) {
    let base_by_name: BTreeMap<&str, &T> = base.iter().map(|b| (name(b), b)).collect();
    let cur_names: BTreeSet<&str> = cur.iter().map(&name).collect();
    let pairs = cur.iter().filter_map(|c| Some((*base_by_name.get(name(c))?, c))).collect();
    let only = |side: &'a [T], other: &dyn Fn(&str) -> bool| -> Vec<String> {
        side.iter().map(&name).filter(|n| !other(n)).map(str::to_string).collect()
    };
    let only_base = only(base, &|n| cur_names.contains(n));
    let only_cur = only(cur, &|n| base_by_name.contains_key(n));
    (pairs, only_base, only_cur)
}

/// `<what> '<name>' only in <side>` for each name only one side has.
fn only_in(what: &str, only_base: Vec<String>, only_cur: Vec<String>) -> Vec<String> {
    let base = only_base.into_iter().map(|n| (n, "baseline"));
    let sides = base.chain(only_cur.into_iter().map(|n| (n, "current")));
    sides.map(|(n, side)| format!("{what} '{n}' only in {side}")).collect()
}

/// The problems with a diff document's header: its `kind` must read
/// `expected`, and its `zero` claim match `rows_zero`, what its rows say.
fn check_header(kind: &str, expected: &str, zero: bool, rows_zero: bool) -> Vec<String> {
    let mut problems = Vec::new();
    if kind != expected {
        problems.push(format!("kind '{kind}' is not '{expected}'"));
    }
    if zero != rows_zero {
        problems.push(format!("'zero' is {zero} but the rows say {rows_zero}"));
    }
    problems
}

// ---------------------------------------------------------------------------
// Sweep diff
// ---------------------------------------------------------------------------

record! {
    /// One config's change between two sweep artefacts.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ConfigDelta {
        /// The config summary (`<procs>p/<distribution>/<cache>/<buffer>...`).
        pub config: String,
        /// Baseline machine time (max node finish).
        pub base_cycles: u64,
        /// Current machine time.
        pub cur_cycles: u64,
        /// Signed machine-time change in cycles.
        pub delta: i64,
        /// Five-way attribution of the change, summed over all nodes. Its
        /// [`BreakdownDelta::total`] equals the change in *node-cycle sum*
        /// (machine time is the max finish, so the two differ whenever load
        /// shifts between nodes — both views are reported).
        pub breakdown: BreakdownDelta,
    }
}

impl ConfigDelta {
    /// True when neither the machine time nor any per-node category
    /// moved.
    pub fn is_zero(&self) -> bool {
        self.delta == 0 && self.breakdown.is_zero()
    }

    /// The `<procs>p/<distribution>` group this config belongs to (what
    /// the regression gate medians over).
    pub fn group(&self) -> String {
        config_group(&self.config).unwrap_or_else(|| self.config.clone())
    }
}

/// The regression gate's group key of a config summary: its first two
/// `/`-separated segments (`None` when the summary has fewer).
pub fn config_group(config: &str) -> Option<String> {
    let segments: Vec<&str> = config.splitn(3, '/').collect();
    (segments.len() >= 2).then(|| format!("{}/{}", segments[0], segments[1]))
}

record! {
    /// Attributed difference between two `BENCH_sweep.json` documents,
    /// and its `DIFF_*.json` document (`kind: "sweep-diff"`).
    #[derive(Debug, Clone)]
    pub struct SweepDiff {
        /// Always `sweep-diff`.
        pub kind: String,
        /// Whether every row is zero ([`Artifact::verify`] checks it).
        pub zero: bool,
        /// Provenance of the baseline document.
        pub base_provenance: Provenance,
        /// Provenance of the current document.
        pub current_provenance: Provenance,
        /// Per-config deltas, in the current document's order.
        pub configs: Vec<ConfigDelta>,
        /// Configs only the baseline has (coverage drift).
        pub only_base: Vec<String>,
        /// Configs only the current document has.
        pub only_current: Vec<String>,
    }
}

impl SweepDiff {
    /// Diffs two decoded sweep artefacts (baseline first).
    ///
    /// # Errors
    ///
    /// Returns an error for incomparable provenance, a node-count
    /// mismatch on a shared config (the grids hash equal, so that means a
    /// corrupt document), or a delta that does not fit an `i64`.
    pub fn between(base: &SweepBreakdowns, cur: &SweepBreakdowns) -> Result<SweepDiff, String> {
        base.provenance.comparable(&cur.provenance)?;
        let (pairs, only_base, only_current) =
            pair_by_name(&base.cycle_breakdowns, &cur.cycle_breakdowns, |c| &c.config);
        let mut configs = Vec::new();
        for (b, c) in pairs {
            if b.nodes.len() != c.nodes.len() {
                return Err(format!(
                    "config '{}': node count {} vs {} — corrupt artefact \
                     (the grids hash equal)",
                    c.config,
                    b.nodes.len(),
                    c.nodes.len()
                ));
            }
            let breakdown = BreakdownDelta::between(&c.nodes, &b.nodes)
                .ok_or_else(|| format!("{}: breakdown delta does not fit i64", c.config))?;
            configs.push(ConfigDelta {
                config: c.config.clone(),
                base_cycles: b.total_cycles,
                cur_cycles: c.total_cycles,
                delta: delta(c.total_cycles, b.total_cycles, &c.config)?,
                breakdown,
            });
        }
        let mut diff = SweepDiff {
            kind: "sweep-diff".to_string(),
            zero: false,
            base_provenance: base.provenance.clone(),
            current_provenance: cur.provenance.clone(),
            configs,
            only_base,
            only_current,
        };
        diff.zero = diff.is_zero();
        Ok(diff)
    }

    /// True when every config is unchanged at every level and neither
    /// side has extra configs.
    pub fn is_zero(&self) -> bool {
        self.only_base.is_empty()
            && self.only_current.is_empty()
            && self.configs.iter().all(ConfigDelta::is_zero)
    }

    /// Changed configs ranked by absolute machine-time delta, largest
    /// first (ties break on the config name for determinism).
    pub fn ranked(&self) -> Vec<&ConfigDelta> {
        let mut changed: Vec<&ConfigDelta> =
            self.configs.iter().filter(|c| !c.is_zero()).collect();
        changed.sort_by(|a, b| {
            b.delta
                .unsigned_abs()
                .cmp(&a.delta.unsigned_abs())
                .then_with(|| a.config.cmp(&b.config))
        });
        changed
    }

    /// Ranked, human-readable explanation lines for the top `top`
    /// changed configs: the cycle change plus the dominant breakdown
    /// categories driving it.
    pub fn explanation(&self, top: usize) -> Vec<String> {
        let mut lines = Vec::new();
        if let Some(drift) = self.base_provenance.environment_drift(&self.current_provenance) {
            lines.push(format!("note: environment drift ({drift})"));
        }
        for c in self.ranked().into_iter().take(top) {
            lines.push(explain_config(c));
        }
        for config in &self.only_base {
            lines.push(format!("{config}: only in baseline (coverage drift)"));
        }
        for config in &self.only_current {
            lines.push(format!("{config}: only in current run (coverage drift)"));
        }
        if lines.is_empty() {
            lines.push("no differences: every config identical at every level".to_string());
        }
        lines
    }
}

impl Artifact for SweepDiff {
    /// The header names this kind and its `zero` matches the rows, and
    /// each config's `delta` is `cur_cycles - base_cycles`.
    fn verify(&self) -> Vec<String> {
        let mut problems = check_header(&self.kind, "sweep-diff", self.zero, self.is_zero());
        let moved = |c: &&ConfigDelta| c.cur_cycles as i128 - c.base_cycles as i128;
        let wrong = self.configs.iter().filter(|c| c.delta as i128 != moved(c));
        let delta = |c: &ConfigDelta| format!("{}: delta {} is not cur - base", c.config, c.delta);
        problems.extend(wrong.map(delta));
        problems
    }
}

/// One config's explanation line: cycle movement plus its top breakdown
/// categories.
fn explain_config(c: &ConfigDelta) -> String {
    let verb = if c.delta > 0 { "regressed" } else { "improved" };
    let mut line = format!(
        "{}: {verb} {} ({} -> {} cycles, {:+} machine cycles)",
        c.config,
        fmt_pct(c.cur_cycles, c.base_cycles),
        c.base_cycles,
        c.cur_cycles,
        c.delta,
    );
    let mut cats: Vec<(&'static str, i64)> = crate::breakdown::CATEGORY_NAMES
        .iter()
        .zip(c.breakdown.as_array())
        .filter(|(_, d)| *d != 0)
        .map(|(&k, d)| (k, d))
        .collect();
    cats.sort_by_key(|(_, d)| std::cmp::Reverse(d.unsigned_abs()));
    if !cats.is_empty() {
        let parts: Vec<String> = cats
            .iter()
            .take(3)
            .map(|(k, d)| format!("{k} {d:+}"))
            .collect();
        line.push_str(&format!(": {} node cycles", parts.join(", ")));
    }
    line
}

// ---------------------------------------------------------------------------
// Heatmap diff
// ---------------------------------------------------------------------------

record! {
    /// One node's three-C miss-class movement between two heatmap artefacts.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct NodeMissDelta {
        /// Node index.
        pub node: usize,
        /// Fragment-count change.
        pub fragments: i64,
        /// Compulsory-miss change.
        pub compulsory: i64,
        /// Capacity-miss change.
        pub capacity: i64,
        /// Conflict-miss change.
        pub conflict: i64,
        /// Total-miss change (equals the three-C sum by the identity both
        /// documents already satisfy).
        pub misses: i64,
    }
}

impl NodeMissDelta {
    /// True when nothing moved on this node.
    pub fn is_zero(&self) -> bool {
        [self.fragments, self.compulsory, self.capacity, self.conflict, self.misses] == [0; 5]
    }
}

record! {
    /// A tile-level delta grid for one metric plane.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TileDeltaPlane {
        /// The metric plane (`fragments`, `setup_cycles`, ...).
        pub metric: String,
        /// How many tiles changed at all.
        pub changed_tiles: usize,
        /// Largest absolute tile delta (the diverging palette's
        /// normalisation anchor).
        pub max_abs: i64,
        /// Signed per-tile deltas, one row of tiles per entry.
        pub deltas: Vec<Vec<i64>>,
    }
}

impl TileDeltaPlane {
    /// The plane `metric` with per-tile `deltas`, its counts derived.
    pub fn new(metric: &str, deltas: Vec<Vec<i64>>) -> TileDeltaPlane {
        let cells = || deltas.iter().flatten();
        TileDeltaPlane {
            metric: metric.to_string(),
            changed_tiles: cells().filter(|&&d| d != 0).count(),
            max_abs: cells().map(|d| d.abs()).max().unwrap_or(0),
            deltas,
        }
    }

    /// `(col, row, delta)` of the largest-magnitude change (`None` when
    /// the plane is all-zero).
    pub fn hottest(&self) -> Option<(usize, usize, i64)> {
        let cells = self.deltas.iter().enumerate();
        let cells = cells.flat_map(|(y, row)| row.iter().enumerate().map(move |(x, &d)| (x, y, d)));
        let (x, y, d) = cells.max_by_key(|&(.., d)| d.unsigned_abs())?;
        (d != 0).then_some((x, y, d))
    }

    /// Renders the plane through the diverging palette (blue improved,
    /// white unchanged, red regressed), normalised by `max_abs` (an
    /// all-zero plane renders solid white).
    ///
    /// # Panics
    ///
    /// Panics if the plane is empty or `px_per_tile` is zero.
    pub fn render(&self, px_per_tile: u32) -> Image {
        let scale = self.max_abs.max(1) as f64;
        let (cols, rows) = (self.deltas[0].len() as u32, self.deltas.len() as u32);
        let mut grid: ScreenGrid<i64> = ScreenGrid::new(cols, rows, 1);
        for (y, row) in self.deltas.iter().enumerate() {
            for (x, &d) in row.iter().enumerate() {
                *grid.at(x as u32, y as u32) = d;
            }
        }
        grid.render_rgb(px_per_tile, |&d| diverging_color(d as f64 / scale))
    }
}

record! {
    /// Attributed difference between two `HEATMAP_<preset>.json`
    /// documents, and its `DIFF_*.json` document (`kind: "heatmap-diff"`).
    #[derive(Debug, Clone)]
    pub struct HeatmapDiff {
        /// Always `heatmap-diff`.
        pub kind: String,
        /// Whether every row is zero ([`Artifact::verify`] checks it).
        pub zero: bool,
        /// The preset both documents render.
        pub preset: String,
        /// The machine config both documents ran.
        pub config: String,
        /// Provenance of the baseline document.
        pub base_provenance: Provenance,
        /// Provenance of the current document.
        pub current_provenance: Provenance,
        /// Tiles whose owning node flipped (the owner plane is categorical,
        /// so a signed delta would be meaningless).
        pub owner_flips: usize,
        /// Tile delta grids, one per numeric metric plane.
        pub planes: Vec<TileDeltaPlane>,
        /// Per-node three-C miss-class deltas.
        pub nodes: Vec<NodeMissDelta>,
    }
}

impl HeatmapDiff {
    /// Diffs two decoded heatmap artefacts (baseline first).
    ///
    /// # Errors
    ///
    /// Returns an error for incomparable provenance, mismatched
    /// preset/config/grid geometry, a plane that does not match the grid
    /// on both sides, or a delta that does not fit an `i64`.
    pub fn between(base: &HeatmapDoc, cur: &HeatmapDoc) -> Result<HeatmapDiff, String> {
        base.provenance.comparable(&cur.provenance)?;
        let incomparable = |what: String| Err(format!("incomparable heatmaps: {what}"));
        if base.preset != cur.preset {
            return incomparable(format!("preset '{}' vs '{}'", base.preset, cur.preset));
        }
        if base.config != cur.config {
            return incomparable(format!("config '{}' vs '{}'", base.config, cur.config));
        }
        if (base.tile, base.cols, base.rows) != (cur.tile, cur.cols, cur.rows) {
            return incomparable(format!(
                "grid {}x{} @{}px vs {}x{} @{}px",
                base.cols, base.rows, base.tile, cur.cols, cur.rows, cur.tile
            ));
        }
        if base.nodes.len() != cur.nodes.len() {
            return incomparable(format!("{} nodes vs {}", base.nodes.len(), cur.nodes.len()));
        }
        let (cols, rows) = (base.cols as usize, base.rows as usize);
        if cols * rows == 0 {
            return Err(format!("empty tile grid {cols}x{rows}"));
        }

        let shaped = |p: &TilePlane| p.len() == rows && p.iter().all(|r| r.len() == cols);
        let (base_planes, cur_planes) = (base.tiles.planes(), cur.tiles.planes());
        let mut planes = Vec::new();
        let mut owner_flips = 0;
        for (i, ((metric, b), (_, c))) in base_planes.iter().zip(&cur_planes).enumerate() {
            if !shaped(b) || !shaped(c) {
                return Err(format!("plane '{metric}' is not {cols}x{rows} on both sides"));
            }
            let cells = || c.iter().flatten().zip(b.iter().flatten());
            // The owner map (last) is categorical: it counts flips
            // instead of a signed delta grid.
            if i + 1 == base_planes.len() {
                owner_flips = cells().filter(|(c, b)| c != b).count();
                continue;
            }
            let what = format!("plane '{metric}'");
            let deltas: Vec<i64> =
                cells().map(|(&c, &b)| delta(c, b, &what)).collect::<Result<_, _>>()?;
            let rows = deltas.chunks(cols).map(<[i64]>::to_vec).collect();
            planes.push(TileDeltaPlane::new(metric, rows));
        }
        let nodes = cur
            .nodes
            .iter()
            .zip(&base.nodes)
            .enumerate()
            .map(|(node, (c, b))| {
                let d = |cur: u64, base: u64| delta(cur, base, format_args!("node{node}"));
                Ok(NodeMissDelta {
                    node,
                    fragments: d(c.fragments, b.fragments)?,
                    compulsory: d(c.compulsory, b.compulsory)?,
                    capacity: d(c.capacity, b.capacity)?,
                    conflict: d(c.conflict, b.conflict)?,
                    misses: d(c.misses, b.misses)?,
                })
            })
            .collect::<Result<_, String>>()?;

        let mut diff = HeatmapDiff {
            kind: "heatmap-diff".to_string(),
            zero: false,
            preset: base.preset.clone(),
            config: base.config.clone(),
            base_provenance: base.provenance.clone(),
            current_provenance: cur.provenance.clone(),
            owner_flips,
            planes,
            nodes,
        };
        diff.zero = diff.is_zero();
        Ok(diff)
    }

    /// True when every tile plane, the owner map and every node's miss
    /// classes are unchanged.
    pub fn is_zero(&self) -> bool {
        self.owner_flips == 0
            && self.planes.iter().all(|p| p.deltas.iter().flatten().all(|&d| d == 0))
            && self.nodes.iter().all(NodeMissDelta::is_zero)
    }

    /// Ranked, human-readable explanation lines: miss-class movement
    /// with the nodes carrying it, then the hottest tile per changed
    /// plane.
    pub fn explanation(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (class, pick) in [
            (MissClass::Compulsory, (|n| n.compulsory) as fn(&NodeMissDelta) -> i64),
            (MissClass::Capacity, |n| n.capacity),
            (MissClass::Conflict, |n| n.conflict),
        ] {
            let total: i64 = self.nodes.iter().map(pick).sum();
            let moved = self.nodes.iter().filter(|n| pick(n) != 0);
            let nodes: Vec<usize> = moved.map(|n| n.node).collect();
            if total != 0 {
                lines.push(format!(
                    "{} misses {total:+} on nodes {}",
                    format!("{class:?}").to_lowercase(),
                    compact_ranges(&nodes)
                ));
            }
        }
        for plane in &self.planes {
            if let Some((col, row, d)) = plane.hottest() {
                lines.push(format!(
                    "{}: {} tiles changed, hottest {d:+} at ({col},{row})",
                    plane.metric, plane.changed_tiles,
                ));
            }
        }
        if self.owner_flips > 0 {
            lines.push(format!("{} tiles changed owner", self.owner_flips));
        }
        if lines.is_empty() {
            lines.push("no differences: tiles, owners and miss classes identical".to_string());
        }
        lines
    }
}

impl Artifact for HeatmapDiff {
    /// The header names this kind and its `zero` matches the rows, and
    /// every plane is a non-empty rectangle whose `changed_tiles` and
    /// `max_abs` match its deltas.
    fn verify(&self) -> Vec<String> {
        let mut problems = check_header(&self.kind, "heatmap-diff", self.zero, self.is_zero());
        for p in &self.planes {
            let cols = p.deltas.first().map_or(0, Vec::len);
            let grid = cols > 0 && p.deltas.iter().all(|r| r.len() == cols);
            if !grid || *p != TileDeltaPlane::new(&p.metric, p.deltas.clone()) {
                let what = "a non-empty grid whose changed_tiles and max_abs match it";
                problems.push(format!("plane '{}': deltas are not {what}", p.metric));
            }
        }
        problems
    }
}

// ---------------------------------------------------------------------------
// Metrics (host profile) diff
// ---------------------------------------------------------------------------

record! {
    /// One pipeline phase's wall-time movement between two host profiles.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PhaseDelta {
        /// Phase (span) name.
        pub name: String,
        /// Change in occurrence count.
        pub count: i64,
        /// Change in inclusive wall time.
        pub total_ns: i64,
        /// Change in self (exclusive) wall time.
        pub self_ns: i64,
    }
}

record! {
    /// One histogram's distribution shift between two host profiles.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct HistogramShift {
        /// Histogram name.
        pub name: String,
        /// Change in sample count.
        pub count: i64,
        /// Change in sample sum.
        pub sum: i64,
        /// Bucket-resolution median movement.
        pub p50: i64,
        /// Bucket-resolution 90th-percentile movement.
        pub p90: i64,
        /// Bucket-resolution 99th-percentile movement.
        pub p99: i64,
        /// Sparse per-bucket count deltas `(bucket index, delta)`, ascending.
        pub buckets: Vec<(usize, i64)>,
    }
}

impl HistogramShift {
    /// True when the distribution did not move at all.
    pub fn is_zero(&self) -> bool {
        [self.count, self.sum, self.p50, self.p90, self.p99] == [0; 5] && self.buckets.is_empty()
    }
}

record! {
    /// Attributed difference between two `METRICS_<name>.json` host
    /// profiles, and its `DIFF_*.json` document (`kind: "metrics-diff"`).
    /// Host wall times are *not* deterministic across runs — this differ
    /// explains where time moved, it does not gate.
    #[derive(Debug, Clone)]
    pub struct MetricsDiff {
        /// Always `metrics-diff`.
        pub kind: String,
        /// Whether every row is zero ([`Artifact::verify`] checks it).
        pub zero: bool,
        /// Provenance of the baseline document.
        pub base_provenance: Provenance,
        /// Provenance of the current document.
        pub current_provenance: Provenance,
        /// Peak-RSS change in bytes.
        pub peak_rss_delta: i64,
        /// Per-phase deltas for phases present on both sides, current order.
        pub phases: Vec<PhaseDelta>,
        /// Counter deltas (all counters on either side, by name).
        pub counters: BTreeMap<String, i64>,
        /// Histogram distribution shifts for histograms on both sides.
        pub histograms: Vec<HistogramShift>,
        /// Phases, then histograms, that only one side has (`phase 'x'
        /// only in baseline`).
        pub one_sided: Vec<String>,
    }
}

impl MetricsDiff {
    /// Diffs two decoded host profiles (baseline first).
    ///
    /// # Errors
    ///
    /// Returns an error for incomparable provenance, or one naming the
    /// phase, counter, histogram or peak RSS whose delta does not fit an
    /// `i64`.
    pub fn between<'a>(base: &'a MetricsDoc, cur: &'a MetricsDoc) -> Result<MetricsDiff, String> {
        base.provenance.comparable(&cur.provenance)?;
        let (pairs, only_base, only_cur) = pair_by_name(&base.phases, &cur.phases, |p| &p.name);
        let mut one_sided = only_in("phase", only_base, only_cur);
        let mut phases = Vec::new();
        for (b, c) in &pairs {
            let d = |cur: u64, base: u64| delta(cur, base, format_args!("phase '{}'", b.name));
            phases.push(PhaseDelta {
                name: b.name.clone(),
                count: d(c.count, b.count)?,
                total_ns: d(c.total_ns, b.total_ns)?,
                self_ns: d(c.self_ns, b.self_ns)?,
            });
        }

        let (base_counters, cur_counters) = (&base.metrics.counters, &cur.metrics.counters);
        let counters = base_counters
            .keys()
            .chain(cur_counters.keys())
            .map(|name| {
                let value = |m: &BTreeMap<String, u64>| m.get(name).copied().unwrap_or(0);
                let what = format!("counter '{name}'");
                Ok((name.clone(), delta(value(cur_counters), value(base_counters), what)?))
            })
            .collect::<Result<_, String>>()?;

        let named = |doc: &'a MetricsDoc| doc.metrics.histograms.iter().collect::<Vec<_>>();
        let (base_hists, cur_hists) = (named(base), named(cur));
        let (pairs, only_base, only_cur) = pair_by_name(&base_hists, &cur_hists, |h| h.0);
        one_sided.extend(only_in("histogram", only_base, only_cur));
        let mut histograms = Vec::new();
        for ((name, b), (_, c)) in pairs {
            let d = |cur: u64, base: u64| delta(cur, base, format_args!("histogram '{name}'"));
            let count = |h: &HistogramSnapshot, k: u64| {
                h.buckets.iter().find(|&&(bucket, _)| bucket == k).map_or(0, |&(_, n)| n)
            };
            let keys: BTreeSet<u64> = b.buckets.iter().chain(&c.buckets).map(|&(k, _)| k).collect();
            let mut buckets = Vec::new();
            for k in keys {
                let moved = d(count(c, k), count(b, k))?;
                if moved != 0 {
                    buckets.push((k as usize, moved));
                }
            }
            histograms.push(HistogramShift {
                name: name.to_string(),
                count: d(c.count, b.count)?,
                sum: d(c.sum, b.sum)?,
                p50: d(c.p50, b.p50)?,
                p90: d(c.p90, b.p90)?,
                p99: d(c.p99, b.p99)?,
                buckets,
            });
        }

        let mut diff = MetricsDiff {
            kind: "metrics-diff".to_string(),
            zero: false,
            base_provenance: base.provenance.clone(),
            current_provenance: cur.provenance.clone(),
            peak_rss_delta: delta(cur.peak_rss_bytes, base.peak_rss_bytes, "peak RSS")?,
            phases,
            counters,
            histograms,
            one_sided,
        };
        diff.zero = diff.is_zero();
        Ok(diff)
    }

    /// True when phases, counters, histograms and peak RSS are all
    /// unchanged (only diffing a profile against itself achieves this —
    /// wall times jitter between real runs).
    pub fn is_zero(&self) -> bool {
        self.one_sided.is_empty()
            && self.peak_rss_delta == 0
            && self.phases.iter().all(|p| [p.count, p.total_ns, p.self_ns] == [0; 3])
            && self.counters.values().all(|&d| d == 0)
            && self.histograms.iter().all(HistogramShift::is_zero)
    }

    /// Phases ranked by absolute self-time movement, largest first.
    pub fn ranked_phases(&self) -> Vec<&PhaseDelta> {
        let mut changed: Vec<&PhaseDelta> = self
            .phases
            .iter()
            .filter(|p| p.self_ns != 0 || p.count != 0)
            .collect();
        changed.sort_by(|a, b| {
            b.self_ns
                .unsigned_abs()
                .cmp(&a.self_ns.unsigned_abs())
                .then_with(|| a.name.cmp(&b.name))
        });
        changed
    }

    /// Ranked, human-readable explanation lines: where host wall time
    /// moved (as a share of `base`'s self time, `base` being the profile
    /// the diff was taken against), counter drift, and histogram shifts.
    pub fn explanation(&self, base: &MetricsDoc, top: usize) -> Vec<String> {
        let mut lines = Vec::new();
        if let Some(drift) = self.base_provenance.environment_drift(&self.current_provenance) {
            lines.push(format!(
                "note: environment drift ({drift}) — wall times are not portable"
            ));
        }
        for p in self.ranked_phases().into_iter().take(top) {
            let base = base.phases.iter().find(|b| b.name == p.name).map_or(0, |b| b.self_ns);
            let pct = fmt_pct((base as i128 + p.self_ns as i128).max(0) as u64, base);
            lines.push(format!(
                "phase '{}': self {:+.3} ms ({pct}), inclusive {:+.3} ms",
                p.name,
                p.self_ns as f64 / 1e6,
                p.total_ns as f64 / 1e6,
            ));
        }
        for (name, d) in self.counters.iter().filter(|(_, d)| **d != 0).take(top) {
            lines.push(format!("counter '{name}': {d:+}"));
        }
        for h in self.histograms.iter().filter(|h| !h.is_zero()).take(top) {
            lines.push(format!(
                "histogram '{}': count {:+}, p50 {:+} ns, p99 {:+} ns, {} buckets moved",
                h.name,
                h.count,
                h.p50,
                h.p99,
                h.buckets.len(),
            ));
        }
        if lines.is_empty() {
            lines.push("no differences: phases, counters and histograms identical".to_string());
        }
        lines
    }
}

impl Artifact for MetricsDiff {
    /// The header names this kind and its `zero` matches the rows.
    fn verify(&self) -> Vec<String> {
        check_header(&self.kind, "metrics-diff", self.zero, self.is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Schema;
    use sortmid_devharness::json::Json;

    fn decode<A: Schema>(doc: &Json) -> A {
        A::from_json(doc).unwrap()
    }

    fn prov() -> Json {
        Provenance::collect(7, 0xabc).to_json()
    }

    fn sweep_doc(bus_stall: u64) -> Json {
        let finish = 100 + bus_stall;
        Json::obj([
            ("provenance", prov()),
            (
                "cycle_breakdowns",
                Json::arr([
                    Json::obj([
                        ("config", Json::str("16p/block-16/16KB/buf100")),
                        ("total_cycles", Json::U64(finish)),
                        (
                            "nodes",
                            Json::arr([Json::arr(
                                [25, 60, bus_stall, 10, 5, finish].map(Json::U64),
                            )]),
                        ),
                    ]),
                    Json::obj([
                        ("config", Json::str("64p/sli-4/16KB/buf100")),
                        ("total_cycles", Json::U64(50)),
                        (
                            "nodes",
                            Json::arr([Json::arr([10, 30, 0, 5, 5, 50].map(Json::U64))]),
                        ),
                    ]),
                ]),
            ),
        ])
    }

    #[test]
    fn sweep_self_diff_is_exactly_zero() {
        let doc = sweep_doc(0);
        let d = SweepDiff::between(&decode::<SweepBreakdowns>(&doc), &decode(&doc)).unwrap();
        assert!(d.is_zero());
        assert_eq!(d.ranked().len(), 0);
        assert!(d.explanation(5)[0].contains("no differences"));
        assert_eq!(d.to_json().get("zero"), Some(&Json::Bool(true)));
        let mut wrong = d.clone();
        (wrong.kind, wrong.zero) = ("gate".to_string(), false);
        let header = ["kind 'gate' is not 'sweep-diff'", "'zero' is false but the rows say true"];
        assert_eq!(wrong.verify(), header);
    }

    #[test]
    fn sweep_diff_attributes_an_injected_bus_stall_regression() {
        let base = sweep_doc(0);
        let cur = sweep_doc(40);
        let d = SweepDiff::between(&decode::<SweepBreakdowns>(&base), &decode(&cur)).unwrap();
        assert!(!d.is_zero());
        let ranked = d.ranked();
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].config, "16p/block-16/16KB/buf100");
        assert_eq!(ranked[0].delta, 40);
        assert_eq!(ranked[0].breakdown.dominant(), Some(("bus_stall", 40)));
        assert_eq!(ranked[0].group(), "16p/block-16");
        let line = &d.explanation(5)[0];
        assert!(line.contains("regressed") && line.contains("bus_stall +40"), "{line}");
        // The reverse diff reads as an improvement of the same size.
        let r = SweepDiff::between(&decode::<SweepBreakdowns>(&cur), &decode(&base)).unwrap();
        assert_eq!(r.ranked()[0].delta, -40);
        assert!(r.explanation(5)[0].contains("improved"));
    }

    #[test]
    fn sweep_diff_rejects_incomparable_provenance() {
        let base = decode::<SweepBreakdowns>(&sweep_doc(0));
        let mut cur = base.clone();
        cur.provenance = Provenance::collect(7, 0xdef);
        let e = SweepDiff::between(&base, &cur).unwrap_err();
        assert!(e.contains("grid_hash"), "{e}");
        cur.provenance = Provenance::collect(8, 0xabc);
        let e = SweepDiff::between(&base, &cur).unwrap_err();
        assert!(e.contains("seed"), "{e}");
        let Json::Obj(pairs) = sweep_doc(0) else { unreachable!() };
        let stripped = Json::Obj(pairs.into_iter().filter(|(k, _)| k != "provenance").collect());
        let e = SweepBreakdowns::from_json(&stripped).unwrap_err();
        assert!(e.contains("missing provenance"), "{e}");
    }

    #[test]
    fn sweep_diff_reports_coverage_drift() {
        let base = sweep_doc(0);
        let Json::Obj(mut pairs) = sweep_doc(0) else { unreachable!() };
        for (k, v) in &mut pairs {
            if k == "cycle_breakdowns" {
                let Json::Arr(items) = v else { unreachable!() };
                items.pop();
            }
        }
        let cur = Json::Obj(pairs);
        let d = SweepDiff::between(&decode::<SweepBreakdowns>(&base), &decode(&cur)).unwrap();
        assert!(!d.is_zero());
        assert_eq!(d.only_base, vec!["64p/sli-4/16KB/buf100".to_string()]);
        assert!(d
            .explanation(5)
            .iter()
            .any(|l| l.contains("only in baseline")), "{:?}", d.explanation(5));
    }

    fn heatmap_doc(conflict: u64, owner: u64) -> Json {
        Json::obj([
            ("provenance", prov()),
            ("preset", Json::str("demo")),
            ("config", Json::str("4p/block-16/16KB/buf100")),
            ("screen", Json::obj([("width", Json::U64(32)), ("height", Json::U64(16))])),
            ("tile", Json::U64(16)),
            ("cols", Json::U64(2)),
            ("rows", Json::U64(1)),
            ("fragments", Json::U64(8)),
            ("fragment_gini", Json::F64(0.25)),
            (
                "tiles",
                Json::obj([
                    ("fragments", Json::arr([Json::arr([Json::U64(5), Json::U64(3)])])),
                    ("setup_cycles", Json::arr([Json::arr([Json::U64(25), Json::U64(25)])])),
                    ("lines_fetched", Json::arr([Json::arr([Json::U64(2), Json::U64(1)])])),
                    ("miss_compulsory", Json::arr([Json::arr([Json::U64(1), Json::U64(1)])])),
                    ("miss_capacity", Json::arr([Json::arr([Json::U64(0), Json::U64(0)])])),
                    (
                        "miss_conflict",
                        Json::arr([Json::arr([Json::U64(conflict), Json::U64(0)])]),
                    ),
                    ("owner", Json::arr([Json::arr([Json::U64(0), Json::U64(owner)])])),
                ]),
            ),
            (
                "nodes",
                Json::arr([
                    Json::obj([
                        ("node", Json::U64(0)),
                        ("fragments", Json::U64(5)),
                        ("setup_cycles", Json::U64(25)),
                        ("compulsory", Json::U64(1)),
                        ("capacity", Json::U64(0)),
                        ("conflict", Json::U64(conflict)),
                        ("misses", Json::U64(1 + conflict)),
                    ]),
                    Json::obj([
                        ("node", Json::U64(1)),
                        ("fragments", Json::U64(3)),
                        ("setup_cycles", Json::U64(25)),
                        ("compulsory", Json::U64(1)),
                        ("capacity", Json::U64(0)),
                        ("conflict", Json::U64(0)),
                        ("misses", Json::U64(1)),
                    ]),
                ]),
            ),
        ])
    }

    #[test]
    fn heatmap_self_diff_is_exactly_zero() {
        let doc = heatmap_doc(0, 1);
        let d = HeatmapDiff::between(&decode::<HeatmapDoc>(&doc), &decode(&doc)).unwrap();
        assert!(d.is_zero());
        assert_eq!(d.owner_flips, 0);
        // An all-zero plane renders solid neutral white.
        let img = d.planes[0].render(1);
        assert_eq!(img.get(0, 0), [255, 255, 255]);
    }

    #[test]
    fn heatmap_diff_attributes_conflict_misses_and_tiles() {
        let base = heatmap_doc(0, 1);
        let cur = heatmap_doc(4, 0);
        let d = HeatmapDiff::between(&decode::<HeatmapDoc>(&base), &decode(&cur)).unwrap();
        assert!(!d.is_zero());
        assert_eq!(d.owner_flips, 1);
        assert_eq!(d.nodes[0].conflict, 4);
        assert_eq!(d.nodes[0].misses, 4);
        assert!(d.nodes[1].is_zero());
        let conflict_plane = d
            .planes
            .iter()
            .find(|p| p.metric == "miss_conflict")
            .unwrap();
        assert_eq!(conflict_plane.changed_tiles, 1);
        assert_eq!(conflict_plane.hottest(), Some((0, 0, 4)));
        // The regressed tile renders red-ish, the untouched one white.
        let img = conflict_plane.render(2);
        assert_eq!(img.get(0, 0), diverging_color(1.0));
        assert_eq!(img.get(2, 0), [255, 255, 255]);
        let lines = d.explanation();
        assert!(
            lines.iter().any(|l| l.contains("conflict misses +4 on nodes 0")),
            "{lines:?}"
        );
        assert!(lines.iter().any(|l| l.contains("changed owner")), "{lines:?}");
    }

    #[test]
    fn heatmap_diff_rejects_mismatched_geometry_and_preset() {
        let base = decode::<HeatmapDoc>(&heatmap_doc(0, 1));
        let mut cur = base.clone();
        cur.cols = 3;
        let e = HeatmapDiff::between(&base, &cur).unwrap_err();
        assert!(e.contains("grid"), "{e}");
        let mut cur = base.clone();
        cur.preset = "other".to_string();
        let e = HeatmapDiff::between(&base, &cur).unwrap_err();
        assert!(e.contains("preset"), "{e}");
    }

    fn metrics_doc(capture_ns: u64, runs: u64) -> Json {
        Json::obj([
            ("provenance", prov()),
            ("profile", Json::str("sweep")),
            ("peak_rss_bytes", Json::U64(1 << 20)),
            ("spans", Json::arr([])),
            ("workers", Json::arr([])),
            ("utilization_imbalance", Json::obj::<&str>([])),
            (
                "phases",
                Json::arr([
                    Json::obj([
                        ("name", Json::str("run-sweep")),
                        ("count", Json::U64(1)),
                        ("total_ns", Json::U64(1_000_000 + capture_ns)),
                        ("self_ns", Json::U64(500_000)),
                    ]),
                    Json::obj([
                        ("name", Json::str("capture")),
                        ("count", Json::U64(2)),
                        ("total_ns", Json::U64(capture_ns)),
                        ("self_ns", Json::U64(capture_ns)),
                    ]),
                ]),
            ),
            (
                "metrics",
                Json::obj([
                    (
                        "counters",
                        Json::obj([("sweep.configs", Json::U64(runs))]),
                    ),
                    (
                        "histograms",
                        Json::obj([(
                            "host.run_ns.direct",
                            Json::obj([
                                ("count", Json::U64(runs)),
                                ("sum", Json::U64(runs * 1000)),
                                ("min", Json::U64(900)),
                                ("max", Json::U64(1100)),
                                ("p50", Json::U64(1023)),
                                ("p90", Json::U64(1100)),
                                ("p99", Json::U64(1100)),
                                (
                                    "buckets",
                                    Json::arr([Json::arr([Json::U64(10), Json::U64(runs)])]),
                                ),
                            ]),
                        )]),
                    ),
                ]),
            ),
        ])
    }

    #[test]
    fn metrics_self_diff_is_exactly_zero() {
        let doc = decode::<MetricsDoc>(&metrics_doc(200_000, 60));
        let d = MetricsDiff::between(&doc, &doc).unwrap();
        assert!(d.is_zero());
        assert!(d.explanation(&doc, 5)[0].contains("no differences"));
    }

    #[test]
    fn metrics_diff_ranks_the_moved_phase_and_histogram() {
        let base = decode::<MetricsDoc>(&metrics_doc(200_000, 60));
        let cur = metrics_doc(500_000, 75);
        let d = MetricsDiff::between(&base, &decode(&cur)).unwrap();
        assert!(!d.is_zero());
        let ranked = d.ranked_phases();
        assert_eq!(ranked[0].name, "capture");
        assert_eq!(ranked[0].self_ns, 300_000);
        assert_eq!(d.counters, BTreeMap::from([("sweep.configs".to_string(), 15)]));
        assert_eq!(d.histograms[0].count, 15);
        assert_eq!(d.histograms[0].buckets, vec![(10, 15)]);
        let lines = d.explanation(&base, 5);
        assert!(lines[0].contains("capture"), "{lines:?}");
    }

    #[test]
    fn metrics_diff_names_a_counter_whose_delta_does_not_fit_i64() {
        let base = metrics_doc(200_000, 60);
        let mut cur = decode::<MetricsDoc>(&metrics_doc(200_000, 60));
        cur.metrics.counters.insert("sweep.configs".to_string(), u64::MAX);
        let e = MetricsDiff::between(&decode(&base), &cur).unwrap_err();
        assert!(e.contains("counter 'sweep.configs'") && e.contains("does not fit i64"), "{e}");
        // The histogram, phase and peak-RSS deltas are range-checked too.
        let mut cur = decode::<MetricsDoc>(&base);
        cur.peak_rss_bytes = u64::MAX;
        let e = MetricsDiff::between(&decode(&base), &cur).unwrap_err();
        assert!(e.contains("peak RSS"), "{e}");
        let mut cur = decode::<MetricsDoc>(&base);
        cur.phases[1].self_ns = u64::MAX;
        let e = MetricsDiff::between(&decode(&base), &cur).unwrap_err();
        assert!(e.contains("phase 'capture'"), "{e}");
    }

    #[test]
    fn compact_ranges_compresses_runs() {
        assert_eq!(compact_ranges(&[2, 3, 4, 5, 7]), "2-5,7");
        assert_eq!(compact_ranges(&[0]), "0");
        assert_eq!(compact_ranges(&[]), "");
    }
}
