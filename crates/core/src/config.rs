//! Machine configuration and its builder.

use crate::distribution::Distribution;
use crate::MAX_PROCESSORS;
use sortmid_cache::{
    AnyCache, CacheGeometry, ClassifyingCache, PerfectCache, TwoLevelCache, VictimCache,
};
use sortmid_memsys::{BusConfig, DramConfig, SETUP_CYCLES};
use std::fmt;

/// Which cache model each node carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheKind {
    /// The paper's "perfect cache": always hits (not even compulsory
    /// misses). Isolates load balancing (Figure 5).
    Perfect,
    /// The paper's L1: 16 KB, 4-way, 64-byte lines, LRU.
    PaperL1,
    /// A set-associative cache with explicit geometry.
    SetAssoc(CacheGeometry),
    /// Set-associative with compulsory/capacity/conflict classification
    /// (slower; for analysis runs).
    Classifying(CacheGeometry),
    /// Two-level hierarchy (L1, L2) — the paper's future-work question.
    TwoLevel(CacheGeometry, CacheGeometry),
    /// Set-associative L1 plus a small fully-associative victim buffer of
    /// the given number of lines (the era's cheap associativity).
    Victim(CacheGeometry, u32),
}

impl CacheKind {
    /// Instantiates one node's cache.
    pub fn build_model(&self) -> AnyCache {
        match self {
            CacheKind::Perfect => AnyCache::from(PerfectCache::new()),
            CacheKind::PaperL1 => AnyCache::set_assoc(CacheGeometry::paper_l1()),
            CacheKind::SetAssoc(g) => AnyCache::set_assoc(*g),
            CacheKind::Classifying(g) => AnyCache::from(ClassifyingCache::new(*g)),
            CacheKind::TwoLevel(l1, l2) => AnyCache::from(TwoLevelCache::new(*l1, *l2)),
            CacheKind::Victim(g, slots) => AnyCache::from(VictimCache::new(*g, *slots as usize)),
        }
    }

    /// The built model's [`AnyCache::label`], without building it (a
    /// two-level model allocates its whole L2).
    pub fn label(&self) -> &'static str {
        match self {
            CacheKind::Perfect => "perfect",
            CacheKind::PaperL1 | CacheKind::SetAssoc(_) => "set-assoc",
            CacheKind::Classifying(_) => "classifying",
            CacheKind::TwoLevel(..) => "two-level",
            CacheKind::Victim(..) => "victim",
        }
    }
}

impl fmt::Display for CacheKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheKind::Perfect => write!(f, "perfect"),
            CacheKind::PaperL1 => write!(f, "16KB/4-way/64B"),
            CacheKind::SetAssoc(g) => write!(f, "{g}"),
            CacheKind::Classifying(g) => write!(f, "{g}+classify"),
            CacheKind::TwoLevel(l1, l2) => write!(f, "{l1}+{l2}"),
            CacheKind::Victim(g, slots) => write!(f, "{g}+{slots}v"),
        }
    }
}

/// Errors from [`MachineConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Processor count outside `1..=MAX_PROCESSORS`.
    BadProcessorCount {
        /// The requested count.
        requested: u32,
    },
    /// Triangle buffer of zero entries.
    EmptyTriangleBuffer,
    /// A prefetch window of zero fragments (`None` is unbounded).
    EmptyPrefetchWindow,
    /// A victim buffer of zero lines.
    EmptyVictimBuffer,
    /// A bus ratio that is not positive and finite (zero, negative, NaN
    /// or infinite; [`MachineConfigBuilder::infinite_bus`] sets an
    /// infinite bus).
    BadBusRatio,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadProcessorCount { requested } => write!(
                f,
                "processor count {requested} outside 1..={MAX_PROCESSORS}"
            ),
            ConfigError::EmptyTriangleBuffer => write!(f, "triangle buffer must hold at least one entry"),
            ConfigError::EmptyPrefetchWindow => {
                write!(f, "prefetch window must hold at least one fragment")
            }
            ConfigError::EmptyVictimBuffer => write!(f, "victim buffer must hold at least one line"),
            ConfigError::BadBusRatio => write!(f, "bus ratio must be positive and finite"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full configuration of a machine run.
///
/// Defaults mirror the paper's Section 3 machine: 16 KB 4-way caches,
/// a 1 texel/pixel bus, a 10 000-entry triangle FIFO ("big enough"), a
/// 32-fragment prefetch window and a 25-cycle setup floor.
///
/// # Examples
///
/// ```
/// use sortmid::{Distribution, MachineConfig};
///
/// let c = MachineConfig::builder()
///     .processors(16)
///     .distribution(Distribution::sli(4))
///     .bus_ratio(2.0)
///     .triangle_buffer(500)
///     .build()?;
/// assert_eq!(c.processors, 16);
/// # Ok::<(), sortmid::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of texture-mapping nodes.
    pub processors: u32,
    /// Screen distribution scheme.
    pub distribution: Distribution,
    /// Per-node cache model.
    pub cache: CacheKind,
    /// Per-node texture bus bandwidth.
    pub bus: BusConfig,
    /// Triangle FIFO capacity per node.
    pub triangle_buffer: usize,
    /// Fragments the engine may run ahead of outstanding fills
    /// (`None` = unbounded).
    pub prefetch_window: Option<usize>,
    /// Minimum engine occupancy per routed triangle.
    pub setup_cycles: u64,
    /// Minimum cycles between consecutive triangles on the geometry bus
    /// (0 = the paper's ideal geometry stage). Models the Section 2.3
    /// communication cost the paper sets aside.
    pub geometry_cycles_per_triangle: u64,
    /// Optional SDRAM page-mode model for the texture memory (`None` = the
    /// paper's flat bandwidth bus).
    pub dram: Option<DramConfig>,
}

impl MachineConfig {
    /// Starts building a configuration.
    pub fn builder() -> MachineConfigBuilder {
        MachineConfigBuilder::default()
    }

    /// The single-processor reference machine used as the speedup baseline
    /// (same cache and bus as the default parallel machine).
    pub fn uniprocessor() -> MachineConfig {
        MachineConfig::builder()
            .processors(1)
            .build()
            .expect("defaults are valid")
    }

    /// A one-line summary for table headers.
    pub fn summary(&self) -> String {
        format!(
            "{}p/{}/{}/buf{}",
            self.processors,
            self.distribution.label(),
            self.cache,
            self.triangle_buffer
        )
    }

    /// True when `self` and `other` time every frame identically, so one
    /// timing walk serves both: they are equal, or both mount perfect
    /// caches and differ at most in bus, DRAM and prefetch window. A
    /// perfect cache never issues a fill, so the walk never reads those
    /// three, and no report column holds them.
    pub(crate) fn shares_timing(&self, other: &MachineConfig) -> bool {
        // Exhaustive on purpose: a new field must be placed on one side.
        let MachineConfig {
            processors,
            distribution,
            cache,
            bus: _,
            triangle_buffer,
            prefetch_window: _,
            setup_cycles,
            geometry_cycles_per_triangle,
            dram: _,
        } = self;
        self == other
            || (*cache == CacheKind::Perfect
                && other.cache == CacheKind::Perfect
                && *processors == other.processors
                && *distribution == other.distribution
                && *triangle_buffer == other.triangle_buffer
                && *setup_cycles == other.setup_cycles
                && *geometry_cycles_per_triangle == other.geometry_cycles_per_triangle)
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Builder for [`MachineConfig`].
#[derive(Debug, Clone)]
pub struct MachineConfigBuilder {
    processors: u32,
    distribution: Distribution,
    cache: CacheKind,
    /// The texel-per-cycle bus ratio as set, validated by `build`; `None`
    /// is an infinite bus.
    bus_ratio: Option<f64>,
    triangle_buffer: usize,
    prefetch_window: Option<usize>,
    setup_cycles: u64,
    geometry_cycles_per_triangle: u64,
    dram: Option<DramConfig>,
}

impl Default for MachineConfigBuilder {
    fn default() -> Self {
        MachineConfigBuilder {
            processors: 1,
            distribution: Distribution::block(16),
            cache: CacheKind::PaperL1,
            bus_ratio: Some(1.0),
            triangle_buffer: 10_000,
            prefetch_window: Some(32),
            setup_cycles: SETUP_CYCLES,
            geometry_cycles_per_triangle: 0,
            dram: None,
        }
    }
}

impl MachineConfigBuilder {
    /// Sets the node count.
    pub fn processors(&mut self, processors: u32) -> &mut Self {
        self.processors = processors;
        self
    }

    /// Sets the distribution scheme.
    pub fn distribution(&mut self, distribution: Distribution) -> &mut Self {
        self.distribution = distribution;
        self
    }

    /// Sets the cache model.
    pub fn cache(&mut self, cache: CacheKind) -> &mut Self {
        self.cache = cache;
        self
    }

    /// Sets the bus to a finite texel-per-cycle ratio; [`build`](Self::build)
    /// refuses one that is not positive and finite.
    pub fn bus_ratio(&mut self, texels_per_cycle: f64) -> &mut Self {
        self.bus_ratio = Some(texels_per_cycle);
        self
    }

    /// Sets an infinite-bandwidth bus (locality studies).
    pub fn infinite_bus(&mut self) -> &mut Self {
        self.bus_ratio = None;
        self
    }

    /// Sets the triangle FIFO capacity.
    pub fn triangle_buffer(&mut self, entries: usize) -> &mut Self {
        self.triangle_buffer = entries;
        self
    }

    /// Sets the prefetch window (`None` = unbounded run-ahead).
    pub fn prefetch_window(&mut self, window: Option<usize>) -> &mut Self {
        self.prefetch_window = window;
        self
    }

    /// Sets the per-triangle setup floor in cycles.
    pub fn setup_cycles(&mut self, cycles: u64) -> &mut Self {
        self.setup_cycles = cycles;
        self
    }

    /// Sets the minimum spacing of triangles on the geometry bus
    /// (0 = ideal geometry stage, the paper's assumption).
    pub fn geometry_cycles_per_triangle(&mut self, cycles: u64) -> &mut Self {
        self.geometry_cycles_per_triangle = cycles;
        self
    }

    /// Enables the SDRAM page-mode memory model.
    pub fn dram(&mut self, dram: Option<DramConfig>) -> &mut Self {
        self.dram = dram;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the processor count is outside
    /// `1..=MAX_PROCESSORS`, the bus ratio is not positive and finite, or
    /// the triangle buffer, the prefetch window or a victim buffer is
    /// empty.
    pub fn build(&self) -> Result<MachineConfig, ConfigError> {
        if self.processors == 0 || self.processors > MAX_PROCESSORS {
            return Err(ConfigError::BadProcessorCount {
                requested: self.processors,
            });
        }
        let bus = match self.bus_ratio {
            None => BusConfig::infinite(),
            Some(ratio) if ratio > 0.0 && ratio.is_finite() => BusConfig::ratio(ratio),
            Some(_) => return Err(ConfigError::BadBusRatio),
        };
        if self.triangle_buffer == 0 {
            return Err(ConfigError::EmptyTriangleBuffer);
        }
        if self.prefetch_window == Some(0) {
            return Err(ConfigError::EmptyPrefetchWindow);
        }
        if matches!(self.cache, CacheKind::Victim(_, 0)) {
            return Err(ConfigError::EmptyVictimBuffer);
        }
        Ok(MachineConfig {
            processors: self.processors,
            distribution: self.distribution.clone(),
            cache: self.cache,
            bus,
            triangle_buffer: self.triangle_buffer,
            prefetch_window: self.prefetch_window,
            setup_cycles: self.setup_cycles,
            geometry_cycles_per_triangle: self.geometry_cycles_per_triangle,
            dram: self.dram,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortmid_cache::LineCache;

    #[test]
    fn defaults_match_paper() {
        let c = MachineConfig::uniprocessor();
        assert_eq!(c.processors, 1);
        assert_eq!(c.triangle_buffer, 10_000);
        assert_eq!(c.setup_cycles, 25);
        assert!(matches!(c.cache, CacheKind::PaperL1));
        assert_eq!(c.bus.line_cost(), 16);
        assert_eq!(c.prefetch_window, Some(32));
    }

    #[test]
    fn builder_rejects_bad_counts() {
        assert!(matches!(
            MachineConfig::builder().processors(0).build(),
            Err(ConfigError::BadProcessorCount { requested: 0 })
        ));
        assert!(matches!(
            MachineConfig::builder().processors(500).build(),
            Err(ConfigError::BadProcessorCount { requested: 500 })
        ));
        assert!(matches!(
            MachineConfig::builder().triangle_buffer(0).build(),
            Err(ConfigError::EmptyTriangleBuffer)
        ));
    }

    #[test]
    fn builder_refuses_a_bad_bus_ratio() {
        for ratio in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                MachineConfig::builder().bus_ratio(ratio).build(),
                Err(ConfigError::BadBusRatio),
                "ratio {ratio}"
            );
        }
        let mut builder = MachineConfig::builder();
        builder.bus_ratio(0.0).infinite_bus();
        assert!(builder.build().unwrap().bus.is_infinite());
        assert_eq!(builder.bus_ratio(2.0).build().unwrap().bus, BusConfig::ratio(2.0));
    }

    #[test]
    fn builder_rejects_an_empty_prefetch_window() {
        assert_eq!(
            MachineConfig::builder().prefetch_window(Some(0)).build(),
            Err(ConfigError::EmptyPrefetchWindow)
        );
        assert!(MachineConfig::builder().prefetch_window(Some(1)).build().is_ok());
        assert!(MachineConfig::builder().prefetch_window(None).build().is_ok());
    }

    #[test]
    fn builder_rejects_an_empty_victim_buffer() {
        let g = CacheGeometry::paper_l1();
        assert_eq!(
            MachineConfig::builder().cache(CacheKind::Victim(g, 0)).build(),
            Err(ConfigError::EmptyVictimBuffer)
        );
        assert!(MachineConfig::builder().cache(CacheKind::Victim(g, 1)).build().is_ok());
    }

    fn every_kind() -> [CacheKind; 6] {
        [
            CacheKind::Perfect,
            CacheKind::PaperL1,
            CacheKind::SetAssoc(CacheGeometry::paper_l1()),
            CacheKind::Classifying(CacheGeometry::paper_l1()),
            CacheKind::TwoLevel(CacheGeometry::paper_l1(), CacheGeometry::paper_l2()),
            CacheKind::Victim(CacheGeometry::paper_l1(), 8),
        ]
    }

    #[test]
    fn cache_kinds_build() {
        for kind in every_kind() {
            let mut cache = kind.build_model();
            cache.access_line(1);
            assert_eq!(cache.stats().accesses(), 1, "{kind}");
        }
    }

    #[test]
    fn label_matches_built_model() {
        for kind in every_kind() {
            assert_eq!(kind.label(), kind.build_model().label(), "{kind}");
        }
    }

    #[test]
    fn summary_is_informative() {
        let c = MachineConfig::builder()
            .processors(64)
            .distribution(Distribution::sli(2))
            .triangle_buffer(500)
            .build()
            .unwrap();
        let s = c.summary();
        assert!(s.contains("64p"));
        assert!(s.contains("sli-2"));
        assert!(s.contains("buf500"));
    }

    #[test]
    fn error_display() {
        let e = ConfigError::BadProcessorCount { requested: 0 };
        assert!(e.to_string().contains("processor count 0"));
        assert!(ConfigError::EmptyTriangleBuffer.to_string().contains("at least one"));
        assert!(ConfigError::EmptyPrefetchWindow.to_string().contains("prefetch window"));
        assert!(ConfigError::EmptyVictimBuffer.to_string().contains("victim buffer"));
        assert!(ConfigError::BadBusRatio.to_string().contains("bus ratio"));
    }
}
