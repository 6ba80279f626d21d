//! An optional second cache level between the L1 and texture memory.
//!
//! The paper's conclusion asks what an L2 (Cox et al.'s multi-level texture
//! caching) would buy in a multiprocessor configuration where each node's L2
//! only ever sees a fraction of the image. This model lets the ablation
//! benches answer that: external fetches are L2 misses, not L1 misses.

use crate::geometry::CacheGeometry;
use crate::set_assoc::SetAssocCache;
use crate::stats::CacheStats;
use crate::LineCache;

/// A two-level inclusive-fill cache hierarchy.
///
/// Every L1 miss probes the L2; only L2 misses fetch from external memory.
/// `stats()` reports L1 behaviour; [`TwoLevelCache::l2_stats`] reports the
/// second level, and [`LineCache::external_fetches`] reports L2 misses.
///
/// # Examples
///
/// ```
/// use sortmid_cache::{CacheGeometry, LineCache, TwoLevelCache};
///
/// let mut c = TwoLevelCache::new(CacheGeometry::paper_l1(), CacheGeometry::paper_l2());
/// c.access_line(9);
/// assert_eq!(c.external_fetches(), 1);
/// c.access_line(9);
/// assert_eq!(c.external_fetches(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TwoLevelCache {
    l1: SetAssocCache,
    l2: SetAssocCache,
}

impl TwoLevelCache {
    /// Creates the hierarchy from two geometries.
    pub fn new(l1: CacheGeometry, l2: CacheGeometry) -> Self {
        TwoLevelCache {
            l1: SetAssocCache::new(l1),
            l2: SetAssocCache::new(l2),
        }
    }

    /// L2 statistics (accesses = L1 misses).
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// L1 geometry.
    pub fn l1_geometry(&self) -> CacheGeometry {
        self.l1.geometry()
    }

    /// L2 geometry.
    pub fn l2_geometry(&self) -> CacheGeometry {
        self.l2.geometry()
    }
}

impl LineCache for TwoLevelCache {
    #[inline]
    fn access_line(&mut self, line: u32) -> bool {
        let hit = self.l1.access_line(line);
        if !hit {
            self.l2.access_line(line);
        }
        hit
    }

    fn stats(&self) -> &CacheStats {
        self.l1.stats()
    }

    fn external_fetches(&self) -> u64 {
        self.l2.stats().misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TwoLevelCache {
        TwoLevelCache::new(
            CacheGeometry::new(512, 2, 64).unwrap(),   // 8 lines
            CacheGeometry::new(4096, 4, 64).unwrap(), // 64 lines
        )
    }

    #[test]
    fn l2_filters_l1_capacity_misses() {
        let mut c = tiny();
        // 32-line working set: thrashes the 8-line L1 but fits the L2.
        for _ in 0..4 {
            for line in 0..32 {
                c.access_line(line);
            }
        }
        assert!(c.stats().misses() > 32, "L1 should thrash");
        assert_eq!(c.external_fetches(), 32, "L2 absorbs all reuse");
        assert_eq!(c.l2_stats().accesses(), c.stats().misses());
    }

    #[test]
    fn l1_hits_never_reach_l2() {
        let mut c = tiny();
        c.access_line(1);
        let l2_after_fill = c.l2_stats().accesses();
        c.access_line(1); // L1 hit
        assert_eq!(c.l2_stats().accesses(), l2_after_fill);
    }

    #[test]
    fn geometries_are_exposed() {
        let c = tiny();
        assert_eq!(c.l1_geometry().total_lines(), 8);
        assert_eq!(c.l2_geometry().total_lines(), 64);
    }
}
