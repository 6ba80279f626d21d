//! The paper's "perfect cache": every access hits.
//!
//! > "In this paper, a perfect cache is a cache that always hit. We do not
//! > take into account the compulsory misses."
//!
//! Used by the load-balancing study (Figure 5) to isolate pixel-distribution
//! effects from memory behaviour.

use crate::stats::CacheStats;
use crate::LineCache;
use sortmid_observe::MissClassCounts;

/// A cache model that always hits and never touches external memory.
///
/// # Examples
///
/// ```
/// use sortmid_cache::{LineCache, PerfectCache};
///
/// let mut c = PerfectCache::new();
/// assert!(c.access_line(12345));
/// assert_eq!(c.stats().misses(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PerfectCache {
    stats: CacheStats,
}

impl PerfectCache {
    /// Creates a perfect cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` probes, all hits, without naming their lines: a
    /// perfect cache's outcome never depends on what it is asked for.
    #[inline]
    pub fn record_hits(&mut self, n: u64) {
        self.stats.record_hits(n);
    }
}

impl LineCache for PerfectCache {
    #[inline]
    fn access_line(&mut self, _line: u32) -> bool {
        self.stats.record(true);
        true
    }

    /// A whole lane of always-hits collapses to one counter bump.
    #[inline]
    fn access_lane(
        &mut self,
        lane: &[u32],
        _miss_out: &mut [u32],
        _classes: &mut MissClassCounts,
    ) -> usize {
        self.stats.record_hits(lane.len() as u64);
        0
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_hits() {
        let mut c = PerfectCache::new();
        for line in [0, 1, 1, 99, u32::MAX - 1] {
            assert!(c.access_line(line));
        }
        assert_eq!(c.stats().accesses(), 5);
        assert_eq!(c.stats().misses(), 0);
        assert_eq!(c.external_fetches(), 0);
    }
}
