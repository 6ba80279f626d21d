//! A victim buffer behind the L1 — the era's cheap alternative to more
//! associativity.
//!
//! Jouppi-style: a small fully-associative buffer holds the last lines the
//! L1 evicted. An L1 miss that hits the victim buffer swaps the line back
//! without touching external memory. For texture streams the interesting
//! question is whether a handful of victim entries can stand in for going
//! 4-way — relevant to the cache-geometry ablation around the
//! Hakura-Gupta point.

use crate::geometry::CacheGeometry;
use crate::stats::CacheStats;
use crate::LineCache;

/// Sentinel tag meaning "slot is empty".
const EMPTY: u32 = u32::MAX;

/// A set-associative L1 plus a small fully-associative victim buffer.
///
/// `stats()` counts L1 behaviour; [`VictimCache::victim_hits`] counts
/// misses the buffer absorbed; [`LineCache::external_fetches`] counts only
/// true external fills.
///
/// # Examples
///
/// ```
/// use sortmid_cache::{CacheGeometry, LineCache, VictimCache};
///
/// let mut c = VictimCache::new(CacheGeometry::new(512, 1, 64)?, 4);
/// c.access_line(0);
/// c.access_line(8); // direct-mapped conflict: evicts 0 into the buffer
/// c.access_line(0); // L1 miss, victim hit: no external fetch
/// assert_eq!(c.victim_hits(), 1);
/// assert_eq!(c.external_fetches(), 2);
/// # Ok::<(), sortmid_cache::CacheGeometryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct VictimCache {
    geometry: CacheGeometry,
    /// `sets * ways` tags, each set's ways in recency order.
    tags: Vec<u32>,
    /// Victim slots in recency order (index 0 = most recent victim).
    victims: Vec<u32>,
    stats: CacheStats,
    victim_hits: u64,
    external: u64,
}

impl VictimCache {
    /// Creates the hierarchy: an L1 with `geometry` and a fully-associative
    /// buffer of `victim_slots` lines.
    ///
    /// # Panics
    ///
    /// Panics if `victim_slots` is zero.
    pub fn new(geometry: CacheGeometry, victim_slots: usize) -> Self {
        assert!(victim_slots > 0, "victim buffer needs at least one slot");
        VictimCache {
            geometry,
            tags: vec![EMPTY; (geometry.sets() * geometry.ways()) as usize],
            victims: vec![EMPTY; victim_slots],
            stats: CacheStats::new(),
            victim_hits: 0,
            external: 0,
        }
    }

    /// The L1 geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Misses the victim buffer absorbed.
    pub fn victim_hits(&self) -> u64 {
        self.victim_hits
    }

    /// Installs `line` as MRU of its set; returns the evicted line, if the
    /// way it displaced held one.
    fn install(&mut self, line: u32) -> Option<u32> {
        let ways = self.geometry.ways() as usize;
        let base = self.geometry.set_of(line) as usize * ways;
        let set = &mut self.tags[base..base + ways];
        let evicted = set[ways - 1];
        set.rotate_right(1);
        set[0] = line;
        (evicted != EMPTY).then_some(evicted)
    }

    /// Pushes an evicted line into the victim buffer (dropping its LRU).
    fn push_victim(&mut self, line: u32) {
        self.victims.rotate_right(1);
        self.victims[0] = line;
    }
}

impl LineCache for VictimCache {
    #[inline]
    fn access_line(&mut self, line: u32) -> bool {
        debug_assert_ne!(line, EMPTY);
        let ways = self.geometry.ways() as usize;
        let base = self.geometry.set_of(line) as usize * ways;
        let set = &mut self.tags[base..base + ways];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            set[..=pos].rotate_right(1);
            self.stats.record(true);
            return true;
        }
        // L1 miss: probe the victim buffer.
        self.stats.record(false);
        if let Some(pos) = self.victims.iter().position(|&t| t == line) {
            self.victim_hits += 1;
            self.victims.remove(pos);
            self.victims.push(EMPTY);
            if let Some(evicted) = self.install(line) {
                self.push_victim(evicted);
            }
        } else {
            self.external += 1;
            if let Some(evicted) = self.install(line) {
                self.push_victim(evicted);
            }
        }
        false
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn external_fetches(&self) -> u64 {
        self.external
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct-mapped 8-line L1 (512 B) + 4 victim slots.
    fn tiny() -> VictimCache {
        VictimCache::new(CacheGeometry::new(512, 1, 64).unwrap(), 4)
    }

    #[test]
    fn victim_absorbs_conflict_misses() {
        let mut c = tiny();
        // Lines 0 and 8 conflict in a direct-mapped 8-set cache.
        for _ in 0..10 {
            c.access_line(0);
            c.access_line(8);
        }
        // After warmup every L1 access misses, but the buffer serves them.
        assert_eq!(c.external_fetches(), 2, "only the two cold fills go out");
        assert!(c.victim_hits() >= 17, "victim hits: {}", c.victim_hits());
    }

    #[test]
    fn capacity_misses_still_go_external() {
        let mut c = tiny();
        // 32-line working set >> 8 L1 lines + 4 victims.
        for round in 0..3 {
            for line in 0..32 {
                c.access_line(line);
            }
            if round == 0 {
                assert_eq!(c.external_fetches(), 32);
            }
        }
        assert!(c.external_fetches() > 64, "thrash must keep fetching");
    }

    #[test]
    fn hits_do_not_touch_the_buffer() {
        let mut c = tiny();
        c.access_line(1);
        let v = c.victim_hits();
        for _ in 0..5 {
            assert!(c.access_line(1));
        }
        assert_eq!(c.victim_hits(), v);
        assert_eq!(c.external_fetches(), 1);
    }

    #[test]
    fn direct_mapped_plus_victims_approaches_two_way() {
        // The classic claim: DM + small victim buffer ~ 2-way, on a
        // conflict-heavy stream.
        use crate::set_assoc::SetAssocCache;
        let mut stream = Vec::new();
        let mut x = 7u32;
        for _ in 0..20_000 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            // two hot lines per set + occasional far line
            let line = match (x >> 8) % 10 {
                0..=4 => (x >> 16) % 2 * 8, // lines 0 / 8 (set 0)
                5..=8 => 1 + ((x >> 16) % 2) * 8, // lines 1 / 9 (set 1)
                _ => (x >> 16) % 64,
            };
            stream.push(line);
        }
        let mut dm_victim = tiny();
        let mut two_way = SetAssocCache::new(CacheGeometry::new(512, 2, 64).unwrap());
        for &l in &stream {
            dm_victim.access_line(l);
            two_way.access_line(l);
        }
        let dmv = dm_victim.external_fetches() as f64;
        let tw = two_way.stats().misses() as f64;
        assert!(
            dmv < tw * 1.5,
            "DM+victim external fetches {dmv} should approach 2-way misses {tw}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_victims_panics() {
        VictimCache::new(CacheGeometry::paper_l1(), 0);
    }
}
