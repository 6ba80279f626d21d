//! The set-associative LRU cache simulators, with whole and growing tags.

use crate::geometry::CacheGeometry;
use crate::stats::CacheStats;
use crate::LineCache;
use sortmid_observe::MissClassCounts;

/// Sentinel tag meaning "way is empty".
pub(crate) const EMPTY: u32 = u32::MAX;

/// A set-associative cache with true-LRU replacement, simulated at line
/// granularity.
///
/// Ways of a set are stored in recency order (index 0 = most recent), so a
/// hit is a short scan plus a rotate — fast for the small associativities
/// texture caches use.
///
/// # Examples
///
/// ```
/// use sortmid_cache::{CacheGeometry, LineCache, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheGeometry::paper_l1());
/// c.access_line(7);
/// assert!(c.access_line(7));
/// assert_eq!(c.stats().hits(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    /// `sets() - 1`, precomputed: the per-access set lookup must not pay
    /// the division hiding inside [`CacheGeometry::sets`].
    set_mask: u32,
    /// `geometry.ways()`, precomputed for the same reason.
    ways: usize,
    /// `sets * ways` tags, each set's ways contiguous in recency order.
    tags: Vec<u32>,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        SetAssocCache {
            geometry,
            set_mask: geometry.sets() - 1,
            ways: geometry.ways() as usize,
            tags: vec![EMPTY; (geometry.sets() * geometry.ways()) as usize],
            stats: CacheStats::new(),
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// True when `line` is currently resident (does not update LRU or
    /// statistics).
    pub fn probe(&self, line: u32) -> bool {
        debug_assert_ne!(line, EMPTY, "line address clashes with the empty sentinel");
        let ways = self.geometry.ways() as usize;
        let base = self.geometry.set_of(line) as usize * ways;
        self.tags[base..base + ways].contains(&line)
    }

    /// Number of resident lines (for tests; O(capacity)).
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    /// Probe-and-update core shared by the batched path: looks `line` up
    /// MRU way first, applies the LRU update, and returns `true` on a hit
    /// — **without** touching statistics, which the caller records in
    /// bulk.
    ///
    /// The update shifts the ways in front of the hit (every way, on a
    /// miss) back one and puts `line` in front: exactly the scalar path's
    /// hit-rotate / miss-evict pair, so eviction order stays identical.
    #[inline(always)]
    pub(crate) fn probe_insert(&mut self, line: u32) -> bool {
        debug_assert_ne!(line, EMPTY, "line address clashes with the empty sentinel");
        let ways = self.ways;
        let base = (line & self.set_mask) as usize * ways;
        let set = &mut self.tags[base..base + ways];
        if set[0] == line {
            return true; // MRU hit: no reordering needed.
        }
        if let Ok(set) = <&mut [u32; 4]>::try_from(&mut *set) {
            // The ubiquitous 4-way set: a compare chain and fixed stores.
            let hit = if set[1] == line {
                true
            } else if set[2] == line {
                set[2] = set[1];
                true
            } else {
                let hit = set[3] == line;
                (set[3], set[2]) = (set[2], set[1]);
                hit
            };
            (set[1], set[0]) = (set[0], line);
            return hit;
        }
        let (hit, k) = match set.iter().position(|&t| t == line) {
            Some(pos) => (true, pos),
            None => (false, ways - 1),
        };
        set.copy_within(0..k, 1);
        set[0] = line;
        hit
    }

    /// Bulk-records a lane's hits and misses, for callers that resolved
    /// it through [`probe_insert`](Self::probe_insert). Exposed to
    /// [`ClassifyingCache`](crate::ClassifyingCache), whose batched path
    /// owns this cache privately.
    #[inline]
    pub(crate) fn record_lane(&mut self, hits: u64, misses: u64) {
        self.stats.record_hits(hits);
        self.stats.record_misses(misses);
    }
}

impl LineCache for SetAssocCache {
    #[inline]
    fn access_line(&mut self, line: u32) -> bool {
        debug_assert_ne!(line, EMPTY, "line address clashes with the empty sentinel");
        let ways = self.ways;
        let base = (line & self.set_mask) as usize * ways;
        let set = &mut self.tags[base..base + ways];
        let hit = match set.iter().position(|&t| t == line) {
            Some(pos) => {
                // Move to front (most recently used); hits on the MRU way
                // — the common case under texture locality — skip the
                // rotate entirely.
                if pos != 0 {
                    set[..=pos].rotate_right(1);
                }
                true
            }
            None => {
                // Evict LRU (the last slot) by shifting everything down.
                set.rotate_right(1);
                set[0] = line;
                false
            }
        };
        self.stats.record(hit);
        hit
    }

    /// Batched footprint probe: every line goes through the MRU-first
    /// `probe_insert` core, and statistics are recorded in bulk; the
    /// result is byte-identical to the scalar loop. A line equal to the
    /// one before it is already its set's MRU way, so the core's first
    /// compare hits it with no state change — cheaper than a branch that
    /// skips repeats, which mispredicts on real footprints.
    #[inline]
    fn access_lane(
        &mut self,
        lane: &[u32],
        miss_out: &mut [u32],
        _classes: &mut MissClassCounts,
    ) -> usize {
        let mut misses = 0;
        for &line in lane {
            if !self.probe_insert(line) {
                miss_out[misses] = line;
                misses += 1;
            }
        }
        self.record_lane((lane.len() - misses) as u64, misses as u64);
        misses
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset(&mut self) {
        self.tags.fill(EMPTY);
        self.stats.reset();
    }
}

/// The most tags (one 4 KiB page) [`AnyCache::set_assoc`](crate::AnyCache::set_assoc)
/// keeps in a whole-array [`SetAssocCache`].
pub(crate) const EAGER_TAGS: usize = 1024;

/// A [`SetAssocCache`] whose tag store grows with its footprint: it holds
/// the sets up to the highest one touched (rounded up to a power of two),
/// each with as many ways as the fullest set has needed. A 4 MB cache over
/// a few hundred lines costs kilobytes instead of 256 KiB, with the same
/// hits, misses and evictions. Growing costs a check on every access, so
/// small caches keep their whole array.
#[derive(Debug, Clone)]
pub struct GrowingSetAssocCache {
    set_mask: u32,
    ways: usize,
    /// Ways stored per set: 1 at first, doubled (up to `ways`) when a miss
    /// finds every stored way of its set taken.
    held: usize,
    /// The lowest `tags.len() / held` sets, `held` tags each in recency
    /// order, vacant ways [`EMPTY`] last.
    tags: Vec<u32>,
    stats: CacheStats,
}

impl GrowingSetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        GrowingSetAssocCache {
            set_mask: geometry.sets() - 1,
            ways: geometry.ways() as usize,
            held: 1,
            tags: Vec::new(),
            stats: CacheStats::new(),
        }
    }
}

impl LineCache for GrowingSetAssocCache {
    fn access_line(&mut self, line: u32) -> bool {
        debug_assert_ne!(line, EMPTY, "line address clashes with the empty sentinel");
        let held = self.held;
        let base = (line & self.set_mask) as usize * held;
        if base >= self.tags.len() {
            let sets = (base / held + 1).next_power_of_two();
            self.tags.resize(sets * held, EMPTY);
        }
        let set = &self.tags[base..base + held];
        let (hit, k) = match set.iter().position(|&t| t == line) {
            Some(pos) => (true, pos),
            // Every stored way taken and room for more: every set doubles.
            None if held < self.ways && set[held - 1] != EMPTY => (false, held),
            None => (false, held - 1),
        };
        if k == held {
            self.held = (held * 2).min(self.ways);
            let mut tags = vec![EMPTY; self.tags.len() / held * self.held];
            for (new, old) in tags.chunks_exact_mut(self.held).zip(self.tags.chunks_exact(held)) {
                new[..held].copy_from_slice(old);
            }
            self.tags = tags;
        }
        let base = (line & self.set_mask) as usize * self.held;
        let set = &mut self.tags[base..base + self.held];
        set.copy_within(0..k, 1);
        set[0] = line;
        self.stats.record(hit);
        hit
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset(&mut self) {
        self.tags.fill(EMPTY);
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CacheGeometry;
    use sortmid_devharness::prop::{check, Config};
    use sortmid_devharness::prop_assert;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways x 64B lines = 512B.
        SetAssocCache::new(CacheGeometry::new(512, 2, 64).unwrap())
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access_line(0));
        assert!(c.access_line(0));
        assert_eq!(c.stats().accesses(), 2);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(); // set 0 holds lines {0, 4, 8, ...} with 2 ways
        c.access_line(0);
        c.access_line(4); // set 0 now [4, 0]
        c.access_line(0); // touch 0 -> [0, 4]
        c.access_line(8); // evicts 4 -> [8, 0]
        assert!(c.probe(0));
        assert!(c.probe(8));
        assert!(!c.probe(4));
        assert!(c.access_line(0), "0 must have survived");
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        // Fill set 0 far beyond capacity; set 1 must be untouched.
        for i in 0..16 {
            c.access_line(i * 4);
        }
        c.access_line(1);
        assert!(c.probe(1));
        assert!(c.access_line(1));
    }

    #[test]
    fn reset_clears_contents_and_stats() {
        let mut c = tiny();
        c.access_line(3);
        c.reset();
        assert_eq!(c.stats().accesses(), 0);
        assert!(!c.probe(3));
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn working_set_within_capacity_never_remisses() {
        // 256-line paper cache: a 64-line working set maps 1 line per set.
        let mut c = SetAssocCache::new(CacheGeometry::paper_l1());
        for round in 0..4 {
            for line in 0..64 {
                let hit = c.access_line(line);
                assert_eq!(hit, round > 0, "round {round} line {line}");
            }
        }
    }

    #[test]
    fn thrashing_set_always_misses() {
        let mut c = tiny(); // 2 ways
        // Three lines in one set, round-robin: classic LRU thrash.
        for _ in 0..10 {
            for line in [0, 4, 8] {
                c.access_line(line);
            }
        }
        // After warmup every access misses.
        let before = c.stats().misses();
        for line in [0, 4, 8] {
            assert!(!c.access_line(line));
        }
        assert_eq!(c.stats().misses(), before + 3);
    }

    /// Residency never exceeds capacity and a just-accessed line is
    /// always resident.
    #[test]
    fn prop_capacity_and_mru() {
        check(
            "capacity_and_mru",
            &Config::default(),
            |g| g.vec(1..200, |g| g.u32_in(0..64)),
            |lines| {
                let mut c = tiny();
                for &l in lines {
                    c.access_line(l);
                    prop_assert!(c.probe(l));
                    prop_assert!(c.resident_lines() <= 8);
                }
                Ok(())
            },
        );
    }

    /// The batched lane probe leaves the cache in exactly the state the
    /// scalar loop would: same stats, same miss lines, same residency and
    /// eviction order.
    #[test]
    fn prop_access_lane_equals_scalar_loop() {
        check(
            "access_lane_equals_scalar_loop",
            &Config::default(),
            |g| {
                g.vec(1..40, |g| {
                    let len = g.usize_in(1..9);
                    // Small line space with explicit runs of duplicates.
                    let mut lane = Vec::with_capacity(len);
                    let mut cur = g.u32_in(0..48);
                    for _ in 0..len {
                        if g.bool() {
                            cur = g.u32_in(0..48);
                        }
                        lane.push(cur);
                    }
                    lane
                })
            },
            |lanes| {
                for geometry in [
                    CacheGeometry::new(512, 2, 64).unwrap(),
                    CacheGeometry::paper_l1(), // 4-way: fixed-width path
                ] {
                    let mut batched = SetAssocCache::new(geometry);
                    let mut scalar = SetAssocCache::new(geometry);
                    for lane in lanes {
                        let mut miss_out = [0u32; 16];
                        let mut classes = MissClassCounts::default();
                        let n = batched.access_lane(lane, &mut miss_out, &mut classes);
                        let mut expect = Vec::new();
                        for &line in lane {
                            if !scalar.access_line(line) {
                                expect.push(line);
                            }
                        }
                        prop_assert!(
                            miss_out[..n] == expect[..],
                            "miss lines diverge: {:?} vs {expect:?}",
                            &miss_out[..n]
                        );
                        prop_assert!(classes == MissClassCounts::default());
                    }
                    prop_assert!(batched.stats() == scalar.stats());
                    prop_assert!(batched.tags == scalar.tags, "residency/eviction diverged");
                }
                Ok(())
            },
        );
    }

    /// Every access hits or misses as one LRU list of `ways` lines per set
    /// says, through the scalar and the batched probe of both models,
    /// whichever sets and ways a growing store holds so far.
    #[test]
    fn prop_models_match_per_set_lru_lists() {
        check(
            "models_match_per_set_lru_lists",
            &Config::default(),
            |g| {
                // The lines crowd a few sets past every associativity
                // drawn, and a drawn top set only after the others have
                // filled.
                let sets = 1u32 << g.usize_in(0..9);
                let ways = 1u32 << g.usize_in(0..6);
                let top = g.u32_in(0..sets);
                let mut lines = g.vec(1..300, |g| {
                    g.u32_in(0..48) * sets + [0, 1.min(top), top / 2][g.usize_in(0..3)]
                });
                lines.extend(g.vec(0..100, |g| g.u32_in(0..48) * sets + [0, top][g.usize_in(0..2)]));
                (sets, ways, lines)
            },
            |(sets, ways, lines)| {
                let geometry = CacheGeometry::new(sets * ways * 64, *ways, 64).unwrap();
                let mut models: [Box<dyn LineCache>; 4] = [
                    Box::new(SetAssocCache::new(geometry)),
                    Box::new(SetAssocCache::new(geometry)),
                    Box::new(GrowingSetAssocCache::new(geometry)),
                    Box::new(GrowingSetAssocCache::new(geometry)),
                ];
                let mut lists = vec![Vec::new(); *sets as usize];
                for &line in lines {
                    let list: &mut Vec<u32> = &mut lists[(line % sets) as usize];
                    let hit = match list.iter().position(|&l| l == line) {
                        Some(pos) => {
                            list.remove(pos);
                            true
                        }
                        None => {
                            list.truncate(*ways as usize - 1);
                            false
                        }
                    };
                    list.insert(0, line);
                    for (m, model) in models.iter_mut().enumerate() {
                        let got = if m % 2 == 0 {
                            model.access_line(line)
                        } else {
                            let mut miss_out = [0u32; 1];
                            let mut classes = MissClassCounts::default();
                            model.access_lane(&[line], &mut miss_out, &mut classes) == 0
                        };
                        prop_assert!(got == hit, "model {m}, line {line}: hit should be {hit}");
                    }
                }
                for model in &models {
                    prop_assert!(model.stats() == models[0].stats());
                }
                Ok(())
            },
        );
    }

    /// A growing cache far larger than its footprint stores only the sets
    /// and ways the footprint reaches.
    #[test]
    fn growing_store_follows_the_footprint() {
        // 4 MB, 16-way: 4096 sets.
        let mut c = GrowingSetAssocCache::new(CacheGeometry::new(4 << 20, 16, 64).unwrap());
        for line in 0..100 {
            c.access_line(line);
        }
        assert_eq!(c.tags.len(), 128, "100 sets of one way each");
        c.access_line(99 + 4096); // shares set 99 with line 99
        assert_eq!(c.tags.len(), 256, "every set now stores two ways");
        for line in 0..100 {
            assert!(c.access_line(line), "line {line} must have survived");
        }
        assert!(c.tags.contains(&(99 + 4096)));
        assert_eq!(c.tags.iter().filter(|&&t| t != EMPTY).count(), 101);
    }

    /// The W most recent distinct lines of one set are all resident
    /// (true-LRU inclusion property).
    #[test]
    fn prop_lru_inclusion() {
        check(
            "lru_inclusion",
            &Config::default(),
            |g| g.vec(1..100, |g| g.u32_in(0..6)),
            |seq| {
                let mut c = tiny(); // 2 ways
                // Map everything into set 0 so recency is the only factor.
                let seq: Vec<u32> = seq.iter().map(|&x| x * 4).collect();
                for (i, &l) in seq.iter().enumerate() {
                    c.access_line(l);
                    // Find the last 2 distinct lines ending at i.
                    let mut distinct = Vec::new();
                    for &p in seq[..=i].iter().rev() {
                        if !distinct.contains(&p) {
                            distinct.push(p);
                        }
                        if distinct.len() == 2 {
                            break;
                        }
                    }
                    for &d in &distinct {
                        prop_assert!(c.probe(d), "line {d} should be resident after step {i}");
                    }
                }
                Ok(())
            },
        );
    }
}
