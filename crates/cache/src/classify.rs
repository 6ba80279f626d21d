//! Compulsory / capacity / conflict miss classification.
//!
//! Classification follows the standard "three C" methodology:
//!
//! * **compulsory** — the line was never referenced before (misses in any
//!   cache);
//! * **capacity** — a fully-associative LRU cache with the same total number
//!   of lines would also miss;
//! * **conflict** — only the set-associative cache misses (associativity
//!   artefact).
//!
//! The multiprocessor locality loss the paper studies shows up as extra
//! *capacity + conflict* misses per node: each node touches the same number
//! of compulsory lines but reuses them less.

use crate::geometry::CacheGeometry;
use crate::set_assoc::{SetAssocCache, EMPTY};
use crate::stats::{CacheStats, MissBreakdown};
use crate::LineCache;
use sortmid_observe::{MissClass, MissClassCounts};
use std::collections::HashSet;

/// "No slot": the null link of the recency list.
const NIL: u32 = u32::MAX;

/// Odd multiplier of the oracle index's multiplicative (Fibonacci) hash.
const HASH_MUL: u32 = 0x9E37_79B9;

/// One resident line of the oracle and its recency-list links.
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u32,
    /// Next more recent slot (`NIL` at the head).
    prev: u32,
    /// Next less recent slot (`NIL` at the tail).
    next: u32,
}

/// One entry of the oracle's line → slot index (`line == EMPTY`: free).
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    line: u32,
    slot: u32,
}

const FREE: IndexEntry = IndexEntry {
    line: EMPTY,
    slot: NIL,
};

/// A fully-associative LRU cache used as the capacity-miss oracle.
///
/// An exact LRU over `capacity` slots: an intrusive move-to-front list
/// orders the slots by recency, and an open-addressing table maps each
/// resident line to its slot. The table is a power of two at least twice
/// the capacity, hashed multiplicatively and probed linearly, and deletes
/// by backward shift, so no tombstones build up. An access costs one
/// multiply and a short probe, O(1) expected; a hit on the most recent
/// line does no work at all. Memory is O(capacity) whatever the line ids.
///
/// A miss on a full oracle evicts the least recent line and reuses its
/// slot for the new one at the head: the same resident set as inserting
/// first and then evicting the least recent of `capacity + 1` lines.
#[derive(Debug, Clone)]
struct FullyAssocLru {
    /// Resident lines; `slots[..len]` are in use.
    slots: Vec<Slot>,
    len: u32,
    /// Most recent slot (`NIL` when empty).
    head: u32,
    /// Least recent slot (`NIL` when empty).
    tail: u32,
    /// Line → slot, linear probing; `index.len()` is a power of two.
    index: Vec<IndexEntry>,
    index_mask: u32,
    /// `32 - log2(index.len())`: the hash keeps the product's top bits.
    index_shift: u32,
}

impl FullyAssocLru {
    fn new(capacity_lines: usize) -> Self {
        assert!(capacity_lines > 0, "oracle needs at least one line");
        let capacity = u32::try_from(capacity_lines).expect("oracle capacity fits u32");
        // A miss briefly holds `capacity + 1` lines, and a probe run needs
        // a free entry to end on: four entries cover a one-line oracle.
        let index_len = (2 * capacity).next_power_of_two().max(4);
        FullyAssocLru {
            slots: vec![
                Slot {
                    line: EMPTY,
                    prev: NIL,
                    next: NIL
                };
                capacity_lines
            ],
            len: 0,
            head: NIL,
            tail: NIL,
            index: vec![FREE; index_len as usize],
            index_mask: index_len - 1,
            index_shift: 32 - index_len.trailing_zeros(),
        }
    }

    /// The index position `line` hashes to.
    #[inline(always)]
    fn home(&self, line: u32) -> u32 {
        line.wrapping_mul(HASH_MUL) >> self.index_shift
    }

    /// The index position holding `line`, or the free position that ends
    /// its probe run.
    #[inline(always)]
    fn find(&self, line: u32) -> u32 {
        let mut pos = self.home(line);
        loop {
            let entry = self.index[pos as usize];
            if entry.line == line || entry.line == EMPTY {
                return pos;
            }
            pos = (pos + 1) & self.index_mask;
        }
    }

    /// Frees index position `pos`, shifting later entries of the probe run
    /// back so every resident line stays reachable from its home.
    fn remove_at(&mut self, mut pos: u32) {
        let mask = self.index_mask;
        let mut next = (pos + 1) & mask;
        loop {
            let entry = self.index[next as usize];
            if entry.line == EMPTY {
                break;
            }
            // The entry may fill the hole unless its home lies cyclically
            // in (pos, next].
            let home = self.home(entry.line);
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(pos) & mask {
                self.index[pos as usize] = entry;
                pos = next;
            }
            next = (next + 1) & mask;
        }
        self.index[pos as usize] = FREE;
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        self.slots[slot as usize].prev = NIL;
        self.slots[slot as usize].next = old_head;
        match old_head {
            NIL => self.tail = slot,
            h => self.slots[h as usize].prev = slot,
        }
        self.head = slot;
    }

    /// Returns `true` on a hit.
    #[inline]
    fn access(&mut self, line: u32) -> bool {
        debug_assert_ne!(line, EMPTY, "line address clashes with the empty sentinel");
        if self.head != NIL && self.slots[self.head as usize].line == line {
            return true;
        }
        let pos = self.find(line);
        let entry = self.index[pos as usize];
        if entry.line == line {
            self.unlink(entry.slot);
            self.push_front(entry.slot);
            return true;
        }
        // Insert at the free position `find` stopped on, then evict the
        // least recent line, whose slot the new line takes; the backward
        // shift keeps the new line reachable.
        let full = self.len as usize == self.slots.len();
        let slot = if full { self.tail } else { self.len };
        self.index[pos as usize] = IndexEntry { line, slot };
        if full {
            self.remove_at(self.find(self.slots[slot as usize].line));
            self.unlink(slot);
        } else {
            self.len += 1;
        }
        self.slots[slot as usize].line = line;
        self.push_front(slot);
        false
    }
}

/// A set-associative cache that additionally classifies every miss.
///
/// Each access probes the set-associative cache and a fully-associative
/// LRU oracle of the same capacity: a move-to-front list over the
/// capacity's slots with an open-addressing line index, O(1) expected
/// per access. Only a set-associative miss consults the set of every
/// line ever missed, because a hit implies an earlier miss on the same
/// line, which already recorded it.
///
/// # Examples
///
/// ```
/// use sortmid_cache::{CacheGeometry, ClassifyingCache, LineCache};
///
/// let mut c = ClassifyingCache::new(CacheGeometry::paper_l1());
/// c.access_line(1);
/// c.access_line(1);
/// let b = c.breakdown();
/// assert_eq!(b.compulsory, 1);
/// assert_eq!(b.total(), c.stats().misses());
/// ```
#[derive(Debug, Clone)]
pub struct ClassifyingCache {
    inner: SetAssocCache,
    oracle: FullyAssocLru,
    /// Every line that has missed.
    seen: HashSet<u32>,
    breakdown: MissBreakdown,
}

impl ClassifyingCache {
    /// Creates a classifying cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        ClassifyingCache {
            inner: SetAssocCache::new(geometry),
            oracle: FullyAssocLru::new(geometry.total_lines() as usize),
            seen: HashSet::new(),
            breakdown: MissBreakdown::default(),
        }
    }

    /// The per-kind miss breakdown so far.
    pub fn breakdown(&self) -> MissBreakdown {
        self.breakdown
    }

    /// The underlying geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.inner.geometry()
    }

    /// Classifies and counts a set-associative miss on `line`, given the
    /// oracle's verdict on the same access.
    #[inline]
    fn classify_miss(&mut self, line: u32, oracle_hit: bool) -> MissClass {
        let (class, count) = if self.seen.insert(line) {
            (MissClass::Compulsory, &mut self.breakdown.compulsory)
        } else if !oracle_hit {
            (MissClass::Capacity, &mut self.breakdown.capacity)
        } else {
            (MissClass::Conflict, &mut self.breakdown.conflict)
        };
        *count += 1;
        class
    }
}

impl LineCache for ClassifyingCache {
    fn access_line(&mut self, line: u32) -> bool {
        self.access_line_classified(line).0
    }

    fn access_line_classified(&mut self, line: u32) -> (bool, Option<MissClass>) {
        let hit = self.inner.access_line(line);
        let oracle_hit = self.oracle.access(line);
        if hit {
            return (true, None);
        }
        (false, Some(self.classify_miss(line, oracle_hit)))
    }

    /// Batched classified probe. Consecutive duplicate lines are skipped:
    /// the repeat is a guaranteed MRU hit in the set-associative inner
    /// cache *and* in the fully-associative oracle, and a hit carries no
    /// class, so skipping changes no state. The rest go through the inner
    /// cache's MRU-first `probe_insert` core, and the inner statistics
    /// are recorded in bulk, keeping reports byte-identical to the scalar
    /// loop.
    #[inline]
    fn access_lane(
        &mut self,
        lane: &[u32],
        miss_out: &mut [u32],
        classes: &mut MissClassCounts,
    ) -> usize {
        let mut misses = 0;
        let mut prev = EMPTY;
        for &line in lane {
            // Unlike the set-associative lane, this one keeps its run
            // collapse: a repeat would also probe the capacity oracle.
            // Replaying the benchmark scenes' per-node lanes on a 2-vCPU
            // Xeon, a lane took 43–52 ns with the collapse and 75–87 ns
            // without; the `cache/classifying_16k_4way_lane` primitives
            // row read 4.8–7.0 ms against 6.5–8.7 ms (110 k lanes, five
            // alternating runs).
            if line == prev {
                continue;
            }
            prev = line;
            let hit = self.inner.probe_insert(line);
            let oracle_hit = self.oracle.access(line);
            if !hit {
                miss_out[misses] = line;
                misses += 1;
                classes.add(self.classify_miss(line, oracle_hit));
            }
        }
        self.inner
            .record_lane((lane.len() - misses) as u64, misses as u64);
        misses
    }

    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    fn breakdown(&self) -> Option<MissBreakdown> {
        Some(self.breakdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortmid_devharness::prop::{check, Config, Gen};
    use sortmid_devharness::prop_assert;

    fn tiny() -> ClassifyingCache {
        // 4 sets x 2 ways = 8 lines.
        ClassifyingCache::new(CacheGeometry::new(512, 2, 64).unwrap())
    }

    #[test]
    fn first_touch_is_compulsory() {
        let mut c = tiny();
        for line in 0..5 {
            c.access_line(line);
        }
        let b = c.breakdown();
        assert_eq!(b.compulsory, 5);
        assert_eq!(b.capacity, 0);
        assert_eq!(b.conflict, 0);
    }

    #[test]
    fn conflict_misses_when_set_thrashes_within_capacity() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (2 ways) but total footprint (3)
        // fits the 8-line capacity: re-misses are conflict misses.
        for _ in 0..4 {
            for line in [0, 4, 8] {
                c.access_line(line);
            }
        }
        let b = c.breakdown();
        assert_eq!(b.compulsory, 3);
        assert_eq!(b.capacity, 0);
        assert!(b.conflict > 0, "expected conflict misses: {b}");
        assert_eq!(b.total(), c.stats().misses());
    }

    #[test]
    fn capacity_misses_when_working_set_exceeds_cache() {
        let mut c = tiny();
        // 16 lines cycled > 8-line capacity: fully-assoc LRU also misses.
        for _ in 0..3 {
            for line in 0..16 {
                c.access_line(line);
            }
        }
        let b = c.breakdown();
        assert_eq!(b.compulsory, 16);
        assert!(b.capacity > 0, "expected capacity misses: {b}");
        assert_eq!(b.total(), c.stats().misses());
    }

    #[test]
    fn breakdown_always_partitions_misses() {
        let mut c = tiny();
        // Pseudo-random-ish walk.
        let mut x = 1u32;
        for _ in 0..500 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            c.access_line((x >> 16) % 24);
        }
        assert_eq!(c.breakdown().total(), c.stats().misses());
    }

    #[test]
    fn classified_access_matches_breakdown_counters() {
        let mut c = tiny();
        let mut counted = MissBreakdown::default();
        let mut x = 1u32;
        for _ in 0..500 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            let (hit, class) = c.access_line_classified((x >> 16) % 24);
            assert_eq!(hit, class.is_none(), "hits carry no class");
            match class {
                Some(MissClass::Compulsory) => counted.compulsory += 1,
                Some(MissClass::Capacity) => counted.capacity += 1,
                Some(MissClass::Conflict) => counted.conflict += 1,
                None => {}
            }
        }
        assert_eq!(counted, c.breakdown());
        assert!(c.breakdown().verify(c.stats().misses()).is_ok());
    }

    /// The textbook LRU: a `Vec` in recency order, most recent first.
    struct NaiveLru {
        capacity: usize,
        lines: Vec<u32>,
    }

    impl NaiveLru {
        fn new(capacity: usize) -> Self {
            NaiveLru {
                capacity,
                lines: Vec::new(),
            }
        }

        fn access(&mut self, line: u32) -> bool {
            let hit = match self.lines.iter().position(|&l| l == line) {
                Some(pos) => {
                    self.lines.remove(pos);
                    true
                }
                None => false,
            };
            self.lines.insert(0, line);
            self.lines.truncate(self.capacity);
            hit
        }
    }

    /// The three-C classifier spelled out: the set-associative cache, a
    /// [`NaiveLru`] of the same capacity and a set of every line touched.
    struct NaiveClassifier {
        inner: SetAssocCache,
        oracle: NaiveLru,
        seen: HashSet<u32>,
        breakdown: MissBreakdown,
    }

    impl NaiveClassifier {
        fn new(geometry: CacheGeometry) -> Self {
            NaiveClassifier {
                inner: SetAssocCache::new(geometry),
                oracle: NaiveLru::new(geometry.total_lines() as usize),
                seen: HashSet::new(),
                breakdown: MissBreakdown::default(),
            }
        }

        fn access(&mut self, line: u32) -> Option<MissClass> {
            let hit = self.inner.access_line(line);
            let oracle_hit = self.oracle.access(line);
            let first = self.seen.insert(line);
            let (class, count) = match (hit, first, oracle_hit) {
                (true, _, _) => return None,
                (false, true, _) => (MissClass::Compulsory, &mut self.breakdown.compulsory),
                (false, false, false) => (MissClass::Capacity, &mut self.breakdown.capacity),
                (false, false, true) => (MissClass::Conflict, &mut self.breakdown.conflict),
            };
            *count += 1;
            Some(class)
        }
    }

    /// `count` distinct line ids of one adversarial `kind` for an oracle of
    /// `capacity` lines:
    ///
    /// 0. dense ids `0, 1, 2, ...`;
    /// 1. ids whose index home is the last position, the first or the
    ///    second, in turn, so probe runs collide and wrap around;
    /// 2. multiples of 2^20 interleaved with ids counting down from
    ///    `u32::MAX - 1`.
    fn keys(kind: usize, capacity: usize, count: usize) -> Vec<u32> {
        let oracle = FullyAssocLru::new(capacity);
        // The hash multiplier's inverse mod 2^32, by Newton iteration.
        let mut inverse = HASH_MUL;
        for _ in 0..5 {
            inverse = inverse.wrapping_mul(2u32.wrapping_sub(HASH_MUL.wrapping_mul(inverse)));
        }
        assert_eq!(HASH_MUL.wrapping_mul(inverse), 1);
        let key = |i: usize| -> u32 {
            let i = i as u32;
            match kind {
                0 => i,
                1 => {
                    let home = [oracle.index_mask, 0, 1][(i % 3) as usize];
                    let line = ((home << oracle.index_shift) | (i / 3)).wrapping_mul(inverse);
                    debug_assert_eq!(oracle.home(line), home);
                    line
                }
                _ if i.is_multiple_of(2) => (i / 2) << 20,
                _ => u32::MAX - 1 - i / 2,
            }
        };
        (0..).map(key).filter(|&k| k != EMPTY).take(count).collect()
    }

    /// Two access phases back to back. Each phase walks a pool of keys
    /// that either fits the capacity or exceeds it, cyclically (the LRU
    /// thrash) or at random.
    fn walk(g: &mut Gen, capacity: usize) -> Vec<u32> {
        let kind = g.choice(3);
        let phase = |g: &mut Gen| -> Vec<u32> {
            let pool_len = if g.bool() {
                g.usize_in(capacity + 1..capacity + capacity / 2 + 3)
            } else {
                g.usize_in(1..capacity + 1)
            };
            let pool = keys(kind, capacity, pool_len);
            let len = g.usize_in(pool_len..3 * pool_len + 8);
            if g.bool() {
                (0..len).map(|_| pool[g.usize_in(0..pool_len)]).collect()
            } else {
                (0..len).map(|i| pool[i % pool_len]).collect()
            }
        };
        let mut seq = phase(g);
        seq.extend(phase(g));
        seq
    }

    /// The oracle agrees with the textbook LRU on every access's hit or
    /// miss, across capacities that are and are not powers of two, on
    /// fitting and thrashing walks over colliding keys.
    #[test]
    fn prop_oracle_matches_naive_lru() {
        for capacity in [1, 2, 3, 5, 256, 4096] {
            check(
                &format!("oracle_matches_naive_lru/{capacity}"),
                &Config::with_cases(16),
                |g| walk(g, capacity),
                |seq| {
                    let mut oracle = FullyAssocLru::new(capacity);
                    let mut naive = NaiveLru::new(capacity);
                    for (i, &line) in seq.iter().enumerate() {
                        let (got, want) = (oracle.access(line), naive.access(line));
                        prop_assert!(
                            got == want,
                            "access {i} (line {line}): hit {got}, LRU says {want}"
                        );
                    }
                    Ok(())
                },
            );
        }
    }

    /// `ClassifyingCache` classifies every miss as the naive classifier
    /// does, through both the scalar and the lane probe.
    #[test]
    fn prop_breakdown_matches_naive_classifier() {
        for geometry in [
            CacheGeometry::new(256, 1, 64).unwrap(),
            CacheGeometry::new(512, 2, 64).unwrap(),
            CacheGeometry::new(1024, 4, 64).unwrap(),
            CacheGeometry::paper_l1(),
        ] {
            check(
                &format!(
                    "breakdown_matches_naive_classifier/{}x{}",
                    geometry.sets(),
                    geometry.ways()
                ),
                &Config::with_cases(16),
                |g| (walk(g, geometry.total_lines() as usize), g.bool()),
                |(seq, lanes)| {
                    let mut cache = ClassifyingCache::new(geometry);
                    let mut naive = NaiveClassifier::new(geometry);
                    if !*lanes {
                        for &line in seq {
                            let (hit, got) = cache.access_line_classified(line);
                            let want = naive.access(line);
                            prop_assert!(hit == want.is_none() && got == want, "line {line}");
                        }
                    } else {
                        // Footprint-sized lanes in which every other
                        // probe repeats, as trilinear footprints do.
                        let doubled: Vec<u32> = seq
                            .iter()
                            .enumerate()
                            .flat_map(|(i, &line)| [line].repeat(1 + i % 2))
                            .collect();
                        for lane in doubled.chunks(8) {
                            let mut miss_out = [0u32; 8];
                            let mut classes = MissClassCounts::default();
                            let n = cache.access_lane(lane, &mut miss_out, &mut classes);
                            let mut want = Vec::new();
                            let mut want_classes = MissClassCounts::default();
                            for &line in lane {
                                if let Some(class) = naive.access(line) {
                                    want.push(line);
                                    want_classes.add(class);
                                }
                            }
                            prop_assert!(miss_out[..n] == want[..], "lane {lane:?}");
                            prop_assert!(classes == want_classes, "lane {lane:?}");
                        }
                    }
                    prop_assert!(cache.stats() == naive.inner.stats());
                    prop_assert!(cache.breakdown() == naive.breakdown);
                    Ok(())
                },
            );
        }
    }
}
