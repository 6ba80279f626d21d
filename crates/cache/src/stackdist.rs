//! Mattson stack-distance evaluation: one walk of a node's accesses prices
//! every set-associative geometry of a sweep grid at once.
//!
//! For a true-LRU cache, whether an access hits depends only on its
//! *set-relative stack distance* — the number of distinct lines mapping to
//! the same set that were touched since the previous access to this line.
//! With bit-selection indexing the sets of a `2^k`-set cache are refinements
//! of the sets of a `2^j`-set cache for `j < k`, so one walk of a global
//! recency stack yields the distance for **every** power-of-two set count
//! simultaneously: each distinct line `v` above the target contributes to
//! set count `2^k` exactly when the low `k` bits of `v` match the target,
//! i.e. when `trailing_zeros(v ^ line) >= k`. Bucketing the walk by that
//! trailing-zero count and suffix-summing gives the whole distance vector.
//!
//! An access to a `(sets = 2^k, ways = W)` cache then hits iff it is not
//! the line's first touch and its distance at `k` is `< W` — which is how
//! a single pass fills a [`MattsonProfile`] (distance histograms per set
//! count) plus, for each requested geometry, exact per-fragment miss
//! counts, an eviction estimate and the three-C decomposition matching
//! [`ClassifyingCache`](crate::ClassifyingCache).
//!
//! # Cost
//!
//! Each access costs its walk plus its misses, never a pass over the
//! grid. The requests are grouped by set count, ascending by ways, so a
//! warm access at distance `d` at `2^k` sets misses exactly a prefix of
//! its group (`ways <= d`). Distances never grow with `k`, so an access's
//! work ends at the first set count where its distance is 0; head hits
//! (about half of all accesses on texture traces) and those zero tails
//! are counted once per node and added to the histograms when the
//! profile is read. A first touch misses everywhere and is recorded once
//! per node.
//!
//! # Windows
//!
//! A [`MattsonWalk`] is resumable: each node's recency stack, histograms,
//! cold lines and per-geometry counters persist from one
//! [`walk`](MattsonWalk::walk) to the next, so a frame walked one window
//! at a time prices exactly what one walk of the whole frame would.
//! Per-fragment misses are sparse and kept for the current window only:
//! each node keeps the `(fragment, first touches)` of its fragments with a
//! first touch once, and each geometry the `(fragment, warm misses)` of
//! its fragments with a warm miss, written at the end of the fragment
//! from a list of the geometries that missed in it.
//! [`MattsonWalk::fragment_misses`] merges the two ([`FragmentMisses`]),
//! so the timing walk advances all-hit stretches in bulk.

use crate::geometry::CacheGeometry;
use crate::stats::{CacheStats, MissBreakdown};
use std::collections::HashMap;

/// Sentinel for "no slot" in the intrusive recency list.
const NIL: u32 = u32::MAX;

/// One geometry a [`MattsonWalk`] should price.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeometryRequest {
    /// The set-associative geometry.
    pub geometry: CacheGeometry,
    /// Also derive the compulsory/capacity/conflict decomposition (needs
    /// the full-associativity distance counted up to the geometry's total
    /// line count, so it slightly deepens the stack walk).
    pub classify: bool,
}

/// Distance histograms of one node's access sequence: for each tracked set
/// count `2^k`, how many warm accesses had each set-relative stack
/// distance. Cold (first-touch) accesses are counted separately — they
/// miss in every geometry.
///
/// `hits(sets, ways)` reads the hit count of any `(sets, ways)` cache
/// whose axes the profile tracked, without touching the sequence again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MattsonProfile {
    accesses: u64,
    cold: u64,
    /// `hist[k][d]` = warm accesses at set count `2^k` with distance `d`;
    /// the final bucket aggregates every distance `>= cap`. Empty for
    /// untracked `k`.
    hist: Vec<Vec<u64>>,
}

impl MattsonProfile {
    /// Total accesses in the node's sequence.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// First-touch (compulsory) accesses: misses in every geometry.
    pub fn compulsory(&self) -> u64 {
        self.cold
    }

    /// Whether `hits` can answer for this `(sets, ways)` point: the set
    /// count must be a tracked power of two and the associativity within
    /// the tracked distance range.
    pub fn supports(&self, sets: u32, ways: u32) -> bool {
        if !sets.is_power_of_two() || ways == 0 {
            return false;
        }
        let k = sets.trailing_zeros() as usize;
        match self.hist.get(k) {
            // The last bucket is the ">= cap" overflow, so exact counts
            // stop one short of the histogram length.
            Some(h) => (ways as usize) < h.len(),
            None => false,
        }
    }

    /// Hits of a true-LRU cache with `sets` sets and `ways` ways over the
    /// profiled sequence.
    ///
    /// # Panics
    ///
    /// Panics if the point is not [`supports`](Self::supports)ed.
    pub fn hits(&self, sets: u32, ways: u32) -> u64 {
        assert!(
            self.supports(sets, ways),
            "profile does not track {sets} sets x {ways} ways"
        );
        let k = sets.trailing_zeros() as usize;
        self.hist[k][..ways as usize].iter().sum()
    }

    /// Misses of the same cache: `accesses - hits`.
    pub fn misses(&self, sets: u32, ways: u32) -> u64 {
        self.accesses - self.hits(sets, ways)
    }
}

/// One geometry's counters for one node.
#[derive(Debug, Clone, Default)]
struct GeomCounts {
    /// Warm (non-first-touch) misses; the cold ones are the node's
    /// [`MattsonProfile::compulsory`], shared by every geometry.
    warm_misses: u64,
    /// Warm misses a fully-associative LRU of the same total size also
    /// takes; counted only for classifying requests.
    capacity: u64,
    /// `(fragment index, warm misses)` of every fragment of the current
    /// window with at least one warm miss, ascending by index.
    warm_frags: Vec<(u32, u32)>,
}

/// One node's sparse per-fragment misses in one geometry: the
/// `(fragment index, misses)` of every fragment that misses, ascending by
/// index, merged from two such lists whose counts add. A
/// [`MattsonWalk`] keeps a node's first-touch fragments once for every
/// geometry and each geometry's warm misses apart; a single recorded list
/// pairs with an empty one.
#[derive(Debug, Clone, Copy)]
pub struct FragmentMisses<'a> {
    lists: [&'a [(u32, u32)]; 2],
}

impl<'a> FragmentMisses<'a> {
    /// The merge of two ascending `(fragment index, misses)` lists.
    pub fn new(first: &'a [(u32, u32)], second: &'a [(u32, u32)]) -> Self {
        FragmentMisses { lists: [first, second] }
    }
}

impl Iterator for FragmentMisses<'_> {
    type Item = (u32, u32);

    #[inline]
    fn next(&mut self) -> Option<(u32, u32)> {
        fn take(list: &mut &[(u32, u32)]) -> Option<(u32, u32)> {
            let (&first, rest) = list.split_first()?;
            *list = rest;
            Some(first)
        }
        let [a, b] = &mut self.lists;
        match (a.first().copied(), b.first().copied()) {
            (Some(x), Some(y)) if x.0 == y.0 => {
                take(a);
                take(b);
                Some((x.0, x.1 + y.1))
            }
            (Some(x), Some(y)) if y.0 < x.0 => take(b),
            (Some(_), _) => take(a),
            (None, _) => take(b),
        }
    }
}

/// A resumable stack-distance walk of several nodes' access sequences
/// against one grid of geometries: per node and per requested geometry,
/// the exact hit/miss counters, per-fragment miss counts (for the timing
/// walk), eviction estimates and optional three-C decomposition a direct
/// simulation of that geometry would produce.
///
/// Each node's sequence arrives fragment by fragment through
/// [`walk`](Self::walk), in as many calls and windows as the caller
/// likes; the counters cover everything walked so far, the per-fragment
/// misses the current window.
#[derive(Debug, Clone)]
pub struct MattsonWalk {
    requests: Vec<GeometryRequest>,
    grid: RequestGrid,
    nodes: Vec<NodeWalk>,
    scratch: Scratch,
}

impl MattsonWalk {
    /// A walk of `nodes` empty sequences, pricing every geometry in
    /// `requests`.
    ///
    /// # Panics
    ///
    /// Panics if two requests carry the same geometry (the grid must be
    /// deduplicated so each geometry has one slot).
    pub fn new(requests: &[GeometryRequest], nodes: usize) -> Self {
        for (i, r) in requests.iter().enumerate() {
            assert!(
                !requests[..i].iter().any(|p| p.geometry == r.geometry),
                "duplicate geometry {} in request grid",
                r.geometry
            );
        }
        let grid = RequestGrid::new(requests);
        MattsonWalk {
            requests: requests.to_vec(),
            nodes: (0..nodes).map(|_| NodeWalk::new(&grid, requests.len())).collect(),
            scratch: Scratch {
                counts: vec![0; grid.groups.len()],
                frag_misses: vec![0; requests.len()],
                dirty: Vec::with_capacity(requests.len()),
            },
            grid,
        }
    }

    /// Number of nodes walked.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Starts a new window: every node's per-fragment miss lists empty and
    /// its fragment indices restart at 0. The counters carry on.
    pub fn start_window(&mut self) {
        for node in &mut self.nodes {
            node.frags = 0;
            node.cold_frags.clear();
            for g in &mut node.per_geom {
                g.warm_frags.clear();
            }
        }
    }

    /// Walks `fragments` — each one fragment's accesses, in order — as
    /// `node`'s next accesses.
    #[inline]
    pub fn walk<F: AsRef<[u32]>>(&mut self, node: usize, fragments: impl IntoIterator<Item = F>) {
        let MattsonWalk { grid, nodes, scratch, .. } = self;
        let node = &mut nodes[node];
        for accesses in fragments {
            node.fragment(accesses.as_ref(), grid, scratch);
        }
    }

    /// One node's Mattson profile over everything walked so far.
    pub fn profile(&self, node: usize) -> MattsonProfile {
        let n = &self.nodes[node];
        let mut hist = n.hist.clone();
        // Distance-0 accesses: head hits are 0 at every set count, and
        // `zero_from[i]` counts warm accesses whose distance first reaches
        // 0 at group `i` (it never grows with `k`, so it stays 0 for every
        // later group).
        let mut zeros = n.head_hits;
        for (g, zero) in self.grid.groups.iter().zip(&n.zero_from) {
            zeros += zero;
            hist[g.k][0] += zeros;
        }
        MattsonProfile { accesses: n.accesses, cold: self.compulsory(node), hist }
    }

    /// Cache statistics of geometry `geom` on `node`, identical to a
    /// direct [`SetAssocCache`](crate::SetAssocCache) simulation of the
    /// node's sequence so far.
    pub fn stats(&self, node: usize, geom: usize) -> CacheStats {
        CacheStats::from_counts(self.nodes[node].accesses, self.misses(node, geom))
    }

    fn misses(&self, node: usize, geom: usize) -> u64 {
        self.compulsory(node) + self.nodes[node].per_geom[geom].warm_misses
    }

    /// The three-C decomposition (only when the request asked to
    /// classify), identical to a direct
    /// [`ClassifyingCache`](crate::ClassifyingCache) simulation.
    pub fn breakdown(&self, node: usize, geom: usize) -> Option<MissBreakdown> {
        let g = &self.nodes[node].per_geom[geom];
        self.requests[geom].classify.then(|| MissBreakdown {
            compulsory: self.compulsory(node),
            capacity: g.capacity,
            conflict: g.warm_misses - g.capacity,
        })
    }

    /// The fragments of `node`'s current window that miss in geometry
    /// `geom`, as `(fragment index, misses)` pairs ascending by index;
    /// every other fragment hits on all its accesses. Fragment indices
    /// count the node's fragments of the window in walk order — what the
    /// timing walk feeds the engine model.
    pub fn fragment_misses(&self, node: usize, geom: usize) -> FragmentMisses<'_> {
        let n = &self.nodes[node];
        FragmentMisses::new(&n.cold_frags, &n.per_geom[geom].warm_frags)
    }

    /// First-touch (compulsory) miss count of `node` — the same for every
    /// geometry.
    pub fn compulsory(&self, node: usize) -> u64 {
        self.nodes[node].cold_lines.len() as u64
    }

    /// Lines of geometry `geom` resident on `node` now: per set, the
    /// smaller of the distinct lines mapping there and the associativity
    /// (LRU never un-fills a way).
    pub fn resident_lines(&self, node: usize, geom: usize) -> u64 {
        let g = &self.requests[geom].geometry;
        let mut per_set: HashMap<u32, u32> = HashMap::new();
        for &line in &self.nodes[node].cold_lines {
            *per_set.entry(g.set_of(line)).or_insert(0) += 1;
        }
        per_set.values().map(|&c| c.min(g.ways()) as u64).sum()
    }

    /// Evictions of geometry `geom` on `node`: every miss allocates, so
    /// fills minus still-resident lines.
    pub fn evictions(&self, node: usize, geom: usize) -> u64 {
        self.misses(node, geom) - self.resident_lines(node, geom)
    }
}

/// Request-count threshold for the stack-distance walk: a sweep frame
/// group prices its set-associative configs with one [`MattsonWalk`] iff
/// they request at least this many distinct geometries, and runs one
/// cache pass per distinct model otherwise.
///
/// The walk's cost is set by the recency walk, which depends on the set
/// counts the grid spans rather than on how many geometries it prices
/// (see [`evaluation_cost_weight`]). Measured single-threaded on a 2-vCPU
/// Xeon over block-16, 16-node plans of `quake` (scale 0.12 and 0.2),
/// `32massive11255` and `truc640` (scale 0.2), against one
/// [`SetAssocCache`](crate::SetAssocCache) pass over the same sequence: a
/// walk pricing 4 geometries costs 4.4–7.0 passes, 8 geometries 4.4–8.2,
/// 16 geometries 6.2–14 and 32 geometries 7.8–16. The walk therefore
/// breaks even with one capture per geometry at about 8–12 geometries.
/// The threshold is kept at 32 all the same: lowering it moves configs
/// from captures to the walk, which is a change of its own.
pub const STACKDIST_MIN_REQUESTS: usize = 32;

/// Relative host cost of one [`MattsonWalk`] over a frame pricing
/// `requests` geometries, in units of one cache pass over the same
/// accesses, exported so the sweep scheduler's cost model can dispatch
/// frame groups longest-estimated-first.
///
/// Fitted to the same measurements as [`STACKDIST_MIN_REQUESTS`]: the
/// walk over the sweep bench's plan costs 14.3 passes at 32 geometries
/// and 15.2 at the 102-geometry dense grid, so a fixed 12 passes plus one
/// per 64 geometries (misses, not requests, drive the rest).
pub fn evaluation_cost_weight(requests: usize) -> u64 {
    12 + requests as u64 / 64
}

/// The request grid preprocessed for the per-access loop.
#[derive(Debug, Clone)]
struct RequestGrid {
    /// Per set-count exponent `k`: distances are exact up to `cap[k]` and
    /// clamped there; 0 = untracked.
    cap: Vec<u32>,
    /// The tracked set counts, ascending by `k` — the walk fills these, so
    /// small-`k` caps saturate first.
    groups: Vec<SetGroup>,
}

/// The requests sharing one set count `2^k`, ascending by associativity:
/// an access at distance `d` misses exactly the prefix with `ways <= d`.
#[derive(Debug, Clone)]
struct SetGroup {
    k: usize,
    cap: u32,
    /// Per request, ascending by ways: (ways, request index, capacity
    /// threshold for the three-C oracle — 0 when it does not classify).
    points: Vec<(u32, u32, u32)>,
}

impl RequestGrid {
    fn new(requests: &[GeometryRequest]) -> Self {
        let k_max = requests
            .iter()
            .map(|r| r.geometry.sets().trailing_zeros() as usize)
            .max()
            .unwrap_or(0);
        let mut cap = vec![0u32; k_max + 1];
        let mut points: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); k_max + 1];
        for (gi, r) in requests.iter().enumerate() {
            let k = r.geometry.sets().trailing_zeros() as usize;
            let ways = r.geometry.ways();
            cap[k] = cap[k].max(ways);
            let classify_threshold = if r.classify { r.geometry.total_lines() } else { 0 };
            // The capacity oracle compares the full-associativity distance
            // (k = 0) against the geometry's total line count, so any
            // classifying request makes k = 0 the first group.
            if r.classify {
                cap[0] = cap[0].max(classify_threshold);
            }
            points[k].push((ways, gi as u32, classify_threshold));
        }
        let groups = points
            .into_iter()
            .enumerate()
            .filter(|&(k, _)| cap[k] > 0)
            .map(|(k, mut points)| {
                points.sort_unstable();
                SetGroup { k, cap: cap[k], points }
            })
            .collect();
        RequestGrid { cap, groups }
    }
}

/// Intrusive move-to-front recency list over distinct lines: O(1) cold
/// insertion and unlink, walk-from-head for distance counting.
///
/// Each slot keeps its line next to its links, so a walk step is one
/// load; the line → slot map is a plain vector indexed by line value
/// (texture line indices are dense), so the per-access lookup is one load
/// instead of a hash.
#[derive(Debug, Clone)]
struct RecencyStack {
    head: u32,
    slots: Vec<Slot>,
    slot_of: Vec<u32>,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u32,
    next: u32,
    prev: u32,
}

impl RecencyStack {
    fn new() -> Self {
        RecencyStack { head: NIL, slots: Vec::new(), slot_of: Vec::new() }
    }

    /// The slot holding `line`, or [`NIL`] if the line is cold.
    fn slot_of(&self, line: u32) -> u32 {
        self.slot_of.get(line as usize).copied().unwrap_or(NIL)
    }

    fn push_front(&mut self, slot: u32) {
        let head = self.head;
        let s = &mut self.slots[slot as usize];
        s.prev = NIL;
        s.next = head;
        if head != NIL {
            self.slots[head as usize].prev = slot;
        }
        self.head = slot;
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        }
    }

    fn insert_cold(&mut self, line: u32) {
        let slot = self.slots.len() as u32;
        self.slots.push(Slot { line, next: NIL, prev: NIL });
        if line as usize >= self.slot_of.len() {
            self.slot_of.resize(line as usize + 1, NIL);
        }
        self.slot_of[line as usize] = slot;
        self.push_front(slot);
    }
}

/// Per-fragment scratch shared by every node of a walk: per group, the
/// distinct same-set lines seen above the target so far, clamped at its
/// cap; and the current fragment's per-request warm misses, with the
/// requests that took any. A fragment leaves it clean.
#[derive(Debug, Clone)]
struct Scratch {
    counts: Vec<u32>,
    frag_misses: Vec<u32>,
    dirty: Vec<u32>,
}

/// One node's walk state: everything that persists across windows, plus
/// the current window's sparse per-fragment misses.
#[derive(Debug, Clone)]
struct NodeWalk {
    stack: RecencyStack,
    /// Distinct lines in first-touch order (the cold-miss census).
    cold_lines: Vec<u32>,
    accesses: u64,
    /// Warm accesses per set count and distance, without the distance-0
    /// ones, which `head_hits` and `zero_from` count (see
    /// [`MattsonWalk::profile`]).
    hist: Vec<Vec<u64>>,
    head_hits: u64,
    zero_from: Vec<u64>,
    per_geom: Vec<GeomCounts>,
    /// Fragments walked in the current window (the next one's index).
    frags: u32,
    /// `(fragment index, first touches)` of every fragment of the current
    /// window with a first touch, ascending by index: misses in every
    /// geometry, kept once.
    cold_frags: Vec<(u32, u32)>,
}

impl NodeWalk {
    fn new(grid: &RequestGrid, requests: usize) -> Self {
        NodeWalk {
            stack: RecencyStack::new(),
            cold_lines: Vec::new(),
            accesses: 0,
            hist: grid
                .cap
                .iter()
                .map(|&c| vec![0u64; if c > 0 { c as usize + 1 } else { 0 }])
                .collect(),
            head_hits: 0,
            zero_from: vec![0; grid.groups.len()],
            per_geom: vec![GeomCounts::default(); requests],
            frags: 0,
            cold_frags: Vec::new(),
        }
    }

    /// Walks one fragment's `accesses` and closes it.
    fn fragment(&mut self, accesses: &[u32], grid: &RequestGrid, scratch: &mut Scratch) {
        let groups = &grid.groups;
        let Scratch { counts, frag_misses, dirty } = scratch;
        let mut frag_cold = 0u32;
        self.accesses += accesses.len() as u64;
        for &line in accesses {
            let stack = &mut self.stack;
            match stack.slot_of(line) {
                NIL => {
                    // First touch: misses in every geometry, no walk needed.
                    frag_cold += 1;
                    self.cold_lines.push(line);
                    stack.insert_cold(line);
                }
                // Most-recent line again (the dominant texture-locality
                // case): distance 0 at every set count — hits everywhere.
                slot if stack.head == slot => self.head_hits += 1,
                slot => {
                    // Walk the recency stack towards the target, counting
                    // per group the distinct same-set lines passed (an
                    // entry counts at `2^k` sets exactly when it agrees
                    // with the target in the low `k` bits, i.e. when the
                    // xor's trailing-zero count reaches `k`). Each counter
                    // clamps at its cap — exact values beyond it answer no
                    // query — and the walk stops the moment every counter
                    // has saturated: the remaining entries cannot change
                    // any answer, and the unlink below needs no position.
                    counts.fill(0);
                    let mut unsaturated = groups.len();
                    let mut cur = stack.head;
                    'walk: while cur != slot {
                        let entry = stack.slots[cur as usize];
                        let t = (entry.line ^ line).trailing_zeros() as usize;
                        for (count, g) in counts.iter_mut().zip(groups) {
                            if g.k > t {
                                break;
                            }
                            if *count < g.cap {
                                *count += 1;
                                if *count == g.cap {
                                    unsaturated -= 1;
                                    if unsaturated == 0 {
                                        break 'walk;
                                    }
                                }
                            }
                        }
                        cur = entry.next;
                    }
                    let full = counts.first().copied().unwrap_or(0);
                    for ((&d, g), zero) in counts.iter().zip(groups).zip(&mut self.zero_from) {
                        if d == 0 {
                            *zero += 1;
                            break;
                        }
                        self.hist[g.k][d as usize] += 1;
                        for &(ways, gi, threshold) in &g.points {
                            if ways > d {
                                break;
                            }
                            let gc = &mut self.per_geom[gi as usize];
                            gc.warm_misses += 1;
                            // Same oracle as ClassifyingCache: a warm miss
                            // is a capacity miss iff a fully-associative
                            // LRU of the same total size would also miss
                            // (`full` is the k = 0 distance whenever a
                            // request classifies).
                            if threshold > 0 && full >= threshold {
                                gc.capacity += 1;
                            }
                            let m = &mut frag_misses[gi as usize];
                            if *m == 0 {
                                dirty.push(gi);
                            }
                            *m += 1;
                        }
                    }
                    stack.unlink(slot);
                    stack.push_front(slot);
                }
            }
        }

        // Close the fragment: its first touches once for every geometry,
        // its warm misses for the dirty requests only.
        let frag = self.frags;
        self.frags += 1;
        if frag_cold > 0 {
            self.cold_frags.push((frag, frag_cold));
        }
        for &gi in dirty.iter() {
            let m = &mut frag_misses[gi as usize];
            self.per_geom[gi as usize].warm_frags.push((frag, *m));
            *m = 0;
        }
        dirty.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::ClassifyingCache;
    use crate::set_assoc::SetAssocCache;
    use crate::LineCache;
    use sortmid_devharness::prop::{check, Config, Gen};
    use sortmid_devharness::prop_assert_eq;

    /// One node's sequence walked in one window, `per_fragment` accesses
    /// per fragment.
    fn walk_once(lines: &[u32], per_fragment: usize, grid: &[GeometryRequest]) -> MattsonWalk {
        let mut walk = MattsonWalk::new(grid, 1);
        walk.start_window();
        walk.walk(0, lines.chunks_exact(per_fragment));
        walk
    }

    fn geom(size: u32, ways: u32) -> CacheGeometry {
        CacheGeometry::new(size, ways, 64).unwrap()
    }

    fn request(size: u32, ways: u32) -> GeometryRequest {
        GeometryRequest {
            geometry: geom(size, ways),
            classify: false,
        }
    }

    /// Deterministic pseudo-random line sequence.
    fn lcg_lines(n: usize, span: u32, seed: u32) -> Vec<u32> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(1103515245).wrapping_add(12345);
                (x >> 16) % span
            })
            .collect()
    }

    #[test]
    fn matches_direct_simulation_on_random_sequences() {
        let lines = lcg_lines(4000, 200, 7);
        let grid: Vec<GeometryRequest> = [(512, 1), (512, 2), (1024, 4), (4096, 8), (16384, 4)]
            .iter()
            .map(|&(s, w)| request(s, w))
            .collect();
        let eval = walk_once(&lines, 1, &grid);
        for (gi, r) in grid.iter().enumerate() {
            let mut direct = SetAssocCache::new(r.geometry);
            for &l in &lines {
                direct.access_line(l);
            }
            assert_eq!(
                eval.stats(0, gi).misses(),
                direct.stats().misses(),
                "{}",
                r.geometry
            );
            assert_eq!(
                eval.resident_lines(0, gi),
                direct.resident_lines() as u64,
                "{}",
                r.geometry
            );
        }
    }

    #[test]
    fn profile_answers_the_registered_grid() {
        let lines = lcg_lines(1000, 64, 3);
        let grid = [request(512, 2), request(1024, 2)];
        let eval = walk_once(&lines, 1, &grid);
        let p = eval.profile(0);
        assert!(p.supports(8, 2) && p.supports(8, 1));
        assert!(!p.supports(8, 4), "4 ways beyond the tracked cap");
        assert!(!p.supports(3, 1), "non-power-of-two sets");
        assert_eq!(p.hits(8, 2) + p.misses(8, 2), p.accesses());
        // 1024B/2-way/64B has 8 sets; the profile must agree with its grid
        // entry.
        assert_eq!(p.misses(8, 2), eval.stats(0, 1).misses());
        // 512B/2-way/64B has 4 sets.
        assert_eq!(p.misses(4, 2), eval.stats(0, 0).misses());
    }

    #[test]
    fn per_fragment_misses_sum_to_totals() {
        let lines = lcg_lines(4096, 100, 11);
        let grid = [request(512, 2), request(2048, 4)];
        let eval = walk_once(&lines, 8, &grid);
        for gi in 0..grid.len() {
            let per_frag: u64 = eval.fragment_misses(0, gi).map(|(_, m)| m as u64).sum();
            assert_eq!(per_frag, eval.stats(0, gi).misses());
            assert_eq!(dense(eval.fragment_misses(0, gi), 512).len(), 512);
        }
    }

    #[test]
    fn saturation_cutoff_does_not_change_answers() {
        // A sequence engineered to make far reuses: sweep a big footprint,
        // then re-touch early lines.
        let mut lines = (0..2000u32).collect::<Vec<_>>();
        lines.extend(0..2000u32);
        let grid = [request(512, 1), request(512, 8)];
        let eval = walk_once(&lines, 1, &grid);
        for (gi, r) in grid.iter().enumerate() {
            let mut direct = SetAssocCache::new(r.geometry);
            for &l in &lines {
                direct.access_line(l);
            }
            assert_eq!(eval.stats(0, gi).misses(), direct.stats().misses());
        }
    }

    #[test]
    fn fragment_misses_merge_and_add_ties() {
        let cold = [(0, 2), (3, 1), (7, 4)];
        let warm = [(1, 1), (3, 2), (9, 1)];
        let merged: Vec<_> = FragmentMisses::new(&cold, &warm).collect();
        assert_eq!(merged, [(0, 2), (1, 1), (3, 3), (7, 4), (9, 1)]);
        assert!(FragmentMisses::new(&warm, &cold).eq(merged.iter().copied()));
        assert!(FragmentMisses::new(&cold, &[]).eq(cold.iter().copied()));
        assert_eq!(FragmentMisses::new(&[], &[]).next(), None);
    }

    #[test]
    #[should_panic(expected = "duplicate geometry")]
    fn duplicate_requests_panic() {
        MattsonWalk::new(&[request(512, 2), request(512, 2)], 1);
    }

    /// Expands a sparse `(fragment, misses)` list to one count per
    /// fragment, checking that it is strictly ascending and lists only
    /// missing fragments.
    fn dense(sparse: FragmentMisses<'_>, fragments: usize) -> Vec<u8> {
        let sparse: Vec<(u32, u32)> = sparse.collect();
        assert!(sparse.windows(2).all(|w| w[0].0 < w[1].0), "ascending fragments");
        let mut out = vec![0u8; fragments];
        for (fi, misses) in sparse {
            assert!(misses > 0, "fragment {fi} listed without a miss");
            out[fi as usize] = u8::try_from(misses).unwrap();
        }
        out
    }

    /// Per-fragment oracle: a fresh `SetAssocCache` (and, for a
    /// classifying request, a `ClassifyingCache`) fed the sequence one
    /// fragment of `per_fragment` lines at a time. Returns each fragment's
    /// miss count, the final stats, the three-C breakdown and the
    /// evictions.
    fn oracle(
        req: &GeometryRequest,
        lines: &[u32],
        per_fragment: usize,
    ) -> (Vec<u8>, CacheStats, Option<MissBreakdown>, u64) {
        let mut cache = SetAssocCache::new(req.geometry);
        let mut classed = ClassifyingCache::new(req.geometry);
        let frag_misses = lines
            .chunks_exact(per_fragment)
            .map(|frag| {
                if req.classify {
                    for &l in frag {
                        classed.access_line(l);
                    }
                }
                frag.iter().filter(|&&l| !cache.access_line(l)).count() as u8
            })
            .collect();
        let evictions = cache.stats().misses() - cache.resident_lines() as u64;
        let breakdown = req.classify.then(|| classed.breakdown());
        (frag_misses, *cache.stats(), breakdown, evictions)
    }

    #[test]
    fn walk_matches_a_per_fragment_oracle() {
        let lines = lcg_lines(4096, 180, 29);
        let mut grid: Vec<GeometryRequest> = [(512, 1), (1024, 4), (4096, 2), (16384, 8)]
            .iter()
            .map(|&(s, w)| request(s, w))
            .collect();
        grid[1].classify = true;
        let walk = walk_once(&lines, 8, &grid);
        for (gi, req) in grid.iter().enumerate() {
            let (frag_misses, stats, breakdown, evictions) = oracle(req, &lines, 8);
            let walked = dense(walk.fragment_misses(0, gi), frag_misses.len());
            assert_eq!(walked, frag_misses, "{}", req.geometry);
            assert_eq!(walk.stats(0, gi), stats, "{}", req.geometry);
            assert_eq!(walk.breakdown(0, gi), breakdown, "{}", req.geometry);
            assert_eq!(walk.evictions(0, gi), evictions, "{}", req.geometry);
        }
    }

    /// A random grid of 1..=6 distinct geometries from 64 B to 16 KB with
    /// random classify flags (a drawn duplicate is dropped, so a shrunk
    /// tape of zeros still ends).
    fn arb_grid(g: &mut Gen) -> Vec<GeometryRequest> {
        let mut grid: Vec<GeometryRequest> = Vec::new();
        for _ in 0..g.usize_in(1..7) {
            let size = 64u32 << g.u32_in(0..9);
            let ways = 1u32 << g.u32_in(0..(size / 64).trailing_zeros().min(3) + 1);
            let geometry = geom(size, ways);
            if grid.iter().all(|r| r.geometry != geometry) {
                grid.push(GeometryRequest { geometry, classify: g.bool() });
            }
        }
        grid
    }

    /// One node's fragments of 8 accesses over a span of lines, with
    /// repeats of the access before so that head hits, near and far
    /// reuses and first touches all occur.
    fn arb_fragments(g: &mut Gen) -> Vec<[u32; 8]> {
        let span = g.u32_in(8..600);
        let mut last = 0;
        g.vec(0..160, |g| {
            std::array::from_fn(|_| {
                if g.choice(3) != 0 {
                    last = g.u32_in(0..span);
                }
                last
            })
        })
    }

    /// 1–4 nodes' fragment sequences, a grid, and per node the fragment
    /// counts after which the windowed walk starts a new window (plus a
    /// split inside each window, where its nodes interleave).
    type Case = (Vec<Vec<[u32; 8]>>, Vec<GeometryRequest>, usize, Vec<Vec<usize>>);

    fn arb_case(g: &mut Gen) -> Case {
        let nodes = g.vec(1..5, arb_fragments);
        let grid = arb_grid(g);
        let windows = g.usize_in(1..6);
        // Per node, 2·windows − 1 sorted cut points: window w spans cuts
        // 2w − 1 .. 2w + 1, split at cut 2w.
        let cuts = nodes
            .iter()
            .map(|frags| {
                let mut cuts: Vec<usize> =
                    (0..2 * windows - 1).map(|_| g.usize_in(0..frags.len() + 1)).collect();
                cuts.sort_unstable();
                cuts
            })
            .collect();
        (nodes, grid, windows, cuts)
    }

    /// Walking each node's sequence in one call and walking it split at
    /// random window boundaries — nodes interleaved, several calls per
    /// window — price everything alike: each fragment's misses (window
    /// indices offset back to the whole sequence), stats, three-C
    /// breakdown, evictions and profile.
    #[test]
    fn prop_windowed_walk_equals_one_walk() {
        check("windowed_walk_equals_one_walk", &Config::with_cases(64), arb_case, |case| {
            let (nodes, grid, windows, cuts) = case;
            let mut whole = MattsonWalk::new(grid, nodes.len());
            whole.start_window();
            for (i, frags) in nodes.iter().enumerate() {
                whole.walk(i, frags);
            }

            let mut windowed = MattsonWalk::new(grid, nodes.len());
            // Per node and geometry, the windowed walk's misses in
            // whole-sequence fragment indices.
            let mut misses = vec![vec![Vec::new(); grid.len()]; nodes.len()];
            for w in 0..*windows {
                windowed.start_window();
                let bound = |i: usize, c: usize| match c {
                    0 => 0,
                    c if c > cuts[i].len() => nodes[i].len(),
                    c => cuts[i][c - 1],
                };
                for half in 0..2 {
                    for (i, frags) in nodes.iter().enumerate() {
                        let piece = bound(i, 2 * w + half)..bound(i, 2 * w + half + 1);
                        windowed.walk(i, &frags[piece]);
                    }
                }
                for (i, per_geom) in misses.iter_mut().enumerate() {
                    let offset = bound(i, 2 * w) as u32;
                    for (gi, list) in per_geom.iter_mut().enumerate() {
                        list.extend(windowed.fragment_misses(i, gi).map(|(f, m)| (f + offset, m)));
                    }
                }
            }

            for (i, per_geom) in misses.iter().enumerate() {
                prop_assert_eq!(windowed.profile(i), whole.profile(i), "node {i}: profile");
                for (gi, list) in per_geom.iter().enumerate() {
                    let g = grid[gi].geometry;
                    let want: Vec<_> = whole.fragment_misses(i, gi).collect();
                    prop_assert_eq!(list, &want, "node {i} {g}: per-fragment misses");
                    prop_assert_eq!(windowed.stats(i, gi), whole.stats(i, gi), "node {i} {g}");
                    prop_assert_eq!(windowed.breakdown(i, gi), whole.breakdown(i, gi));
                    prop_assert_eq!(windowed.evictions(i, gi), whole.evictions(i, gi));
                }
            }
            Ok(())
        });
    }

    #[test]
    fn evaluation_cost_weight_amortizes_the_walk() {
        for n in [0, 1, STACKDIST_MIN_REQUESTS, 102, 4096] {
            assert_eq!(evaluation_cost_weight(n), 12 + n as u64 / 64);
        }
        // At the threshold the walk is cheaper than one pass per geometry.
        assert!(evaluation_cost_weight(STACKDIST_MIN_REQUESTS) < STACKDIST_MIN_REQUESTS as u64);
    }
}
