//! Mattson stack-distance evaluation: one trace replay prices every
//! set-associative geometry of a sweep grid at once.
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

use crate::geometry::CacheGeometry;
use crate::stats::{CacheStats, MissBreakdown};
use crate::trace::LineAccessTrace;
use std::collections::HashMap;

/// Sentinel for "no slot" in the intrusive recency list.
const NIL: u32 = u32::MAX;

/// One geometry a trace evaluation should price.
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
/// whose axes the profile tracked, without touching the trace again.
#[derive(Debug, Clone)]
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

/// One geometry's replay-derived counters for one node.
#[derive(Debug, Clone)]
struct GeomCounts {
    misses: u64,
    breakdown: Option<MissBreakdown>,
    /// Misses of each fragment, in processing order (at most the trace's
    /// accesses-per-fragment, so `u8` is ample).
    frag_misses: Vec<u8>,
}

/// One node's evaluation: profile, distinct-line census and per-geometry
/// counters.
#[derive(Debug, Clone)]
struct NodeEvaluation {
    profile: MattsonProfile,
    /// Distinct lines in first-touch order (the cold-miss census).
    cold_lines: Vec<u32>,
    per_geom: Vec<GeomCounts>,
}

/// The result of replaying a [`LineAccessTrace`] against a grid of
/// geometries: per node and per requested geometry, the exact hit/miss
/// counters, per-fragment miss counts (for timing replay), eviction
/// estimates and optional three-C decomposition a direct simulation of
/// that geometry would produce.
#[derive(Debug, Clone)]
pub struct TraceEvaluation {
    requests: Vec<GeometryRequest>,
    nodes: Vec<NodeEvaluation>,
}

impl TraceEvaluation {
    /// The geometry grid this evaluation priced.
    pub fn requests(&self) -> &[GeometryRequest] {
        &self.requests
    }

    /// Number of nodes evaluated.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Index of a geometry in the request grid.
    pub fn index_of(&self, geometry: &CacheGeometry) -> Option<usize> {
        self.requests.iter().position(|r| r.geometry == *geometry)
    }

    /// One node's Mattson profile.
    pub fn profile(&self, node: usize) -> &MattsonProfile {
        &self.nodes[node].profile
    }

    /// Cache statistics of geometry `geom` on `node`, identical to a
    /// direct [`SetAssocCache`](crate::SetAssocCache) simulation of the
    /// node's sequence.
    pub fn stats(&self, node: usize, geom: usize) -> CacheStats {
        let n = &self.nodes[node];
        CacheStats::from_counts(n.profile.accesses, n.per_geom[geom].misses)
    }

    /// The three-C decomposition (only when the request asked to
    /// classify), identical to a direct
    /// [`ClassifyingCache`](crate::ClassifyingCache) simulation.
    pub fn breakdown(&self, node: usize, geom: usize) -> Option<MissBreakdown> {
        self.nodes[node].per_geom[geom].breakdown
    }

    /// Per-fragment miss counts of geometry `geom` on `node`, in
    /// processing order — what the timing replay feeds the engine model.
    pub fn fragment_misses(&self, node: usize, geom: usize) -> &[u8] {
        &self.nodes[node].per_geom[geom].frag_misses
    }

    /// First-touch (compulsory) miss count of `node` — the same for every
    /// geometry.
    pub fn compulsory(&self, node: usize) -> u64 {
        self.nodes[node].profile.cold
    }

    /// Lines of geometry `geom` resident on `node` after the whole
    /// sequence: per set, the smaller of the distinct lines mapping there
    /// and the associativity (LRU never un-fills a way).
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
        self.nodes[node].per_geom[geom].misses - self.resident_lines(node, geom)
    }
}

/// Replays `trace` through the stack-distance oracle, pricing every
/// geometry in `requests` for every node in one pass per node.
///
/// # Panics
///
/// Panics if two requests carry the same geometry (the grid must be
/// deduplicated so [`TraceEvaluation::index_of`] is unambiguous).
pub fn evaluate_trace(trace: &LineAccessTrace, requests: &[GeometryRequest]) -> TraceEvaluation {
    for (i, r) in requests.iter().enumerate() {
        assert!(
            !requests[..i].iter().any(|p| p.geometry == r.geometry),
            "duplicate geometry {} in request grid",
            r.geometry
        );
    }
    let grid = RequestGrid::new(requests);
    let nodes = (0..trace.node_count())
        .map(|n| evaluate_node(trace.node_lines(n), trace.accesses_per_fragment(), &grid))
        .collect();
    TraceEvaluation {
        requests: requests.to_vec(),
        nodes,
    }
}

/// Request-count threshold for the stack-distance walk: the sweep prices
/// a plan's set-associative configs with [`evaluate_trace`] iff they
/// request at least this many distinct geometries, and shares one cache
/// capture per `(plan, cache model)` otherwise.
///
/// The walk amortizes across geometries but pays a per-access scan bounded
/// by the deepest saturation cap (roughly `sets x ways` of the largest
/// geometry); a direct [`SetAssocCache`](crate::SetAssocCache) probe
/// touches one set. Measured on the sweep bench's trace-replay lanes, the
/// walk's near-fixed cost equals roughly thirty per-geometry cache passes,
/// so dozen-geometry grids stay on captures and 100-config dense grids
/// take the walk.
pub const STACKDIST_MIN_REQUESTS: usize = 32;

/// Relative host cost of one [`evaluate_trace`] pricing `requests`
/// geometries, in units of one cache pass over the trace, exported so the
/// sweep scheduler's cost model can dispatch evaluations
/// longest-estimated-first: the walk pays roughly
/// [`STACKDIST_MIN_REQUESTS`] passes once, then a small increment per
/// geometry synthesized from the distance histograms.
pub fn evaluation_cost_weight(requests: usize) -> u64 {
    STACKDIST_MIN_REQUESTS as u64 + requests as u64 / 8
}

/// The request grid preprocessed for the per-access loop.
struct RequestGrid {
    /// Per request: (k = log2 sets, ways, capacity threshold for the
    /// three-C oracle — 0 when the request does not classify).
    points: Vec<(usize, u32, u32)>,
    /// Per tracked k: distances are exact up to `cap[k]` and clamped
    /// there; 0 = untracked.
    cap: Vec<u32>,
    /// The tracked set-count exponents (those with `cap[k] > 0`),
    /// ascending — the walk iterates these, so small-`k` caps saturate
    /// first.
    tracked: Vec<usize>,
}

impl RequestGrid {
    fn new(requests: &[GeometryRequest]) -> Self {
        let k_max = requests
            .iter()
            .map(|r| r.geometry.sets().trailing_zeros() as usize)
            .max()
            .unwrap_or(0);
        let mut cap = vec![0u32; k_max + 1];
        let mut points = Vec::with_capacity(requests.len());
        for r in requests {
            let k = r.geometry.sets().trailing_zeros() as usize;
            let ways = r.geometry.ways();
            cap[k] = cap[k].max(ways);
            let classify_threshold = if r.classify { r.geometry.total_lines() } else { 0 };
            // The capacity oracle compares the full-associativity distance
            // (k = 0) against the geometry's total line count.
            if r.classify {
                cap[0] = cap[0].max(classify_threshold);
            }
            points.push((k, ways, classify_threshold));
        }
        let tracked = (0..cap.len()).filter(|&k| cap[k] > 0).collect();
        RequestGrid { points, cap, tracked }
    }
}

/// Intrusive move-to-front recency list over distinct lines: O(1) cold
/// insertion and unlink, walk-from-head for distance counting.
///
/// The line → slot map is a plain vector indexed by line value (texture
/// line indices are dense), so the per-access lookup is one load instead
/// of a hash.
struct RecencyStack {
    head: u32,
    next: Vec<u32>,
    prev: Vec<u32>,
    line_of: Vec<u32>,
    slot_of: Vec<u32>,
}

impl RecencyStack {
    fn new() -> Self {
        RecencyStack {
            head: NIL,
            next: Vec::new(),
            prev: Vec::new(),
            line_of: Vec::new(),
            slot_of: Vec::new(),
        }
    }

    /// The slot holding `line`, or [`NIL`] if the line is cold.
    fn slot_of(&self, line: u32) -> u32 {
        self.slot_of.get(line as usize).copied().unwrap_or(NIL)
    }

    fn push_front(&mut self, slot: u32) {
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
    }

    fn unlink(&mut self, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        }
    }

    fn insert_cold(&mut self, line: u32) {
        let slot = self.line_of.len() as u32;
        self.line_of.push(line);
        self.prev.push(NIL);
        self.next.push(NIL);
        if line as usize >= self.slot_of.len() {
            self.slot_of.resize(line as usize + 1, NIL);
        }
        self.slot_of[line as usize] = slot;
        self.push_front(slot);
    }
}

fn evaluate_node(lines: &[u32], accesses_per_fragment: u32, grid: &RequestGrid) -> NodeEvaluation {
    let k_top = grid.cap.len() - 1;
    let n_req = grid.points.len();
    let mut stack = RecencyStack::new();
    let mut cold_lines = Vec::new();
    let mut hist: Vec<Vec<u64>> = grid
        .cap
        .iter()
        .map(|&c| vec![0u64; if c > 0 { c as usize + 1 } else { 0 }])
        .collect();
    let mut cold = 0u64;
    let mut per_geom: Vec<GeomCounts> = grid
        .points
        .iter()
        .map(|&(_, _, threshold)| GeomCounts {
            misses: 0,
            breakdown: (threshold > 0).then(MissBreakdown::default),
            frag_misses: Vec::with_capacity(lines.len() / accesses_per_fragment as usize),
        })
        .collect();

    // Scratch reused across accesses: per tracked set count, the distinct
    // same-set lines seen above the target so far, clamped at `cap[k]`.
    let mut counts = vec![0u32; k_top + 1];
    let mut frag_misses = vec![0u8; n_req];
    let mut in_fragment = 0u32;

    for &line in lines {
        match stack.slot_of(line) {
            NIL => {
                // First touch: misses in every geometry, no walk needed.
                cold += 1;
                cold_lines.push(line);
                stack.insert_cold(line);
                for m in frag_misses.iter_mut() {
                    *m += 1;
                }
                for g in per_geom.iter_mut() {
                    g.misses += 1;
                    if let Some(b) = &mut g.breakdown {
                        b.compulsory += 1;
                    }
                }
            }
            slot if stack.head == slot => {
                // Most-recent line again (the dominant texture-locality
                // case): distance 0 at every set count — hits everywhere.
                for &k in &grid.tracked {
                    hist[k][0] += 1;
                }
            }
            slot => {
                // Walk the recency stack towards the target, counting per
                // tracked set count the distinct same-set lines passed (an
                // entry counts at `2^k` sets exactly when it agrees with
                // the target in the low `k` bits, i.e. when the xor's
                // trailing-zero count reaches `k`). Each counter clamps at
                // its cap — exact values beyond it answer no query — and
                // the walk stops the moment every counter has saturated:
                // the remaining entries cannot change any answer, and the
                // unlink below needs no position.
                for &k in &grid.tracked {
                    counts[k] = 0;
                }
                let mut unsaturated = grid.tracked.len();
                let mut cur = stack.head;
                'walk: while cur != slot {
                    let t = (stack.line_of[cur as usize] ^ line).trailing_zeros() as usize;
                    for &k in &grid.tracked {
                        if k > t {
                            break;
                        }
                        if counts[k] < grid.cap[k] {
                            counts[k] += 1;
                            if counts[k] == grid.cap[k] {
                                unsaturated -= 1;
                                if unsaturated == 0 {
                                    break 'walk;
                                }
                            }
                        }
                    }
                    cur = stack.next[cur as usize];
                }
                for &k in &grid.tracked {
                    let h = &mut hist[k];
                    let bucket = (counts[k] as usize).min(h.len() - 1);
                    h[bucket] += 1;
                }
                for (gi, &(k, ways, threshold)) in grid.points.iter().enumerate() {
                    if counts[k] >= ways {
                        frag_misses[gi] += 1;
                        let g = &mut per_geom[gi];
                        g.misses += 1;
                        if let Some(b) = &mut g.breakdown {
                            // Same oracle as ClassifyingCache: a warm miss
                            // is a capacity miss iff a fully-associative
                            // LRU of the same total size would also miss.
                            if counts[0] >= threshold {
                                b.capacity += 1;
                            } else {
                                b.conflict += 1;
                            }
                        }
                    }
                }
                stack.unlink(slot);
                stack.push_front(slot);
            }
        }

        in_fragment += 1;
        if in_fragment == accesses_per_fragment {
            in_fragment = 0;
            for (gi, m) in frag_misses.iter_mut().enumerate() {
                per_geom[gi].frag_misses.push(*m);
                *m = 0;
            }
        }
    }
    debug_assert_eq!(in_fragment, 0, "trace holds whole fragments");

    NodeEvaluation {
        profile: MattsonProfile {
            accesses: lines.len() as u64,
            cold,
            hist,
        },
        cold_lines,
        per_geom,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::ClassifyingCache;
    use crate::set_assoc::SetAssocCache;
    use crate::LineCache;

    fn trace_of(lines: Vec<u32>) -> LineAccessTrace {
        LineAccessTrace::from_nodes(vec![lines], 1)
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
        let eval = evaluate_trace(&trace_of(lines.clone()), &grid);
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
        let eval = evaluate_trace(&trace_of(lines), &grid);
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
        let trace = LineAccessTrace::from_nodes(vec![lines], 8);
        let grid = [request(512, 2), request(2048, 4)];
        let eval = evaluate_trace(&trace, &grid);
        for gi in 0..grid.len() {
            let per_frag: u64 = eval.fragment_misses(0, gi).iter().map(|&m| m as u64).sum();
            assert_eq!(per_frag, eval.stats(0, gi).misses());
            assert_eq!(eval.fragment_misses(0, gi).len(), 512);
        }
    }

    #[test]
    fn saturation_cutoff_does_not_change_answers() {
        // A sequence engineered to make far reuses: sweep a big footprint,
        // then re-touch early lines.
        let mut lines = (0..2000u32).collect::<Vec<_>>();
        lines.extend(0..2000u32);
        let grid = [request(512, 1), request(512, 8)];
        let eval = evaluate_trace(&trace_of(lines.clone()), &grid);
        for (gi, r) in grid.iter().enumerate() {
            let mut direct = SetAssocCache::new(r.geometry);
            for &l in &lines {
                direct.access_line(l);
            }
            assert_eq!(eval.stats(0, gi).misses(), direct.stats().misses());
        }
    }

    #[test]
    #[should_panic(expected = "duplicate geometry")]
    fn duplicate_requests_panic() {
        evaluate_trace(&trace_of(vec![1]), &[request(512, 2), request(512, 2)]);
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
        let trace = LineAccessTrace::from_nodes(vec![lines.clone()], 8);
        let mut grid: Vec<GeometryRequest> = [(512, 1), (1024, 4), (4096, 2), (16384, 8)]
            .iter()
            .map(|&(s, w)| request(s, w))
            .collect();
        grid[1].classify = true;
        let walk = evaluate_trace(&trace, &grid);
        for (gi, req) in grid.iter().enumerate() {
            let (frag_misses, stats, breakdown, evictions) = oracle(req, &lines, 8);
            assert_eq!(walk.fragment_misses(0, gi), frag_misses, "{}", req.geometry);
            assert_eq!(walk.stats(0, gi), stats, "{}", req.geometry);
            assert_eq!(walk.breakdown(0, gi), breakdown, "{}", req.geometry);
            assert_eq!(walk.evictions(0, gi), evictions, "{}", req.geometry);
        }
    }

    #[test]
    fn evaluation_cost_weight_amortizes_the_walk() {
        for n in [0, 1, STACKDIST_MIN_REQUESTS, 102, 4096] {
            assert_eq!(
                evaluation_cost_weight(n),
                STACKDIST_MIN_REQUESTS as u64 + n as u64 / 8
            );
        }
    }
}
