//! Hit/miss accounting and texel-to-fragment arithmetic.

use std::fmt;

/// Accumulated access statistics of a cache model.
///
/// # Examples
///
/// ```
/// use sortmid_cache::CacheStats;
///
/// let mut s = CacheStats::new();
/// s.record(true);
/// s.record(false);
/// assert_eq!(s.accesses(), 2);
/// assert_eq!(s.miss_rate(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    accesses: u64,
    misses: u64,
}

impl CacheStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds statistics from raw counts (used when differencing snapshots
    /// across simulation frames).
    ///
    /// # Panics
    ///
    /// Panics if `misses > accesses`.
    pub fn from_counts(accesses: u64, misses: u64) -> Self {
        assert!(misses <= accesses, "more misses than accesses");
        CacheStats { accesses, misses }
    }

    /// The accesses/misses accumulated since an earlier snapshot of the
    /// same accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is not actually an earlier snapshot (its counts
    /// exceed this one's).
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        assert!(
            earlier.accesses <= self.accesses && earlier.misses <= self.misses,
            "snapshot is not earlier"
        );
        CacheStats {
            accesses: self.accesses - earlier.accesses,
            misses: self.misses - earlier.misses,
        }
    }

    /// Records one access (`hit == true` for a hit).
    #[inline]
    pub fn record(&mut self, hit: bool) {
        self.accesses += 1;
        if !hit {
            self.misses += 1;
        }
    }

    /// Records `n` hits at once. The accumulator is a pair of order-free
    /// counters, so bulk recording is indistinguishable from `n` calls to
    /// `record(true)` — the batched probe paths rely on that to stay
    /// byte-identical to the scalar loop.
    #[inline]
    pub fn record_hits(&mut self, n: u64) {
        self.accesses += n;
    }

    /// Records `n` misses at once (see [`record_hits`](Self::record_hits)).
    #[inline]
    pub fn record_misses(&mut self, n: u64) {
        self.accesses += n;
        self.misses += n;
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses (= lines fetched for a single-level cache).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.accesses - self.misses
    }

    /// Miss rate in `[0, 1]`; 0 when no access happened.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Texels fetched from memory, assuming `texels_per_line` texels per
    /// fetched line (16 for the paper's 64-byte lines of 4-byte texels).
    pub fn texels_fetched(&self, texels_per_line: u32) -> u64 {
        self.misses * texels_per_line as u64
    }

    /// The paper's **texel to fragment ratio**: texels fetched from external
    /// memory divided by fragments drawn.
    ///
    /// Returns 0 when no fragment was drawn.
    pub fn texel_to_fragment(&self, texels_per_line: u32, fragments: u64) -> f64 {
        if fragments == 0 {
            0.0
        } else {
            self.texels_fetched(texels_per_line) as f64 / fragments as f64
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.misses += other.misses;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} misses ({:.2}%)",
            self.accesses,
            self.misses,
            self.miss_rate() * 100.0
        )
    }
}

/// Per-kind miss breakdown produced by
/// [`ClassifyingCache`](crate::ClassifyingCache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MissBreakdown {
    /// First-ever access to the line (would miss in any cache).
    pub compulsory: u64,
    /// Misses a fully-associative LRU cache of equal capacity would also
    /// take.
    pub capacity: u64,
    /// Misses caused only by limited associativity.
    pub conflict: u64,
}

impl MissBreakdown {
    /// Total classified misses.
    pub fn total(&self) -> u64 {
        self.compulsory + self.capacity + self.conflict
    }

    /// Checks the exact-sum invariant `compulsory + capacity + conflict ==
    /// misses` against a cache's miss counter. Every miss the classifier
    /// sees falls in exactly one class, so any difference means the
    /// decomposition silently dropped or double-counted misses — the
    /// three-C analogue of `sortmid-observe`'s `CycleBreakdown::verify`
    /// cycle identity, and enforced the same way by property tests and
    /// `bench_check`.
    ///
    /// # Errors
    ///
    /// Returns the mismatching totals when the identity does not hold.
    pub fn verify(&self, misses: u64) -> Result<(), MissIdentityError> {
        if self.total() == misses {
            Ok(())
        } else {
            Err(MissIdentityError {
                breakdown: *self,
                misses,
            })
        }
    }
}

/// Violation of the three-C exact-sum identity: the classified misses do
/// not add up to the cache's miss counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissIdentityError {
    /// The failing decomposition.
    pub breakdown: MissBreakdown,
    /// The miss total it should have summed to.
    pub misses: u64,
}

impl fmt::Display for MissIdentityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "miss classes ({}) sum to {}, cache counted {} misses",
            self.breakdown,
            self.breakdown.total(),
            self.misses
        )
    }
}

impl std::error::Error for MissIdentityError {}

impl fmt::Display for MissBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "compulsory={} capacity={} conflict={}",
            self.compulsory, self.capacity, self.conflict
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_rates() {
        let mut s = CacheStats::new();
        for hit in [true, true, false, true] {
            s.record(hit);
        }
        assert_eq!(s.accesses(), 4);
        assert_eq!(s.hits(), 3);
        assert_eq!(s.misses(), 1);
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_rates_are_zero() {
        let s = CacheStats::new();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.texel_to_fragment(16, 0), 0.0);
    }

    #[test]
    fn texel_to_fragment_matches_paper_definition() {
        let mut s = CacheStats::new();
        // 10 fragments x 8 accesses, 5 misses.
        for i in 0..80 {
            s.record(i >= 5);
        }
        // 5 lines x 16 texels / 10 fragments = 8 texels per fragment.
        assert!((s.texel_to_fragment(16, 10) - 8.0).abs() < 1e-12);
        assert_eq!(s.texels_fetched(16), 80);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = CacheStats::new();
        a.record(false);
        let mut b = CacheStats::new();
        b.record(true);
        b.record(false);
        a.merge(&b);
        assert_eq!(a.accesses(), 3);
        assert_eq!(a.misses(), 2);
    }

    #[test]
    fn from_counts_and_delta() {
        let early = CacheStats::from_counts(10, 4);
        let late = CacheStats::from_counts(25, 9);
        let d = late.delta_since(&early);
        assert_eq!(d.accesses(), 15);
        assert_eq!(d.misses(), 5);
        assert_eq!(late.delta_since(&late).accesses(), 0);
    }

    #[test]
    #[should_panic(expected = "not earlier")]
    fn delta_since_rejects_later_snapshot() {
        CacheStats::from_counts(1, 0).delta_since(&CacheStats::from_counts(5, 0));
    }

    #[test]
    #[should_panic(expected = "more misses")]
    fn from_counts_rejects_impossible() {
        CacheStats::from_counts(1, 2);
    }

    #[test]
    fn breakdown_totals() {
        let b = MissBreakdown {
            compulsory: 2,
            capacity: 3,
            conflict: 4,
        };
        assert_eq!(b.total(), 9);
        assert_eq!(b.to_string(), "compulsory=2 capacity=3 conflict=4");
    }

    #[test]
    fn verify_enforces_the_exact_sum_identity() {
        let b = MissBreakdown {
            compulsory: 2,
            capacity: 3,
            conflict: 4,
        };
        assert!(b.verify(9).is_ok());
        let err = b.verify(10).unwrap_err();
        assert_eq!(err.misses, 10);
        assert_eq!(err.breakdown, b);
        let msg = err.to_string();
        assert!(msg.contains("sum to 9") && msg.contains("10 misses"), "{msg}");
    }
}
