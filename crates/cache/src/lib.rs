//! Texture-cache simulation for the `sortmid` machine.
//!
//! The paper equips every texture-mapping node with a **16 KB, 4-way
//! set-associative cache with 64-byte lines** (one 4×4 texel block per
//! line), the configuration Hakura & Gupta showed to be effective, and
//! treats cache efficiency purely as *bandwidth reduction*: prefetching
//! hides latency, so what matters is how many lines are fetched from the
//! external texture memory per fragment drawn.
//!
//! This crate provides the cache models the machine plugs in:
//!
//! * [`geometry::CacheGeometry`] — size/associativity/line-size with
//!   validation.
//! * [`set_assoc::SetAssocCache`] — the real LRU cache simulator.
//! * [`perfect::PerfectCache`] — the paper's "perfect cache" (always hits;
//!   not even compulsory misses), used to isolate load balancing.
//! * [`classify::ClassifyingCache`] — wraps the set-associative simulator
//!   with compulsory/capacity/conflict miss classification.
//! * [`hierarchy::TwoLevelCache`] — an optional L2 between the L1 and
//!   texture memory (the paper's future-work question).
//! * [`stats::CacheStats`] — hit/miss accounting and the texel-to-fragment
//!   arithmetic.
//! * [`trace::LineAccessTrace`] — the geometry-independent access
//!   sequence of one routing plan.
//! * [`stackdist::evaluate_trace`] — Mattson stack-distance replay that
//!   prices every (size × associativity) geometry of a sweep grid from one
//!   captured trace; the sweep walks a plan's trace once it requests
//!   [`STACKDIST_MIN_REQUESTS`] or more geometries.
//!
//! All models operate on **line addresses** (global texel index / 16); the
//! rasterizer hands the machine 8 texel addresses per fragment and the node
//! probes the cache once per texel access, exactly like the 8-reads-per-cycle
//! port of the paper's engine.
//!
//! # Examples
//!
//! ```
//! use sortmid_cache::{CacheGeometry, LineCache, SetAssocCache};
//!
//! let mut cache = SetAssocCache::new(CacheGeometry::paper_l1());
//! assert!(!cache.access_line(42)); // cold miss
//! assert!(cache.access_line(42)); // now resident
//! assert_eq!(cache.stats().misses(), 1);
//! ```

pub mod classify;
pub mod dispatch;
pub mod geometry;
pub mod hierarchy;
pub mod perfect;
pub mod set_assoc;
pub mod stackdist;
pub mod stats;
pub mod trace;
pub mod victim;

pub use classify::ClassifyingCache;
pub use dispatch::AnyCache;
pub use geometry::{CacheGeometry, CacheGeometryError};
pub use hierarchy::TwoLevelCache;
pub use perfect::PerfectCache;
pub use set_assoc::SetAssocCache;
pub use stackdist::{
    evaluate_trace, evaluation_cost_weight, GeometryRequest, MattsonProfile, TraceEvaluation,
    STACKDIST_MIN_REQUESTS,
};
pub use stats::{CacheStats, MissBreakdown, MissIdentityError};
pub use trace::LineAccessTrace;
pub use victim::VictimCache;

use sortmid_observe::{MissClass, MissClassCounts};

/// A line-granular cache simulator.
///
/// `access_line` returns `true` on a hit. Misses are assumed to allocate
/// (fetch the full line); eviction policy is up to the implementation.
///
/// The machine stores per-node caches as the concrete [`AnyCache`] enum,
/// so every probe dispatches by `match` and inlines.
pub trait LineCache {
    /// Simulates one access to `line`; returns `true` on a hit.
    fn access_line(&mut self, line: u32) -> bool;

    /// [`access_line`](Self::access_line) that additionally reports which
    /// three-C class the miss falls in, for models that classify
    /// ([`ClassifyingCache`] does; the default forwards to `access_line`
    /// and reports `None`). The hit/miss result and every statistics side
    /// effect are identical to `access_line` — classification only
    /// observes, which is what keeps traced machine runs byte-identical to
    /// untraced ones.
    fn access_line_classified(&mut self, line: u32) -> (bool, Option<MissClass>) {
        (self.access_line(line), None)
    }

    /// Resolves a whole *lane* of line addresses — one fragment's texel
    /// footprint — in one call. Miss lines are written to the front of
    /// `miss_out` **in access order** and the miss count is returned;
    /// classified misses (when the model classifies) are accumulated into
    /// `classes`.
    ///
    /// The contract is strict equivalence with the scalar loop: after the
    /// call, residency, eviction order, statistics, breakdowns and the
    /// reported miss lines are byte-identical to calling
    /// [`access_line_classified`](Self::access_line_classified) once per
    /// element of `lane`. The default implementation *is* that loop;
    /// models override it only to go faster (batched compares, run
    /// collapsing), never to change observable behaviour.
    ///
    /// # Panics
    ///
    /// May panic if `miss_out.len() < lane.len()` (every probe can miss).
    #[inline]
    fn access_lane(
        &mut self,
        lane: &[u32],
        miss_out: &mut [u32],
        classes: &mut MissClassCounts,
    ) -> usize {
        let mut misses = 0;
        for &line in lane {
            let (hit, class) = self.access_line_classified(line);
            if !hit {
                miss_out[misses] = line;
                misses += 1;
                if let Some(class) = class {
                    classes.add(class);
                }
            }
        }
        misses
    }

    /// Accumulated statistics.
    fn stats(&self) -> &CacheStats;

    /// Lines fetched from *external* texture memory so far (for a
    /// single-level cache this equals `stats().misses()`).
    fn external_fetches(&self) -> u64 {
        self.stats().misses()
    }

    /// Per-kind miss decomposition, when the model tracks it
    /// ([`ClassifyingCache`] does; the others return `None`).
    fn breakdown(&self) -> Option<stats::MissBreakdown> {
        None
    }

    /// Clears contents and statistics.
    fn reset(&mut self);
}
