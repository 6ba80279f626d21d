//! Concrete enum dispatch over the built-in cache models.
//!
//! The machine probes a node's cache 8 times per fragment (once per texel
//! of the trilinear footprint). Through `Box<dyn LineCache>` every probe is
//! a virtual call the compiler cannot inline; [`AnyCache`] replaces that
//! with a `match` on a concrete enum, so the dominant [`SetAssocCache`] and
//! [`PerfectCache`] probes inline straight into the texel loop.

use crate::classify::ClassifyingCache;
use crate::geometry::CacheGeometry;
use crate::hierarchy::TwoLevelCache;
use crate::perfect::PerfectCache;
use crate::set_assoc::{GrowingSetAssocCache, SetAssocCache, EAGER_TAGS};
use crate::stats::{CacheStats, MissBreakdown};
use crate::victim::VictimCache;
use crate::LineCache;
use sortmid_observe::{MissClass, MissClassCounts};

/// A cache model dispatched by `match` instead of vtable.
///
/// Implements [`LineCache`] itself, so it drops in anywhere a boxed cache
/// was used; the difference is that `access_line` on the known variants is
/// a direct (inlinable) call.
///
/// # Examples
///
/// ```
/// use sortmid_cache::{AnyCache, LineCache, PerfectCache};
///
/// let mut cache = AnyCache::from(PerfectCache::new());
/// assert!(cache.access_line(7));
/// assert_eq!(cache.stats().misses(), 0);
/// ```
pub enum AnyCache {
    /// The always-hit model.
    Perfect(PerfectCache),
    /// The set-associative LRU simulator (the paper's L1).
    SetAssoc(SetAssocCache),
    /// Set-associative with three-C miss classification.
    Classifying(ClassifyingCache),
    /// The two-level hierarchy.
    TwoLevel(TwoLevelCache),
    /// Set-associative L1 plus victim buffer.
    Victim(VictimCache),
    /// The set-associative simulator for a large geometry, storing only
    /// what it touches.
    Growing(GrowingSetAssocCache),
}

macro_rules! dispatch {
    ($self:expr, $c:ident => $body:expr) => {
        match $self {
            AnyCache::Perfect($c) => $body,
            AnyCache::SetAssoc($c) => $body,
            AnyCache::Classifying($c) => $body,
            AnyCache::TwoLevel($c) => $body,
            AnyCache::Victim($c) => $body,
            AnyCache::Growing($c) => $body,
        }
    };
}

impl std::fmt::Debug for AnyCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        dispatch!(self, c => c.fmt(f))
    }
}

impl AnyCache {
    /// The set-associative model of `geometry`: a [`SetAssocCache`] for up
    /// to 1,024 tags (one 4 KiB page), else a [`GrowingSetAssocCache`].
    pub fn set_assoc(geometry: CacheGeometry) -> Self {
        if geometry.sets() as usize * geometry.ways() as usize <= EAGER_TAGS {
            AnyCache::SetAssoc(SetAssocCache::new(geometry))
        } else {
            AnyCache::Growing(GrowingSetAssocCache::new(geometry))
        }
    }

    /// A short human-readable model name, used to label per-node tracks in
    /// trace exports (e.g. Perfetto process names).
    pub fn label(&self) -> &'static str {
        match self {
            AnyCache::Perfect(_) => "perfect",
            AnyCache::SetAssoc(_) | AnyCache::Growing(_) => "set-assoc",
            AnyCache::Classifying(_) => "classifying",
            AnyCache::TwoLevel(_) => "two-level",
            AnyCache::Victim(_) => "victim",
        }
    }
}

impl From<PerfectCache> for AnyCache {
    fn from(c: PerfectCache) -> Self {
        AnyCache::Perfect(c)
    }
}

impl From<SetAssocCache> for AnyCache {
    fn from(c: SetAssocCache) -> Self {
        AnyCache::SetAssoc(c)
    }
}

impl From<ClassifyingCache> for AnyCache {
    fn from(c: ClassifyingCache) -> Self {
        AnyCache::Classifying(c)
    }
}

impl From<TwoLevelCache> for AnyCache {
    fn from(c: TwoLevelCache) -> Self {
        AnyCache::TwoLevel(c)
    }
}

impl From<VictimCache> for AnyCache {
    fn from(c: VictimCache) -> Self {
        AnyCache::Victim(c)
    }
}

impl LineCache for AnyCache {
    #[inline]
    fn access_line(&mut self, line: u32) -> bool {
        dispatch!(self, c => c.access_line(line))
    }

    #[inline]
    fn access_line_classified(&mut self, line: u32) -> (bool, Option<MissClass>) {
        dispatch!(self, c => c.access_line_classified(line))
    }

    #[inline]
    fn access_lane(
        &mut self,
        lane: &[u32],
        miss_out: &mut [u32],
        classes: &mut MissClassCounts,
    ) -> usize {
        dispatch!(self, c => c.access_lane(lane, miss_out, classes))
    }

    #[inline]
    fn stats(&self) -> &CacheStats {
        dispatch!(self, c => c.stats())
    }

    #[inline]
    fn external_fetches(&self) -> u64 {
        dispatch!(self, c => c.external_fetches())
    }

    fn breakdown(&self) -> Option<MissBreakdown> {
        // UFCS: `ClassifyingCache` also has an *inherent* `breakdown`
        // returning the bare struct, which would shadow the trait method.
        dispatch!(self, c => LineCache::breakdown(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CacheGeometry;

    fn all_kinds() -> Vec<AnyCache> {
        vec![
            AnyCache::from(PerfectCache::new()),
            AnyCache::from(SetAssocCache::new(CacheGeometry::paper_l1())),
            AnyCache::from(ClassifyingCache::new(CacheGeometry::paper_l1())),
            AnyCache::from(TwoLevelCache::new(
                CacheGeometry::paper_l1(),
                CacheGeometry::paper_l2(),
            )),
            AnyCache::from(VictimCache::new(CacheGeometry::paper_l1(), 4)),
        ]
    }

    #[test]
    fn enum_behaves_like_the_inner_model() {
        for mut any in all_kinds() {
            any.access_line(3);
            any.access_line(3);
            assert_eq!(any.stats().accesses(), 2, "{any:?}");
            // Second access to the same line hits in every model.
            assert!(any.stats().hits() >= 1, "{any:?}");
        }
    }

    #[test]
    fn enum_matches_direct_set_assoc() {
        let geometry = CacheGeometry::new(512, 2, 64).unwrap();
        let mut direct = SetAssocCache::new(geometry);
        let mut via_enum = AnyCache::from(SetAssocCache::new(geometry));
        let mut x = 1u32;
        for _ in 0..10_000 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            let line = (x >> 16) % 96;
            assert_eq!(direct.access_line(line), via_enum.access_line(line));
        }
        assert_eq!(direct.stats().misses(), via_enum.stats().misses());
    }

    #[test]
    fn labels_are_distinct_per_known_variant() {
        let labels: Vec<&str> = all_kinds().iter().map(AnyCache::label).collect();
        assert_eq!(
            labels,
            ["perfect", "set-assoc", "classifying", "two-level", "victim"]
        );
    }

    #[test]
    fn classifying_breakdown_survives_dispatch() {
        let mut any = AnyCache::from(ClassifyingCache::new(CacheGeometry::paper_l1()));
        any.access_line(1);
        let b = any.breakdown().expect("classifying model tracks misses");
        assert_eq!(b.compulsory, 1);
        // Non-classifying models report no breakdown.
        assert!(AnyCache::from(PerfectCache::new()).breakdown().is_none());
    }

    #[test]
    fn access_lane_matches_scalar_loop_for_every_variant() {
        // Two independently-built pools so batched and scalar runs start
        // from identical cold caches.
        for (mut batched, mut scalar) in all_kinds().into_iter().zip(all_kinds()) {
            let mut x = 7u32;
            let mut lane = [0u32; 8];
            for _ in 0..400 {
                for slot in lane.iter_mut() {
                    x = x.wrapping_mul(1103515245).wrapping_add(12345);
                    // Small space + forced runs: duplicates are common.
                    *slot = (x >> 16) % 40;
                }
                lane[1] = lane[0];
                lane[4] = lane[3];
                let mut miss_out = [0u32; 8];
                let mut classes = MissClassCounts::default();
                let n = batched.access_lane(&lane, &mut miss_out, &mut classes);
                let mut expect = Vec::new();
                let mut expect_classes = MissClassCounts::default();
                for &line in &lane {
                    let (hit, class) = scalar.access_line_classified(line);
                    if !hit {
                        expect.push(line);
                        if let Some(class) = class {
                            expect_classes.add(class);
                        }
                    }
                }
                assert_eq!(&miss_out[..n], &expect[..], "{batched:?}");
                assert_eq!(classes, expect_classes, "{batched:?}");
            }
            assert_eq!(batched.stats(), scalar.stats(), "{batched:?}");
            assert_eq!(batched.external_fetches(), scalar.external_fetches());
            assert_eq!(
                LineCache::breakdown(&batched),
                LineCache::breakdown(&scalar),
                "{batched:?}"
            );
        }
    }

    #[test]
    fn classified_access_dispatches_per_variant() {
        let mut any = AnyCache::from(ClassifyingCache::new(CacheGeometry::paper_l1()));
        assert_eq!(
            any.access_line_classified(9),
            (false, Some(MissClass::Compulsory))
        );
        assert_eq!(any.access_line_classified(9), (true, None));
        // Unclassified models miss without a class...
        let mut sa = AnyCache::from(SetAssocCache::new(CacheGeometry::paper_l1()));
        assert_eq!(sa.access_line_classified(9), (false, None));
        // ...and the classified path must leave identical statistics.
        assert_eq!(sa.stats().accesses(), 1);
        assert_eq!(sa.stats().misses(), 1);
    }
}
