//! Precomputed routing: owner lookup tables and per-triangle fragment
//! buckets shared across machine configurations.
//!
//! Where a triangle goes — which nodes its bounding box overlaps, which
//! node owns each of its fragments — depends only on the stream, the
//! [`Distribution`] and the processor count. Cache geometry, bus ratio and
//! FIFO depth do not move a single fragment. A figure sweep evaluates
//! dozens of configs that differ only in those latter axes, so deriving
//! per-fragment ownership (two euclidean div/rems per fragment) and
//! re-partitioning the stream for *every* config is pure redundancy.
//!
//! A [`RoutingPlan`] hoists that work out of the run: one pass over the
//! stream counting-sorts every triangle's fragments by owning node into a
//! flat index array, guided by an [`OwnerLut`] that replaces the div/rem
//! chain with two table lookups and an add (the direct engine routes
//! through the same LUT, one triangle at a time).
//! [`crate::sweep::run_sweep`] groups its config grid by
//! `(distribution, processors)` so each plan is built once and shared
//! read-only across host threads by the configs that replay a shared
//! cache capture or stack-distance evaluation. Those reports are
//! **identical** to direct runs — the routing is precomputed, not
//! approximated.

use crate::distribution::Distribution;
use sortmid_geom::Rect;
use sortmid_raster::{FragBatch, FragmentStream};

/// Per-pixel owner lookup replacing [`Distribution::owner`]'s div/rem
/// chain with two table reads and one conditional subtract.
///
/// Every distribution the simulator models is *additively separable*:
/// `owner(x, y) = (fx(x) + fy(y)) mod P`. Block and rectangular tiles are
/// `(tx + s·ty) mod P`, raster-order blocks are `(tx + tiles_x·ty) mod P`,
/// and the SLI schemes do not depend on `x` at all. The LUT stores
/// `fx mod P` per pixel column and `fy mod P` per pixel row; both residues
/// are `< P`, so their sum needs at most one subtraction of `P`.
///
/// A future distribution that breaks separability must extend this type —
/// [`OwnerLut::build`] verifies the decomposition exhaustively in debug
/// builds, and the unit tests check every variant on a full screen.
///
/// # Examples
///
/// ```
/// use sortmid::plan::OwnerLut;
/// use sortmid::Distribution;
/// use sortmid_geom::Rect;
///
/// let dist = Distribution::block(16);
/// let lut = OwnerLut::build(&dist, Rect::of_size(640, 480), 13);
/// assert_eq!(lut.owner(123, 456), dist.owner(123, 456, 13));
/// ```
#[derive(Debug, Clone)]
pub struct OwnerLut {
    procs: u32,
    /// `fx(x) mod procs` for every pixel column of the screen.
    x_add: Vec<u32>,
    /// `fy(y) mod procs` for every pixel row of the screen.
    y_add: Vec<u32>,
}

impl OwnerLut {
    /// Builds the lookup tables for `dist` over `screen` (pixels
    /// `0..screen.x1` × `0..screen.y1`, the coordinate range fragments are
    /// rasterized into).
    ///
    /// # Panics
    ///
    /// Panics if `procs` is zero.
    pub fn build(dist: &Distribution, screen: Rect, procs: u32) -> OwnerLut {
        assert!(procs >= 1, "need at least one processor");
        let width = screen.x1.max(1) as usize;
        let height = screen.y1.max(1) as usize;
        let base = dist.owner(0, 0, procs);
        let x_add: Vec<u32> = (0..width as i32)
            .map(|x| (dist.owner(x, 0, procs) + procs - base) % procs)
            .collect();
        let y_add: Vec<u32> = (0..height as i32).map(|y| dist.owner(0, y, procs)).collect();
        let lut = OwnerLut { procs, x_add, y_add };
        #[cfg(debug_assertions)]
        for y in 0..height as i32 {
            for x in 0..width as i32 {
                debug_assert_eq!(
                    lut.owner(x as u16, y as u16),
                    dist.owner(x, y, procs),
                    "owner not additively separable at ({x},{y}) under {dist}",
                );
            }
        }
        lut
    }

    /// The processor count the tables were built for.
    pub fn procs(&self) -> u32 {
        self.procs
    }

    /// The owner of pixel `(x, y)`; coordinates must lie on the screen the
    /// LUT was built for.
    #[inline]
    pub fn owner(&self, x: u16, y: u16) -> u32 {
        let sum = self.x_add[x as usize] + self.y_add[y as usize];
        if sum >= self.procs {
            sum - self.procs
        } else {
            sum
        }
    }
}

/// One non-culled triangle's routing decisions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanTriangle {
    /// Index into [`FragmentStream::triangles`].
    pub(crate) tri: u32,
    /// Nodes the bounding box overlaps (who pays the setup floor).
    pub(crate) mask: u128,
    /// Range in [`RoutingPlan::segments`] holding this triangle's
    /// per-owner fragment buckets.
    pub(crate) seg_start: u32,
    pub(crate) seg_end: u32,
}

/// One owner's contiguous bucket within a triangle's fragment range.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment {
    /// The owning node.
    pub(crate) owner: u32,
    /// Exclusive end of the bucket in [`RoutingPlan::frag_order`]; the
    /// bucket starts where the previous segment of the same triangle ends
    /// (or at the triangle's `frag_start`).
    pub(crate) end: u32,
}

/// The precomputed routing of one `(stream, distribution, procs)` triple.
///
/// Holds, for every non-culled triangle in stream order, its overlap mask
/// and its fragments bucketed by owning node as contiguous ranges of a
/// single flat index array (a stable counting sort — no per-triangle
/// allocation, no pointer chasing). Building is one pass over the stream;
/// the sweep's capture and replay paths then walk it with no per-fragment
/// ownership math.
///
/// # Examples
///
/// ```
/// use sortmid::plan::RoutingPlan;
/// use sortmid::{Distribution, Machine, MachineConfig};
/// use sortmid_scene::{Benchmark, SceneBuilder};
///
/// let stream = SceneBuilder::benchmark(Benchmark::Quake).scale(0.1).build().rasterize();
/// let dist = Distribution::block(16);
/// let plan = RoutingPlan::build(&stream, &dist, 8);
/// let config = MachineConfig::builder()
///     .processors(8)
///     .distribution(dist)
///     .build()
///     .unwrap();
/// let direct = Machine::new(config).run(&stream);
/// assert_eq!(plan.routed(), direct.triangles_routed());
/// ```
#[derive(Debug, Clone)]
pub struct RoutingPlan {
    distribution: Distribution,
    procs: u32,
    /// Non-culled triangles in stream order.
    pub(crate) triangles: Vec<PlanTriangle>,
    /// Fragment indices into [`FragmentStream::fragments`]: each
    /// triangle's `frag_start..frag_end` range, reordered so that one
    /// owner's fragments are contiguous (stream order within an owner).
    pub(crate) frag_order: Vec<u32>,
    /// Per-owner bucket boundaries, CSR-indexed by [`PlanTriangle`].
    pub(crate) segments: Vec<Segment>,
    /// Total routed triangle deliveries (sum of mask popcounts).
    routed: u64,
}

impl RoutingPlan {
    /// Precomputes the routing of `stream` under `dist` with `procs`
    /// nodes, in one pass over the fragments.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is outside `1..=`[`crate::MAX_PROCESSORS`].
    pub fn build(stream: &FragmentStream, dist: &Distribution, procs: u32) -> RoutingPlan {
        Self::build_from_batch(stream, &FragBatch::from_stream(stream), dist, procs)
    }

    /// Like [`build`](Self::build) with the stream's [`FragBatch`] already
    /// pivoted (callers amortising the batch across several plans):
    /// per-fragment ownership reads the batch's dense coordinate lanes
    /// instead of gathering 40-byte fragments.
    pub fn build_from_batch(
        stream: &FragmentStream,
        batch: &FragBatch,
        dist: &Distribution,
        procs: u32,
    ) -> RoutingPlan {
        assert_eq!(
            batch.len() as u64,
            stream.fragment_count(),
            "batch does not mirror the stream"
        );
        assert!(
            (1..=crate::MAX_PROCESSORS).contains(&procs),
            "processor count {procs} outside 1..={}",
            crate::MAX_PROCESSORS
        );
        let lut = OwnerLut::build(dist, stream.screen(), procs);
        let mut frag_order = vec![0u32; batch.len()];
        let mut triangles = Vec::new();
        let mut segments = Vec::new();
        let mut routed = 0u64;
        // Reused per-triangle scratch: owner of each fragment, per-owner
        // counts, and per-owner write cursors for the stable scatter.
        let mut owners: Vec<u32> = Vec::new();
        let mut counts = vec![0u32; procs as usize];
        let mut cursors = vec![0u32; procs as usize];

        for (tri_index, tri) in stream.triangles().iter().enumerate() {
            if tri.is_culled() {
                continue;
            }
            let mask = dist.overlap_mask(&tri.bbox, procs);
            debug_assert_ne!(mask, 0, "non-culled triangle must route somewhere");
            routed += mask.count_ones() as u64;

            let range = tri.frag_start as usize..tri.frag_end as usize;
            owners.clear();
            for fi in range {
                let owner = lut.owner(batch.x(fi), batch.y(fi));
                debug_assert!(mask & (1u128 << owner) != 0, "owner outside overlap mask");
                owners.push(owner);
                counts[owner as usize] += 1;
            }

            // Bucket boundaries (ascending owner), then the stable scatter.
            let seg_start = segments.len() as u32;
            let mut cursor = tri.frag_start;
            for owner in 0..procs {
                let count = counts[owner as usize];
                if count > 0 {
                    cursors[owner as usize] = cursor;
                    cursor += count;
                    segments.push(Segment { owner, end: cursor });
                }
            }
            for (offset, &owner) in owners.iter().enumerate() {
                let slot = &mut cursors[owner as usize];
                frag_order[*slot as usize] = tri.frag_start + offset as u32;
                *slot += 1;
            }
            for &owner in &owners {
                counts[owner as usize] = 0;
            }

            triangles.push(PlanTriangle {
                tri: tri_index as u32,
                mask,
                seg_start,
                seg_end: segments.len() as u32,
            });
        }

        RoutingPlan {
            distribution: dist.clone(),
            procs,
            triangles,
            frag_order,
            segments,
            routed,
        }
    }

    /// The distribution the plan was built for.
    pub fn distribution(&self) -> &Distribution {
        &self.distribution
    }

    /// The processor count the plan was built for.
    pub fn procs(&self) -> u32 {
        self.procs
    }

    /// Total triangle deliveries (each triangle counted once per
    /// overlapped node) — the sweep's routed count.
    pub fn routed(&self) -> u64 {
        self.routed
    }

    /// Non-culled triangles in the plan.
    pub fn triangle_count(&self) -> usize {
        self.triangles.len()
    }

    /// Every owner bucket as `(owner, fragment indices)`, in machine
    /// processing order: triangles in stream order, each triangle's
    /// buckets in ascending owner order, each bucket in stream order.
    pub(crate) fn buckets<'a>(
        &'a self,
        stream: &'a FragmentStream,
    ) -> impl Iterator<Item = (usize, &'a [u32])> + 'a {
        let triangles = stream.triangles();
        self.triangles.iter().flat_map(move |pt| {
            let mut start = triangles[pt.tri as usize].frag_start as usize;
            self.segments[pt.seg_start as usize..pt.seg_end as usize]
                .iter()
                .map(move |seg| {
                    let bucket = &self.frag_order[start..seg.end as usize];
                    start = seg.end as usize;
                    (seg.owner as usize, bucket)
                })
        })
    }

    /// True when the plan can replay runs of `config`-shaped machines:
    /// same distribution and processor count.
    pub fn matches(&self, distribution: &Distribution, procs: u32) -> bool {
        self.procs == procs && self.distribution == *distribution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheKind;
    use crate::machine::Machine;
    use crate::replay::{capture_direct, replay_timing};
    use crate::MachineConfig;
    use sortmid_devharness::prop::{check, Config};
    use sortmid_devharness::prop_assert_eq;
    use sortmid_scene::{Benchmark, SceneBuilder};

    fn stream() -> FragmentStream {
        SceneBuilder::benchmark(Benchmark::Quake)
            .scale(0.1)
            .build()
            .rasterize()
    }

    fn all_distributions() -> Vec<Distribution> {
        vec![
            Distribution::block(16),
            Distribution::block(3),
            Distribution::tile(32, 8),
            Distribution::sli(4),
            Distribution::dynamic_sli(vec![10, 30, 100, 4000]),
            Distribution::block_raster(16, 1024),
        ]
    }

    #[test]
    fn owner_lut_agrees_with_distribution_on_every_pixel() {
        let screen = Rect::of_size(96, 64);
        for dist in all_distributions() {
            for procs in [1u32, 3, 4, 7, 16, 64] {
                let lut = OwnerLut::build(&dist, screen, procs);
                for y in 0..screen.y1 {
                    for x in 0..screen.x1 {
                        assert_eq!(
                            lut.owner(x as u16, y as u16),
                            dist.owner(x, y, procs),
                            "{dist} procs={procs} pixel=({x},{y})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn plan_buckets_partition_every_triangle_range() {
        let s = stream();
        let plan = RoutingPlan::build(&s, &Distribution::block(16), 7);
        let mut live = 0;
        for pt in &plan.triangles {
            let tri = &s.triangles()[pt.tri as usize];
            assert!(!tri.is_culled());
            live += 1;
            // Segments tile the triangle's fragment range in ascending
            // owner order, and every indexed fragment belongs to its owner.
            let mut start = tri.frag_start;
            let mut prev_owner = None;
            for seg in &plan.segments[pt.seg_start as usize..pt.seg_end as usize] {
                assert!(prev_owner < Some(seg.owner), "owners ascend");
                assert!(seg.end > start && seg.end <= tri.frag_end);
                for &fi in &plan.frag_order[start as usize..seg.end as usize] {
                    assert!((tri.frag_start..tri.frag_end).contains(&fi));
                    let f = &s.fragments()[fi as usize];
                    assert_eq!(
                        Distribution::block(16).owner(f.x as i32, f.y as i32, 7),
                        seg.owner
                    );
                }
                prev_owner = Some(seg.owner);
                start = seg.end;
            }
            assert_eq!(start, tri.frag_end, "buckets cover the whole range");
        }
        assert_eq!(
            live,
            s.triangles().iter().filter(|t| !t.is_culled()).count()
        );
    }

    #[test]
    fn plan_routed_matches_direct_run() {
        let s = stream();
        for dist in [Distribution::block(16), Distribution::sli(2)] {
            let plan = RoutingPlan::build(&s, &dist, 16);
            let config = MachineConfig::builder()
                .processors(16)
                .distribution(dist)
                .cache(CacheKind::Perfect)
                .build()
                .unwrap();
            let direct = Machine::new(config).run(&s);
            assert_eq!(plan.routed(), direct.triangles_routed());
        }
    }

    #[test]
    fn matches_checks_both_axes() {
        let s = stream();
        let plan = RoutingPlan::build(&s, &Distribution::block(16), 8);
        assert!(plan.matches(&Distribution::block(16), 8));
        assert!(!plan.matches(&Distribution::block(16), 4));
        assert!(!plan.matches(&Distribution::block(8), 8));
    }

    /// A plan-driven capture replay and the direct run produce identical
    /// `RunReport`s over a randomized grid of distributions (block / SLI /
    /// rectangular tiles) and processor counts, including non-powers-of-two.
    #[test]
    fn prop_planned_run_equals_direct_run() {
        let s = stream();
        check(
            "planned_run_equals_direct_run",
            &Config::with_cases(24),
            |g| {
                (
                    g.u32_in(0..3),
                    g.u32_in(1..40),
                    g.u32_in(1..30),
                    g.u32_in(1..66),
                    g.u32_in(0..2),
                )
            },
            |&(shape, a, b, procs, cache)| {
                let dist = match shape {
                    0 => Distribution::block(a),
                    1 => Distribution::sli(a),
                    _ => Distribution::tile(a, b),
                };
                let kind = if cache == 0 {
                    CacheKind::PaperL1
                } else {
                    CacheKind::Perfect
                };
                let config = MachineConfig::builder()
                    .processors(procs)
                    .distribution(dist.clone())
                    .cache(kind)
                    .triangle_buffer(64)
                    .build()
                    .expect("valid config");
                let plan = RoutingPlan::build(&s, &dist, procs);
                let capture = capture_direct(kind, &FragBatch::from_stream(&s), &s, &plan);
                let planned = replay_timing(&config, &s, &plan, capture.nodes());
                let direct = Machine::new(config).run(&s);
                prop_assert_eq!(&planned, &direct);
                prop_assert_eq!(format!("{planned:?}"), format!("{direct:?}"));
                Ok(())
            },
        );
    }
}
