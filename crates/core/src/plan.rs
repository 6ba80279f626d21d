//! Routing: owner lookup tables and per-triangle fragment buckets.
//!
//! Where a triangle goes — which nodes its bounding box overlaps, which
//! node owns each of its fragments — depends only on the stream, the
//! [`Distribution`] and the processor count; cache geometry, bus ratio and
//! FIFO depth do not move a single fragment. A [`RoutingPlan`] records
//! that routing once: one pass counting-sorts every triangle's fragments
//! by owning node into a flat index array, guided by an [`OwnerLut`] that
//! replaces the div/rem chain with two table lookups and an add.
//!
//! [`Machine::run`](crate::Machine::run) and every sweep frame group route
//! their frame into one reused plan a window at a time. A whole-frame
//! [`RoutingPlan::build`] serves only the stack-distance evaluation's line
//! trace ([`crate::replay::capture_line_trace`]) and sort-last routing.

use crate::distribution::Distribution;
use sortmid_geom::Rect;
use sortmid_raster::{FragmentStream, TriangleRecord};
use std::ops::Range;

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
    /// (or at the triangle's first fragment).
    pub(crate) end: u32,
}

/// The precomputed routing of a range of triangles under one
/// `(distribution, procs)` pair — one window at a time for
/// [`Machine::run`](crate::Machine::run) and the sweep's frame groups, the
/// whole frame for a stack-distance evaluation's line trace.
///
/// Holds, for every non-culled triangle in stream order, its overlap mask
/// and its fragments bucketed by owning node as contiguous ranges of a
/// single flat index array (a stable counting sort — no per-triangle
/// allocation, no pointer chasing). Routing is one pass over the range;
/// the capture and timing passes then walk it with no per-fragment
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
    lut: OwnerLut,
    /// Non-culled triangles of the routed range, in stream order.
    pub(crate) triangles: Vec<PlanTriangle>,
    /// The stream index of the routed range's first fragment:
    /// `frag_order` position `p` belongs to fragment range slot
    /// `base + p`.
    pub(crate) base: u32,
    /// Fragment indices into [`FragmentStream::fragments`]: each
    /// triangle's `frag_start..frag_end` range, reordered so that one
    /// owner's fragments are contiguous (stream order within an owner).
    pub(crate) frag_order: Vec<u32>,
    /// Per-owner bucket boundaries, CSR-indexed by [`PlanTriangle`].
    pub(crate) segments: Vec<Segment>,
    /// Triangle deliveries of the routed range (sum of mask popcounts).
    routed: u64,
    /// Counting-sort scratch, reused triangle to triangle: the owner of
    /// each fragment, and per-owner counts that turn into write cursors.
    owners: Vec<u32>,
    counts: Vec<u32>,
}

impl RoutingPlan {
    /// Precomputes the routing of every triangle of `stream` under `dist`
    /// with `procs` nodes, in one pass over the fragments.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is outside `1..=`[`crate::MAX_PROCESSORS`].
    pub fn build(stream: &FragmentStream, dist: &Distribution, procs: u32) -> RoutingPlan {
        let mut plan = Self::new(stream, dist, procs);
        plan.route(stream, 0..stream.triangle_count());
        // A whole-frame plan outlives its build (the sweep keeps it until
        // its evaluation has run): release the sort scratch, which grew to
        // the largest triangle.
        plan.owners = Vec::new();
        plan
    }

    /// An empty plan for `stream`'s screen, ready to [`route`](Self::route)
    /// triangle ranges into.
    pub(crate) fn new(stream: &FragmentStream, dist: &Distribution, procs: u32) -> RoutingPlan {
        assert!(
            (1..=crate::MAX_PROCESSORS).contains(&procs),
            "processor count {procs} outside 1..={}",
            crate::MAX_PROCESSORS
        );
        RoutingPlan {
            distribution: dist.clone(),
            procs,
            lut: OwnerLut::build(dist, stream.screen(), procs),
            triangles: Vec::new(),
            base: 0,
            frag_order: Vec::new(),
            segments: Vec::new(),
            routed: 0,
            owners: Vec::new(),
            counts: vec![0; procs as usize],
        }
    }

    /// Replaces the plan's contents with the routing of triangles `tris`
    /// of `stream`. The buffers are reused, so routing a frame window by
    /// window costs O(window) memory.
    pub(crate) fn route(&mut self, stream: &FragmentStream, tris: Range<usize>) {
        self.reset(stream, tris.clone());
        for tri in tris {
            let record = &stream.triangles()[tri];
            if record.is_culled() {
                continue;
            }
            let mask = self.distribution.overlap_mask(&record.bbox, self.procs);
            debug_assert_ne!(mask, 0, "non-culled triangle must route somewhere");
            if mask.is_power_of_two() {
                // One overlapped node owns every fragment.
                self.counts[mask.trailing_zeros() as usize] = record.fragment_count();
            } else {
                let (lut, counts) = (&self.lut, &mut self.counts);
                self.owners.clear();
                self.owners.extend(stream.fragments_of(record).iter().map(|frag| {
                    let owner = lut.owner(frag.x, frag.y);
                    debug_assert!(mask & (1u128 << owner) != 0, "owner outside overlap mask");
                    counts[owner as usize] += 1;
                    owner
                }));
            }
            self.push_triangle(tri, record, mask);
        }
    }

    /// The routing of a sort-last machine: triangles are dealt whole, the
    /// `k`-th non-culled one to node `owner(k)`, and reach no other node.
    pub(crate) fn single_owner(
        stream: &FragmentStream,
        dist: &Distribution,
        procs: u32,
        mut owner: impl FnMut(u64) -> u32,
    ) -> RoutingPlan {
        let mut plan = Self::new(stream, dist, procs);
        let tris = 0..stream.triangle_count();
        plan.reset(stream, tris.clone());
        let mut live = 0u64;
        for tri in tris {
            let record = &stream.triangles()[tri];
            if record.is_culled() {
                continue;
            }
            let node = owner(live);
            live += 1;
            plan.counts[node as usize] = record.fragment_count();
            plan.push_triangle(tri, record, 1u128 << node);
        }
        plan
    }

    /// Appends triangle `tri` with overlap `mask`, given its per-owner
    /// fragment counts in `self.counts` and, when several nodes own
    /// fragments, each fragment's owner in `self.owners`: a stable counting
    /// sort into per-owner segments, so each bucket keeps stream order.
    fn push_triangle(&mut self, tri: usize, record: &TriangleRecord, mask: u128) {
        self.routed += mask.count_ones() as u64;
        // Bucket boundaries (ascending owner; every owner lies in the
        // mask), leaving each owner's write cursor in `counts`.
        let seg_start = self.segments.len() as u32;
        let first = record.frag_start - self.base;
        let mut cursor = first;
        let mut m = mask;
        while m != 0 {
            let owner = m.trailing_zeros();
            m &= m - 1;
            let count = std::mem::replace(&mut self.counts[owner as usize], cursor);
            if count > 0 {
                cursor += count;
                self.segments.push(Segment { owner, end: cursor });
            }
        }
        if self.segments.len() as u32 - seg_start <= 1 {
            // At most one owner: the bucket is the triangle's range as it
            // stands.
            let order = &mut self.frag_order[first as usize..cursor as usize];
            for (slot, fi) in order.iter_mut().zip(record.frag_start..) {
                *slot = fi;
            }
        } else {
            for (fi, &owner) in (record.frag_start..).zip(&self.owners) {
                let slot = &mut self.counts[owner as usize];
                self.frag_order[*slot as usize] = fi;
                *slot += 1;
            }
        }
        self.counts.fill(0);
        self.triangles.push(PlanTriangle {
            tri: tri as u32,
            mask,
            seg_start,
            seg_end: self.segments.len() as u32,
        });
    }

    /// Empties the plan for routing triangles `tris` of `stream`.
    fn reset(&mut self, stream: &FragmentStream, tris: Range<usize>) {
        let records = &stream.triangles()[tris];
        let start = records.first().map_or(0, |t| t.frag_start);
        let end = records.last().map_or(start, |t| t.frag_end);
        self.base = start;
        self.frag_order.clear();
        self.frag_order.resize((end - start) as usize, 0);
        self.triangles.clear();
        self.segments.clear();
        self.routed = 0;
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

    /// One triangle's owner buckets as `(owner, fragment indices)`, in
    /// ascending owner order, each bucket in stream order.
    pub(crate) fn triangle_buckets<'a>(
        &'a self,
        pt: &PlanTriangle,
        stream: &FragmentStream,
    ) -> impl Iterator<Item = (usize, &'a [u32])> + 'a {
        let mut start = (stream.triangles()[pt.tri as usize].frag_start - self.base) as usize;
        self.segments[pt.seg_start as usize..pt.seg_end as usize]
            .iter()
            .map(move |seg| {
                let bucket = &self.frag_order[start..seg.end as usize];
                start = seg.end as usize;
                (seg.owner as usize, bucket)
            })
    }

    /// Every owner bucket as `(owner, fragment indices)`, in machine
    /// processing order: triangles in stream order, each triangle's
    /// buckets in ascending owner order, each bucket in stream order.
    pub(crate) fn buckets<'a>(
        &'a self,
        stream: &'a FragmentStream,
    ) -> impl Iterator<Item = (usize, &'a [u32])> + 'a {
        self.triangles.iter().flat_map(move |pt| self.triangle_buckets(pt, stream))
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
    use crate::reference::run_reference;
    use crate::MachineConfig;
    use sortmid_devharness::prop::{check, Config};
    use sortmid_devharness::prop_assert_eq;
    use sortmid_observe::NullSink;
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

    /// The windowed, plan-routed `Machine::run` and the per-texel reference
    /// oracle produce identical `RunReport`s over a randomized grid of
    /// distributions (block / SLI / rectangular tiles) and processor
    /// counts, including non-powers-of-two.
    #[test]
    fn prop_planned_run_equals_reference_run() {
        let s = stream();
        check(
            "planned_run_equals_reference_run",
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
                    .distribution(dist)
                    .cache(kind)
                    .triangle_buffer(64)
                    .build()
                    .expect("valid config");
                let planned = Machine::new(config.clone()).run(&s);
                let reference = run_reference(&config, &s, &mut NullSink);
                prop_assert_eq!(&planned, &reference);
                prop_assert_eq!(format!("{planned:?}"), format!("{reference:?}"));
                Ok(())
            },
        );
    }
}
