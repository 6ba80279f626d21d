//! Routing: owner lookup tables and per-triangle owner runs.
//!
//! Where a triangle goes — which nodes its bounding box overlaps, which
//! node owns each of its fragments — depends only on the stream, the
//! [`Distribution`] and the processor count; cache geometry, bus ratio and
//! FIFO depth do not move a single fragment. A `RoutingPlan` records
//! that routing once: one pass splits every triangle's fragments into
//! runs of consecutive fragments with one owner, and counts each owner's
//! fragments, guided by an [`OwnerLut`] that replaces the div/rem chain
//! with two table lookups and an add.
//!
//! [`Machine::run`](crate::Machine::run) and every sweep frame group route
//! their frame into one reused plan a window at a time; sort-last routing
//! deals a whole frame's triangles into one plan.

use crate::distribution::Distribution;
use sortmid_geom::Rect;
use sortmid_raster::FragmentStream;
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
#[derive(Debug, Clone)]
pub(crate) struct PlanTriangle {
    /// Index into [`FragmentStream::triangles`].
    pub(crate) tri: u32,
    /// Nodes the bounding box overlaps (who pays the setup floor).
    pub(crate) mask: u128,
    /// This triangle's owner runs in [`RoutingPlan::runs`] and its
    /// per-owner counts in [`RoutingPlan::segments`].
    runs: Range<u32>,
    segments: Range<u32>,
}

/// A maximal stretch of consecutive fragments, in stream order, that one
/// node owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    /// The owning node.
    pub(crate) owner: u32,
    /// The run's first fragment, as an index into
    /// [`FragmentStream::fragments`].
    pub(crate) start: u32,
    /// Fragments in the run (at least one).
    pub(crate) len: u32,
}

impl Run {
    /// The run's fragment indices.
    #[inline]
    pub(crate) fn range(&self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// How many of one triangle's fragments one node owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Segment {
    /// The owning node.
    pub(crate) owner: u32,
    /// Fragments it owns (at least one).
    pub(crate) count: u32,
}

/// The precomputed routing of a range of triangles under one
/// `(distribution, procs)` pair — one window at a time for
/// [`Machine::run`](crate::Machine::run) and the sweep's frame groups.
///
/// Holds, for every non-culled triangle in stream order, its overlap mask,
/// its fragments as owner [`Run`]s in stream order, and its per-owner
/// fragment counts as [`Segment`]s in ascending owner order. Under block
/// and SLI distributions the owner changes only at a tile or scanline
/// group edge, so a run spans many fragments and no per-fragment index is
/// kept: the cache passes read the runs' fragments where the stream holds
/// them. Routing is one pass over the range; the capture and timing passes
/// then walk it with no per-fragment ownership math.
#[derive(Debug, Clone)]
pub(crate) struct RoutingPlan {
    distribution: Distribution,
    procs: u32,
    lut: OwnerLut,
    /// Non-culled triangles of the routed range, in stream order.
    pub(crate) triangles: Vec<PlanTriangle>,
    /// Owner runs of every routed triangle, in stream order.
    runs: Vec<Run>,
    /// Per-owner fragment counts, CSR-indexed by [`PlanTriangle`].
    segments: Vec<Segment>,
    /// Triangle deliveries of the routed range (sum of mask popcounts).
    routed: u64,
    /// Per-owner fragment tally of the triangle being pushed, all zero
    /// between triangles.
    tally: Vec<u32>,
}

impl RoutingPlan {
    /// An empty plan for `stream`'s screen, ready to [`route`](Self::route)
    /// triangle ranges into.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is outside `1..=`[`crate::MAX_PROCESSORS`].
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
            runs: Vec::new(),
            segments: Vec::new(),
            routed: 0,
            tally: vec![0; procs as usize],
        }
    }

    /// Replaces the plan's contents with the routing of triangles `tris`
    /// of `stream`. The buffers are reused, so routing a frame window by
    /// window costs O(window) memory.
    ///
    /// A run grows while the next fragment has the run's owner, which
    /// makes the runs exact whatever order the rasterizer emits fragments
    /// in.
    pub(crate) fn route(&mut self, stream: &FragmentStream, tris: Range<usize>) {
        self.clear();
        for tri in tris {
            let record = &stream.triangles()[tri];
            if record.is_culled() {
                continue;
            }
            let mask = self.distribution.overlap_mask(&record.bbox, self.procs);
            debug_assert_ne!(mask, 0, "non-culled triangle must route somewhere");
            let run_start = self.runs.len();
            let frags = stream.fragments_of(record);
            if let Some((first, rest)) = frags.split_first() {
                if mask.is_power_of_two() {
                    // One overlapped node owns every fragment.
                    let owner = mask.trailing_zeros();
                    self.runs.push(Run { owner, start: record.frag_start, len: frags.len() as u32 });
                } else {
                    let lut = &self.lut;
                    let mut run =
                        Run { owner: lut.owner(first.x, first.y), start: record.frag_start, len: 1 };
                    for frag in rest {
                        let owner = lut.owner(frag.x, frag.y);
                        if owner == run.owner {
                            run.len += 1;
                        } else {
                            self.runs.push(run);
                            run = Run { owner, start: run.start + run.len, len: 1 };
                        }
                    }
                    self.runs.push(run);
                }
            }
            debug_assert!(self.runs[run_start..].iter().all(|run| mask & (1u128 << run.owner) != 0));
            self.push_triangle(tri, mask, run_start);
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
        let mut live = 0u64;
        for (tri, record) in stream.triangles().iter().enumerate() {
            if record.is_culled() {
                continue;
            }
            let node = owner(live);
            live += 1;
            let run_start = plan.runs.len();
            let len = record.fragment_count();
            if len > 0 {
                plan.runs.push(Run { owner: node, start: record.frag_start, len });
            }
            plan.push_triangle(tri, 1u128 << node, run_start);
        }
        plan
    }

    /// Appends triangle `tri` with overlap `mask`, whose runs start at
    /// `run_start`, and its per-owner counts.
    fn push_triangle(&mut self, tri: usize, mask: u128, run_start: usize) {
        self.routed += mask.count_ones() as u64;
        let seg_start = self.segments.len() as u32;
        match self.runs[run_start..] {
            [] => {}
            [run] => self.segments.push(Segment { owner: run.owner, count: run.len }),
            _ => {
                for run in &self.runs[run_start..] {
                    self.tally[run.owner as usize] += run.len;
                }
                // Ascending owner order; every owner lies in the mask.
                let mut m = mask;
                while m != 0 {
                    let owner = m.trailing_zeros();
                    m &= m - 1;
                    let count = std::mem::take(&mut self.tally[owner as usize]);
                    if count > 0 {
                        self.segments.push(Segment { owner, count });
                    }
                }
            }
        }
        self.triangles.push(PlanTriangle {
            tri: tri as u32,
            mask,
            runs: run_start as u32..self.runs.len() as u32,
            segments: seg_start..self.segments.len() as u32,
        });
    }

    /// Empties the plan.
    fn clear(&mut self) {
        self.triangles.clear();
        self.runs.clear();
        self.segments.clear();
        self.routed = 0;
    }

    /// Total triangle deliveries (each triangle counted once per
    /// overlapped node) — the report's routed count.
    pub(crate) fn routed(&self) -> u64 {
        self.routed
    }

    /// Every owner run, in stream order: triangles in stream order, each
    /// triangle's runs in stream order. Each node's runs, taken in this
    /// order, are its fragments in machine processing order.
    pub(crate) fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Every triangle's per-owner counts, triangle by triangle in stream
    /// order.
    pub(crate) fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// One triangle's owner runs, in stream order.
    pub(crate) fn triangle_runs(&self, pt: &PlanTriangle) -> &[Run] {
        &self.runs[pt.runs.start as usize..pt.runs.end as usize]
    }

    /// One triangle's per-owner fragment counts, in ascending owner
    /// order; an owner without fragments has none.
    pub(crate) fn triangle_segments(&self, pt: &PlanTriangle) -> &[Segment] {
        &self.segments[pt.segments.start as usize..pt.segments.end as usize]
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
    use sortmid_devharness::{prop_assert, prop_assert_eq};
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

    /// `stream`'s whole frame routed into one plan.
    fn whole_frame(s: &FragmentStream, dist: &Distribution, procs: u32) -> RoutingPlan {
        let mut plan = RoutingPlan::new(s, dist, procs);
        plan.route(s, 0..s.triangle_count());
        plan
    }

    /// Checks `plan`, routed from triangles `tris` of `s`, against
    /// [`Distribution::owner`] fragment by fragment.
    fn check_runs(
        plan: &RoutingPlan,
        s: &FragmentStream,
        dist: &Distribution,
        procs: u32,
        tris: Range<usize>,
    ) -> Result<(), String> {
        let live: Vec<usize> = tris.filter(|&t| !s.triangles()[t].is_culled()).collect();
        prop_assert_eq!(plan.triangles.iter().map(|pt| pt.tri as usize).collect::<Vec<_>>(), live);
        let routed: u64 = plan.triangles.iter().map(|pt| pt.mask.count_ones() as u64).sum();
        prop_assert_eq!(plan.routed(), routed);
        let mut all_runs = Vec::new();
        for pt in &plan.triangles {
            let tri = &s.triangles()[pt.tri as usize];
            prop_assert_eq!(pt.mask, dist.overlap_mask(&tri.bbox, procs));
            let runs = plan.triangle_runs(pt);
            all_runs.extend_from_slice(runs);
            // The runs tile the triangle's range in stream order, and the
            // owner changes from each run to the next.
            let mut next = tri.frag_start;
            let mut counts = vec![0u32; procs as usize];
            for (k, run) in runs.iter().enumerate() {
                prop_assert!(run.len > 0 && run.start == next, "tri {} run {k}", pt.tri);
                prop_assert!(pt.mask & (1u128 << run.owner) != 0, "owner outside the mask");
                if k > 0 {
                    prop_assert!(runs[k - 1].owner != run.owner, "tri {} run {k}", pt.tri);
                }
                for f in &s.fragments()[run.range()] {
                    prop_assert_eq!(dist.owner(f.x as i32, f.y as i32, procs), run.owner);
                }
                next += run.len;
            }
            prop_assert_eq!(next, tri.frag_end, "runs cover tri {}", pt.tri);
            // The per-owner counts are the per-fragment counts, ascending.
            for f in s.fragments_of(tri) {
                counts[dist.owner(f.x as i32, f.y as i32, procs) as usize] += 1;
            }
            let want: Vec<Segment> = (0..procs)
                .filter(|&owner| counts[owner as usize] > 0)
                .map(|owner| Segment { owner, count: counts[owner as usize] })
                .collect();
            prop_assert_eq!(plan.triangle_segments(pt), &want[..], "tri {}", pt.tri);
        }
        prop_assert_eq!(plan.runs(), &all_runs[..]);
        let segments = plan.triangles.iter().flat_map(|pt| plan.triangle_segments(pt));
        prop_assert!(plan.segments().iter().eq(segments));
        Ok(())
    }

    /// Random triangle windows of two streams, routed one after another
    /// into one reused plan, under every distribution variant and
    /// processor counts of 1 to 128.
    #[test]
    fn prop_runs_route_every_fragment_to_its_owner() {
        let streams = [stream(), crate::machine::tests::windowed_stream()];
        check(
            "runs_route_every_fragment_to_its_owner",
            &Config::with_cases(64),
            |g| {
                let shape = g.u32_in(0..5);
                let (a, b) = (g.u32_in(1..40), g.u32_in(1..30));
                let steps = g.vec(1..5, |g| g.u32_in(1..64));
                let procs = g.u32_in(1..129);
                let which = g.usize_in(0..2);
                let n = streams[which].triangle_count();
                let windows: Vec<(usize, usize)> = (0..2)
                    .map(|_| {
                        let start = g.usize_in(0..n + 1);
                        (start, start + g.usize_in(0..n - start + 1))
                    })
                    .collect();
                (shape, a, b, steps, procs, which, windows)
            },
            |(shape, a, b, steps, procs, which, windows)| {
                let s = &streams[*which];
                let dist = match shape {
                    0 => Distribution::block(*a),
                    1 => Distribution::sli(*a),
                    2 => Distribution::tile(*a, *b),
                    3 => Distribution::block_raster(*a, (*a).max(s.screen().x1 as u32)),
                    _ => {
                        let mut boundaries: Vec<u32> = steps
                            .iter()
                            .scan(0, |row, step| {
                                *row += step;
                                Some(*row)
                            })
                            .collect();
                        boundaries.push(4096);
                        Distribution::dynamic_sli(boundaries)
                    }
                };
                let mut plan = RoutingPlan::new(s, &dist, *procs);
                for &(start, end) in windows {
                    plan.route(s, start..end);
                    check_runs(&plan, s, &dist, *procs, start..end)
                        .map_err(|e| format!("{dist} {procs}p {start}..{end}: {e}"))?;
                }
                Ok(())
            },
        );
    }

    #[test]
    fn plan_routed_matches_direct_run() {
        let s = stream();
        for dist in [Distribution::block(16), Distribution::sli(2)] {
            let plan = whole_frame(&s, &dist, 16);
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
