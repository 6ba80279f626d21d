//! Static load-balance analysis (Figure 5's imbalance metric).
//!
//! With a perfect cache the work a node performs is just the pixels it owns
//! (plus setup floors), so global load balance can be measured without a
//! timing simulation: one pass over the fragment stream counting owners,
//! each looked up in the engine's [`OwnerLut`].

use crate::distribution::Distribution;
use crate::plan::OwnerLut;
use sortmid_raster::FragmentStream;
use sortmid_util::stats::imbalance_percent;

/// Pixels owned by each of `procs` nodes under `dist`.
///
/// # Examples
///
/// ```
/// use sortmid::{work, Distribution};
/// use sortmid_scene::{Benchmark, SceneBuilder};
///
/// let stream = SceneBuilder::benchmark(Benchmark::Quake).scale(0.1).build().rasterize();
/// let w = work::pixel_work(&stream, &Distribution::block(16), 4);
/// assert_eq!(w.iter().sum::<u64>(), stream.fragment_count());
/// ```
pub fn pixel_work(stream: &FragmentStream, dist: &Distribution, procs: u32) -> Vec<u64> {
    let lut = OwnerLut::build(dist, stream.screen(), procs);
    let mut work = vec![0u64; procs as usize];
    for frag in stream.fragments() {
        work[lut.owner(frag.x, frag.y) as usize] += 1;
    }
    work
}

/// The paper's Figure 5 metric: percent by which the busiest node's pixel
/// count exceeds the average.
pub fn pixel_imbalance(stream: &FragmentStream, dist: &Distribution, procs: u32) -> f64 {
    let work = pixel_work(stream, dist, procs);
    let as_f: Vec<f64> = work.iter().map(|&w| w as f64).collect();
    imbalance_percent(&as_f)
}

/// A per-pixel map of how much total work the *owner* of each pixel
/// carries — Figure 1's "assigned workload" intuition as data. Returns a
/// row-major `width × height` grid where every pixel holds its owning
/// node's total fragment count.
pub fn work_map(stream: &FragmentStream, dist: &Distribution, procs: u32) -> Vec<u64> {
    let work = pixel_work(stream, dist, procs);
    let lut = OwnerLut::build(dist, stream.screen(), procs);
    let w = stream.screen().width();
    let h = stream.screen().height();
    let mut map = Vec::with_capacity((w * h) as usize);
    for y in 0..h as u16 {
        map.extend((0..w as u16).map(|x| work[lut.owner(x, y) as usize]));
    }
    map
}

/// Per-node *engine work* including the 25-cycle setup floor: what bounds
/// the perfect-cache speedup with an ideal buffer.
pub fn engine_work(
    stream: &FragmentStream,
    dist: &Distribution,
    procs: u32,
    setup_cycles: u64,
) -> Vec<u64> {
    let lut = OwnerLut::build(dist, stream.screen(), procs);
    let mut work = vec![0u64; procs as usize];
    let mut per_tri = vec![0u64; procs as usize];
    for tri in stream.triangles() {
        if tri.is_culled() {
            continue;
        }
        let mask = dist.overlap_mask(&tri.bbox, procs);
        for frag in stream.fragments_of(tri) {
            per_tri[lut.owner(frag.x, frag.y) as usize] += 1;
        }
        let mut m = mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            work[i] += per_tri[i].max(setup_cycles);
            per_tri[i] = 0;
        }
    }
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortmid_scene::{Benchmark, SceneBuilder};

    fn stream() -> FragmentStream {
        SceneBuilder::benchmark(Benchmark::Massive11255)
            .scale(0.12)
            .build()
            .rasterize()
    }

    #[test]
    fn pixel_work_partitions_fragments() {
        let s = stream();
        for procs in [1u32, 4, 16, 64] {
            for d in [Distribution::block(16), Distribution::sli(4)] {
                let w = pixel_work(&s, &d, procs);
                assert_eq!(w.len(), procs as usize);
                assert_eq!(w.iter().sum::<u64>(), s.fragment_count(), "{d} {procs}p");
            }
        }
    }

    #[test]
    fn pixel_work_matches_a_per_fragment_owner_count() {
        // The LUT-routed count must equal counting `Distribution::owner`
        // fragment by fragment, for every distribution variant.
        let s = stream();
        let screen = s.screen();
        let dists = [
            Distribution::block(16),
            Distribution::sli(4),
            Distribution::dynamic_sli(vec![37, 90, screen.height()]),
            Distribution::tile(32, 8),
            Distribution::block_raster(16, screen.width()),
        ];
        for dist in &dists {
            for procs in [1u32, 3, 64] {
                let mut expected = vec![0u64; procs as usize];
                for frag in s.fragments() {
                    expected[dist.owner(frag.x as i32, frag.y as i32, procs) as usize] += 1;
                }
                assert_eq!(pixel_work(&s, dist, procs), expected, "{dist} {procs}p");
            }
        }
    }

    #[test]
    fn imbalance_grows_with_block_size() {
        // Figure 5: bigger tiles balance worse (16 procs, same scene).
        let s = stream();
        let small = pixel_imbalance(&s, &Distribution::block(8), 16);
        let big = pixel_imbalance(&s, &Distribution::block(128), 16);
        assert!(
            big > small,
            "expected imbalance to grow: block-8 {small:.1}% vs block-128 {big:.1}%"
        );
    }

    #[test]
    fn imbalance_grows_with_processors() {
        let s = stream();
        let few = pixel_imbalance(&s, &Distribution::sli(16), 4);
        let many = pixel_imbalance(&s, &Distribution::sli(16), 64);
        assert!(
            many > few,
            "expected imbalance to grow: 4p {few:.1}% vs 64p {many:.1}%"
        );
    }

    #[test]
    fn single_processor_is_perfectly_balanced() {
        let s = stream();
        assert_eq!(pixel_imbalance(&s, &Distribution::block(16), 1), 0.0);
    }

    #[test]
    fn work_map_reflects_owner_loads() {
        let s = stream();
        let dist = Distribution::block(16);
        let procs = 4;
        let map = work_map(&s, &dist, procs);
        assert_eq!(map.len(), (s.screen().width() * s.screen().height()) as usize);
        let work = pixel_work(&s, &dist, procs);
        // Spot-check a few pixels against their owner's load.
        for (x, y) in [(0i32, 0i32), (31, 7), (100, 99)] {
            let owner = dist.owner(x, y, procs) as usize;
            let idx = (y as u32 * s.screen().width() + x as u32) as usize;
            assert_eq!(map[idx], work[owner]);
        }
        // The map takes exactly the per-node values.
        let distinct: std::collections::HashSet<u64> = map.iter().copied().collect();
        assert!(distinct.len() <= procs as usize);
    }

    #[test]
    fn engine_work_includes_setup_floor() {
        let s = stream();
        let pixels = pixel_work(&s, &Distribution::block(16), 4);
        let engine = engine_work(&s, &Distribution::block(16), 4, 25);
        for (p, e) in pixels.iter().zip(&engine) {
            assert!(e >= p, "engine work must dominate pixel work");
        }
        // With a zero setup floor and block-16, engine == pixels.
        let engine0 = engine_work(&s, &Distribution::block(16), 4, 0);
        assert_eq!(engine0, pixels);
    }

    #[test]
    fn tiny_tiles_inflate_engine_work() {
        // Setup floors dominate when triangles shatter across tiny tiles;
        // the effect needs triangles small enough that a 16-way split drops
        // below the 25-pixel floor, so use the small-triangle quake scene.
        let s = SceneBuilder::benchmark(Benchmark::Quake)
            .scale(0.12)
            .build()
            .rasterize();
        let w2: u64 = engine_work(&s, &Distribution::block(2), 16, 25).iter().sum();
        let w16: u64 = engine_work(&s, &Distribution::block(16), 16, 25).iter().sum();
        assert!(w2 > w16, "block-2 total work {w2} should exceed block-16 {w16}");
    }
}
