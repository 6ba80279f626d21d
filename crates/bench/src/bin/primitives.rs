//! Microbenchmarks of the simulator's hot kernels: cache probes, fragment
//! timing, rasterization, footprint resolution and owner computation.

use sortmid::Distribution;
use sortmid_bench::stream;
use sortmid_cache::{CacheGeometry, ClassifyingCache, LineCache, SetAssocCache};
use sortmid_devharness::Suite;
use sortmid_memsys::{BusConfig, EngineTiming};
use sortmid_observe::MissClassCounts;
use sortmid_scene::{Benchmark, SceneBuilder};
use sortmid_texture::{footprint_lines, TextureDesc, TextureRegistry, TrilinearSampler};
use std::hint::black_box;

fn bench_cache(suite: &mut Suite) {
    let accesses: Vec<u32> = {
        // Pseudo-random walk over 1024 lines with locality runs.
        let mut v = Vec::with_capacity(100_000);
        let mut x = 12345u32;
        let mut line = 0u32;
        for _ in 0..100_000 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            if x.is_multiple_of(8) {
                line = (x >> 8) % 1024;
            }
            v.push(line);
        }
        v
    };
    suite.bench_with_elements("cache/set_assoc_16k_4way", accesses.len() as u64, || {
        let mut cache = SetAssocCache::new(CacheGeometry::paper_l1());
        for &l in &accesses {
            black_box(cache.access_line(l));
        }
        cache.stats().misses()
    });
    // The same sequence through the three-C classifier: the difference
    // between the two rows is the per-access cost of classification.
    suite.bench_with_elements("cache/classifying_16k_4way", accesses.len() as u64, || {
        let mut cache = ClassifyingCache::new(CacheGeometry::paper_l1());
        for &l in &accesses {
            black_box(cache.access_line(l));
        }
        cache.stats().misses()
    });
    // Real fragment footprints through the batched lane probe of the
    // engine's cache pass, where most probes hit the MRU way.
    let lanes: Vec<[u32; 8]> = stream(Benchmark::Massive32_11255)
        .fragments()
        .iter()
        .map(|f| footprint_lines(&f.texels))
        .collect();
    suite.bench_with_elements("cache/set_assoc_16k_4way_lane", lanes.len() as u64, || {
        let mut cache = SetAssocCache::new(CacheGeometry::paper_l1());
        let (mut miss, mut classes) = ([0u32; 8], MissClassCounts::default());
        for lane in &lanes {
            black_box(cache.access_lane(lane, &mut miss, &mut classes));
        }
        cache.stats().misses()
    });
}

fn bench_engine(suite: &mut Suite) {
    suite.bench_with_elements("engine/fragment_timing", 100_000, || {
        let mut e = EngineTiming::new(BusConfig::ratio(1.0), Some(32));
        e.start_triangle(0);
        for i in 0..100_000u32 {
            e.fragment(if i % 7 == 0 { 1 } else { 0 });
        }
        e.finish_time()
    });
}

fn bench_raster(suite: &mut Suite) {
    let scene = SceneBuilder::benchmark(Benchmark::Quake).scale(0.12).build();
    suite.bench("raster/rasterize_quake", || {
        black_box(scene.rasterize()).fragment_count()
    });
}

fn bench_footprint(suite: &mut Suite) {
    let mut reg = TextureRegistry::new();
    let id = reg.register(TextureDesc::new(256, 256).unwrap()).unwrap();
    let sampler = TrilinearSampler::new(&reg);
    suite.bench_with_elements("footprint/trilinear_10k", 10_000, || {
        let mut acc = 0u64;
        for i in 0..10_000u32 {
            let u = (i % 251) as f32;
            let v = (i % 241) as f32;
            let fp = sampler.footprint(id, u, v, 1.3);
            acc = acc.wrapping_add(fp[0].index() as u64);
        }
        acc
    });
}

fn bench_owner(suite: &mut Suite) {
    let s = stream(Benchmark::Massive32_11255);
    for dist in [Distribution::block(16), Distribution::sli(4)] {
        let id = format!("distribution/owner/{}", dist.label());
        let d = dist.clone();
        suite.bench_with_elements(&id, s.fragment_count(), || {
            let mut acc = 0u64;
            for f in s.fragments() {
                acc += d.owner(f.x as i32, f.y as i32, 64) as u64;
            }
            acc
        });
    }
    let d = Distribution::block(16);
    suite.bench_with_elements(
        "distribution/overlap_mask/block-16",
        s.triangles().len() as u64,
        || {
            let mut acc = 0u32;
            for t in s.triangles() {
                acc = acc.wrapping_add(d.overlap_mask(&t.bbox, 64).count_ones());
            }
            acc
        },
    );
}

fn bench_trace_io(suite: &mut Suite) {
    let s = stream(Benchmark::Quake);
    suite.bench_with_elements("trace-io/write_stream", s.fragment_count(), || {
        let mut buf = Vec::with_capacity(42 * s.fragment_count() as usize);
        sortmid_raster::write_stream(&mut buf, &s).expect("in-memory write");
        buf.len()
    });
    let mut encoded = Vec::new();
    sortmid_raster::write_stream(&mut encoded, &s).expect("in-memory write");
    suite.bench_with_elements("trace-io/read_stream", s.fragment_count(), || {
        sortmid_raster::read_stream(encoded.as_slice())
            .expect("round trip")
            .fragment_count()
    });
}

fn main() {
    let mut suite = Suite::new("primitives");
    bench_cache(&mut suite);
    bench_engine(&mut suite);
    bench_raster(&mut suite);
    bench_footprint(&mut suite);
    bench_owner(&mut suite);
    bench_trace_io(&mut suite);
    suite.finish();
}
