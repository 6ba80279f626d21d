//! Triangle-FIFO sizing: how much buffering does a texture-mapping node
//! actually need?
//!
//! Section 8 of the paper shows the FIFO between the geometry stage and the
//! engines hides *local* load imbalance, and that real caches make it more
//! important. This example sizes the buffer for a workload: it sweeps the
//! FIFO depth and reports the speedup retained relative to a near-infinite
//! buffer, with both a perfect cache and the real 16 KB one.
//!
//! ```text
//! cargo run --release --example buffer_sizing [benchmark] [procs]
//! ```

use sortmid::{run_sweep, CacheKind, Distribution, SweepGrid};
use sortmid_scene::{Benchmark, SceneBuilder};
use sortmid_util::table::{fmt_f, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let benchmark: Benchmark = args
        .next()
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(Benchmark::Truc640);
    let procs: u32 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(64);

    let stream = SceneBuilder::benchmark(benchmark).scale(0.25).build().rasterize();
    println!(
        "workload: {benchmark}, {procs} processors, block-16, 2 texel/pixel bus\n"
    );

    // One sweep over both caches and every depth: the configs share one
    // routing, so they run as one frame group that routes each window
    // once and probes it once per cache model.
    const BUFFERS: [usize; 10] = [1, 5, 10, 20, 50, 100, 200, 500, 1000, 10_000];
    let configs = SweepGrid::new()
        .processors([procs])
        .distributions([Distribution::block(16)])
        .caches([CacheKind::Perfect, CacheKind::PaperL1])
        .bus_ratios([Some(2.0)])
        .buffers(BUFFERS)
        .build();
    let cycles: Vec<f64> = run_sweep(&stream, &configs)
        .iter()
        .map(|r| r.total_cycles() as f64)
        .collect();
    // Row-major grid order: the perfect cache's depths, then the 16 KB one's.
    let (perfect, cached) = cycles.split_at(BUFFERS.len());
    let (ideal_perfect, ideal_cached) = (perfect[BUFFERS.len() - 1], cached[BUFFERS.len() - 1]);

    let mut table = Table::new(&["buffer", "perfect cache %", "16KB cache %"]);
    let mut recommended = None;
    for (i, buffer) in BUFFERS.into_iter().enumerate() {
        let p = ideal_perfect / perfect[i] * 100.0;
        let c = ideal_cached / cached[i] * 100.0;
        if recommended.is_none() && c >= 99.0 {
            recommended = Some(buffer);
        }
        table.row_owned(vec![buffer.to_string(), fmt_f(p, 1), fmt_f(c, 1)]);
    }
    print!("{}", table.to_ascii());
    match recommended {
        Some(buffer) => println!(
            "\nrecommendation: {buffer} entries retain 99% of the ideal-buffer \
             performance with the real cache."
        ),
        None => println!("\nrecommendation: use the near-ideal 10000-entry buffer."),
    }
    Ok(())
}
