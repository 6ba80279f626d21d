//! Spatial observability: screen-space heatmaps and per-node three-C miss
//! attribution for one machine configuration.
//!
//! For each named preset this bin:
//!
//! 1. runs the machine via [`Machine::run_traced`] with a
//!    [`SpatialCollector`], double-checking that the report is identical
//!    to the untraced [`Machine::run`] and that every node's three-C
//!    decomposition sums exactly to its miss counter;
//! 2. writes false-color PPM maps — `HEAT_<preset>_depth.ppm`
//!    (depth complexity), `HEAT_<preset>_owner.ppm` (fragments per owner
//!    node), `HEAT_<preset>_setup.ppm` (setup-floor padding),
//!    `HEAT_<preset>_t2f.ppm` (texel-to-fragment ratio) and
//!    `HEAT_<preset>_missclass.ppm` (RGB = conflict/capacity/compulsory);
//! 3. writes `HEATMAP_<preset>.json` — the full per-tile and per-node
//!    attribution document ([`sortmid_observe::HeatmapDoc`]) that
//!    `bench_check` validates;
//! 4. prints per-metric tile summaries (max/min tile, imbalance ratio)
//!    and the Gini coefficient of the per-node fragment load.
//!
//! Usage: `heatmap [--scale F] [--tile N] [preset ...]` with presets from
//! [`PRESETS`]; no preset runs `block16` and `sli4` (the paper's
//! load-balance-vs-locality pair at 64 processors). Output goes to
//! `SORTMID_BENCH_DIR` (default the current directory).

use sortmid::{
    CacheKind, Distribution, Machine, MachineConfig, RunReport, SpatialCollector, TileStats,
};
use sortmid_bench::{run_provenance, write_artifact};
use sortmid_cache::CacheGeometry;
use sortmid_observe::{owner_color, sqrt_channel, Schema, ScreenGrid};
use sortmid_scene::{Benchmark, SceneBuilder};
use sortmid_util::ppm::Image;
use std::path::PathBuf;
use std::process::ExitCode;

/// The named heatmap presets: `(name, what it shows)`.
pub const PRESETS: [(&str, &str); 3] = [
    ("block16", "64 processors, 16x16 blocks (the paper's balance/locality sweet spot)"),
    ("sli4", "64 processors, 4-line SLI (balanced load, shredded locality)"),
    ("tiny", "4 processors, 16x16 blocks (smoke preset for CI)"),
];

/// Pixels drawn per grid tile in the PPM maps.
const PX_PER_TILE: u32 = 8;

fn preset_config(name: &str) -> Option<MachineConfig> {
    let mut b = MachineConfig::builder();
    match name {
        "block16" => b.processors(64).distribution(Distribution::block(16)),
        "sli4" => b.processors(64).distribution(Distribution::sli(4)),
        "tiny" => b.processors(4).distribution(Distribution::block(16)),
        _ => return None,
    };
    Some(
        b.cache(CacheKind::Classifying(CacheGeometry::paper_l1()))
            .build()
            .expect("valid preset"),
    )
}

fn usage() -> String {
    let mut s = String::from("usage: heatmap [--scale F] [--tile N] [preset ...]\npresets:\n");
    for (name, what) in PRESETS {
        s.push_str(&format!("  {name:8} {what}\n"));
    }
    s
}

/// Prints one metric's tile summary line, or notes an all-zero map.
fn summarize_metric(label: &str, grid: &ScreenGrid<TileStats>, value: impl Fn(&TileStats) -> f64) {
    match grid.summarize(&value) {
        Some(s) if s.max > 0.0 => println!("  {label:12} {s}"),
        _ => println!("  {label:12} (all zero)"),
    }
}

fn write_maps(
    name: &str,
    col: &SpatialCollector,
    report: &RunReport,
    config: &MachineConfig,
) -> Result<Vec<PathBuf>, String> {
    let grid = col.grid();
    let class_max = grid
        .cells()
        .iter()
        .map(|t| t.misses.compulsory.max(t.misses.capacity).max(t.misses.conflict))
        .max()
        .unwrap_or(0)
        .max(1) as f64;
    let maps: [(&str, Image); 5] = [
        ("depth", grid.render(PX_PER_TILE, |t| t.fragments as f64)),
        (
            "owner",
            grid.render_rgb(PX_PER_TILE, |t| {
                if t.fragments == 0 {
                    [0, 0, 0]
                } else {
                    owner_color(t.owner)
                }
            }),
        ),
        ("setup", grid.render(PX_PER_TILE, |t| t.setup_cycles as f64)),
        (
            "t2f",
            grid.render(PX_PER_TILE, |t| {
                if t.fragments == 0 {
                    0.0
                } else {
                    // 16 texels per 64-byte line of 4-byte texels.
                    t.lines_fetched as f64 * 16.0 / t.fragments as f64
                }
            }),
        ),
        (
            "missclass",
            grid.render_rgb(PX_PER_TILE, |t| {
                let ch = |v: u64| sqrt_channel(v, class_max);
                [ch(t.misses.conflict), ch(t.misses.capacity), ch(t.misses.compulsory)]
            }),
        ),
    ];
    let mut written = Vec::new();
    for (metric, img) in maps {
        written.push(write_artifact(&format!("HEAT_{name}_{metric}.ppm"), img.to_ppm_bytes())?);
    }
    let provenance = run_provenance(Benchmark::Quake, std::slice::from_ref(config));
    let doc = col.document(name, report.summary(), provenance);
    written.push(write_artifact(&format!("HEATMAP_{name}.json"), doc.to_json().render())?);
    Ok(written)
}

fn run_preset(name: &str, scale: f64, tile: u32) -> Result<(), String> {
    let config = preset_config(name).ok_or_else(|| format!("unknown preset '{name}'"))?;
    let stream = SceneBuilder::benchmark(Benchmark::Quake)
        .scale(scale)
        .build()
        .rasterize();
    let screen = stream.screen();
    let machine = Machine::new(config.clone());

    let mut col = SpatialCollector::new(
        screen.width().max(1),
        screen.height().max(1),
        tile,
        config.processors,
    );
    let report = machine.run_traced(&stream, &mut col);
    assert_eq!(
        report,
        machine.run(&stream),
        "spatial collection must not perturb the simulation"
    );

    // The conservation + three-C identities the JSON artefact asserts.
    assert_eq!(
        col.fragment_total(),
        report.fragments(),
        "every drawn fragment must land in exactly one tile"
    );
    for (i, node) in report.nodes().iter().enumerate() {
        node.verify_misses()
            .map_err(|e| format!("node {i}: {e}"))?;
    }

    let written = write_maps(name, &col, &report, &config)?;

    let grid = col.grid();
    let area = (tile * tile) as f64;
    println!(
        "\n== {name}: {} ==\n{} fragments over {}x{} tiles of {}px, texel/fragment {:.2}",
        report.summary(),
        report.fragments(),
        grid.cols(),
        grid.rows(),
        tile,
        report.texel_to_fragment(),
    );
    summarize_metric("depth", grid, |t| t.fragments as f64 / area);
    summarize_metric("setup", grid, |t| t.setup_cycles as f64);
    summarize_metric("lines", grid, |t| t.lines_fetched as f64);
    summarize_metric("misses", grid, |t| t.misses.total() as f64);
    let mut totals = sortmid::MissClassCounts::default();
    for m in col.node_misses() {
        totals.merge(m);
    }
    println!(
        "  node load: gini {:.3}, pixel imbalance {:.1}%; misses {totals}",
        col.fragment_gini(),
        report.pixel_imbalance_percent(),
    );
    for path in &written {
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut scale = 0.12;
    let mut tile = 16u32;
    let mut presets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0.0 => scale = v,
                _ => {
                    eprintln!("--scale needs a positive number\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--tile" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => tile = v,
                _ => {
                    eprintln!("--tile needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            name => presets.push(name.to_string()),
        }
    }
    if presets.is_empty() {
        presets.extend(["block16".to_string(), "sli4".to_string()]);
    }
    for name in &presets {
        if let Err(e) = run_preset(name, scale, tile) {
            eprintln!("heatmap: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
