//! Figure 6 — impact of the distribution scheme on texel locality.
//!
//! Texel-to-fragment ratio (texels fetched from external memory per
//! fragment) vs processor count, with 16 KB caches and **infinite-bandwidth
//! buses** (the paper: "we have simulated our architecture with 16KB caches
//! and infinite bandwidth buses; we have then measured the average bandwidth
//! required"). One column per block width / SLI group size.
//!
//! The paper plots `32massive11255` and `teapot.full` and notes the other
//! scenes behave like one of the two; we emit every scene.

use crate::common::{distribution, machine, PreparedScene, BLOCK_WIDTHS, PROC_CURVE, SLI_LINES};
use sortmid::{
    run_sweep, CacheKind, Distribution, Machine, MissClassCounts, SpatialCollector, SweepGrid,
};
use sortmid_cache::CacheGeometry;
use sortmid_scene::Benchmark;
use sortmid_util::table::{fmt_f, Table};
use std::path::Path;

/// Texel-to-fragment ratio of one scene vs processor count; one column per
/// parameter value. The processors × parameters grid runs as one sweep.
pub fn locality_table(scene: &PreparedScene, sli: bool) -> Table {
    let params: &[u32] = if sli { &SLI_LINES } else { &BLOCK_WIDTHS };
    let mut header = vec!["procs".to_string()];
    header.extend(params.iter().map(|p| p.to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);
    let grid = SweepGrid::new()
        .processors(PROC_CURVE)
        .distributions(params.iter().map(|&p| distribution(p, sli)))
        .caches([CacheKind::PaperL1])
        .bus_ratios([None])
        .build();
    let reports = run_sweep(&scene.stream, &grid);
    // Row-major grid order: processors outermost.
    for (procs, row_reports) in PROC_CURVE.iter().zip(reports.chunks(params.len())) {
        let mut row = vec![procs.to_string()];
        row.extend(row_reports.iter().map(|r| fmt_f(r.texel_to_fragment(), 3)));
        t.row_owned(row);
    }
    t
}

/// Runs Figure 6 for every benchmark at `scale`: returns
/// `(scene name, block table, SLI table)` triples.
pub fn run(scale: f64) -> Vec<(String, Table, Table)> {
    PreparedScene::all(scale)
        .iter()
        .map(|s| {
            (
                s.benchmark.name().to_string(),
                locality_table(s, false),
                locality_table(s, true),
            )
        })
        .collect()
}

/// Spatial companion to Figure 6: texel-locality maps of Quake on a
/// 64-processor machine with the classifying 16 KB cache, block-16 vs
/// SLI-4. Writes `fig6_<dist>_lines.ppm` (texture lines fetched per tile)
/// and `fig6_<dist>_missclass.ppm` (RGB = conflict/capacity/compulsory)
/// into `out`, and returns one `(label, texel/fragment, class totals)`
/// triple per distribution.
///
/// # Panics
///
/// Panics when a map cannot be written into `out`.
pub fn heatmaps(scale: f64, out: &Path) -> Vec<(String, f64, MissClassCounts)> {
    let scene = PreparedScene::new(Benchmark::Quake, scale);
    let screen = scene.stream.screen();
    let mut rows = Vec::new();
    for (label, dist) in [
        ("block16", Distribution::block(16)),
        ("sli4", Distribution::sli(4)),
    ] {
        let m = Machine::new(machine(
            64,
            dist,
            CacheKind::Classifying(CacheGeometry::paper_l1()),
            None,
            10_000,
        ));
        let mut col = SpatialCollector::new(
            screen.width().max(1),
            screen.height().max(1),
            8,
            64,
        );
        let report = m.run_traced(&scene.stream, &mut col);
        let grid = col.grid();
        grid.render(4, |t| t.lines_fetched as f64)
            .write_ppm(out.join(format!("fig6_{label}_lines.ppm")))
            .expect("write line-fetch map");
        let class_max = grid
            .cells()
            .iter()
            .map(|t| t.misses.compulsory.max(t.misses.capacity).max(t.misses.conflict))
            .max()
            .unwrap_or(0)
            .max(1) as f64;
        grid.render_rgb(4, |t| {
            let ch = |v: u64| ((v as f64 / class_max).sqrt() * 255.0).round() as u8;
            [ch(t.misses.conflict), ch(t.misses.capacity), ch(t.misses.compulsory)]
        })
        .write_ppm(out.join(format!("fig6_{label}_missclass.ppm")))
        .expect("write miss-class map");
        let mut totals = MissClassCounts::default();
        for m in col.node_misses() {
            totals.merge(m);
        }
        rows.push((label.to_string(), report.texel_to_fragment(), totals));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(table: &Table, row: usize, col: usize) -> f64 {
        table
            .to_csv()
            .lines()
            .nth(row + 1)
            .unwrap()
            .split(',')
            .nth(col)
            .unwrap()
            .parse()
            .unwrap()
    }

    #[test]
    fn ratio_grows_as_blocks_shrink() {
        let s = PreparedScene::new(Benchmark::Massive32_11255, 0.12);
        let t = locality_table(&s, false);
        // Row for 16 procs (PROC_CURVE index 4), block-4 vs block-128.
        let small = col(&t, 4, 1);
        let big = col(&t, 4, BLOCK_WIDTHS.len());
        assert!(
            small > big,
            "block-4 ratio {small} should exceed block-128 {big}"
        );
    }

    #[test]
    fn ratio_grows_with_processors_for_small_groups() {
        let s = PreparedScene::new(Benchmark::TeapotFull, 0.12);
        let t = locality_table(&s, true);
        // SLI-2 column (index 2): 1 proc vs 64 procs.
        let one = col(&t, 0, 2);
        let many = col(&t, PROC_CURVE.len() - 1, 2);
        assert!(
            many > one,
            "SLI-2 at 64p ({many}) should fetch more than at 1p ({one})"
        );
    }

    #[test]
    fn single_processor_ratio_is_parameter_independent() {
        let s = PreparedScene::new(Benchmark::Quake, 0.1);
        let t = locality_table(&s, false);
        let first = col(&t, 0, 1);
        for c in 2..=BLOCK_WIDTHS.len() {
            let v = col(&t, 0, c);
            assert!((v - first).abs() < 1e-6, "1-proc ratios must match: {v} vs {first}");
        }
    }
}
