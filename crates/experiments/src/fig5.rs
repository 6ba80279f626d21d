//! Figure 5 — impact of the distribution scheme on load balancing.
//!
//! Two parts, as in the paper:
//!
//! * **imbalance**: percent difference between the busiest and the average
//!   processor's pixel work, per benchmark, on a 64-processor machine, for
//!   every block width / SLI group size;
//! * **speedup curves**: perfect-cache speedup vs processor count for
//!   `32massive11255`, one series per parameter.

use crate::common::{
    baseline_config, distribution, machine, short_name, PreparedScene, SpeedupJob,
    BLOCK_WIDTHS_FULL, PROC_CURVE, SLI_LINES,
};
use sortmid::{run_sweep, work, CacheKind, Distribution, Machine, SpatialCollector, SweepGrid};
use sortmid_observe::owner_color;
use sortmid_scene::Benchmark;
use sortmid_util::table::{fmt_f, Table};
use std::path::Path;

/// Imbalance (%) of every benchmark × parameter on a `procs`-node machine.
pub fn imbalance_table(scenes: &[PreparedScene], procs: u32, sli: bool) -> Table {
    let params: &[u32] = if sli { &SLI_LINES } else { &BLOCK_WIDTHS_FULL };
    let mut header = vec!["benchmark".to_string()];
    header.extend(params.iter().map(|p| p.to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);
    for s in scenes {
        let mut row = vec![short_name(s.benchmark).to_string()];
        for &p in params {
            row.push(fmt_f(work::pixel_imbalance(&s.stream, &distribution(p, sli), procs), 1));
        }
        t.row_owned(row);
    }
    t
}

/// Perfect-cache speedup of `scene` vs processor count, one column per
/// parameter (the bottom graphs of Figure 5).
///
/// The processors × parameters grid runs as one sweep. For block widths
/// the grid's (1 processor, block-16) cell is the baseline itself.
pub fn speedup_curves(scene: &PreparedScene, sli: bool) -> Table {
    let params: &[u32] = if sli { &SLI_LINES } else { &BLOCK_WIDTHS_FULL };
    let mut header = vec!["procs".to_string()];
    header.extend(params.iter().map(|p| p.to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);

    let grid = SweepGrid::new()
        .processors(PROC_CURVE)
        .distributions(params.iter().map(|&p| distribution(p, sli)))
        .caches([CacheKind::Perfect])
        .build();
    let job = SpeedupJob::new(baseline_config(CacheKind::Perfect, Some(1.0)), grid);
    let speedups = job.speedups(&run_sweep(&scene.stream, job.configs()));

    // Row-major grid order: processors outermost.
    for (procs, row_speedups) in PROC_CURVE.iter().zip(speedups.chunks(params.len())) {
        let mut row = vec![procs.to_string()];
        row.extend(row_speedups.iter().map(|&s| fmt_f(s, 2)));
        t.row_owned(row);
    }
    t
}

/// Runs the full Figure 5 experiment at `scale`; returns
/// `(block imbalance, SLI imbalance, block speedups, SLI speedups)`.
pub fn run(scale: f64) -> (Table, Table, Table, Table) {
    let scenes = PreparedScene::all(scale);
    let imb_block = imbalance_table(&scenes, 64, false);
    let imb_sli = imbalance_table(&scenes, 64, true);
    let massive = scenes
        .iter()
        .find(|s| s.benchmark == Benchmark::Massive32_11255)
        .expect("32massive present");
    let sp_block = speedup_curves(massive, false);
    let sp_sli = speedup_curves(massive, true);
    (imb_block, imb_sli, sp_block, sp_sli)
}

/// Spatial companion to Figure 5: screen-space load-balance maps of Quake
/// on a 64-processor machine, block-16 vs SLI-4. Writes
/// `fig5_<dist>_fragments.ppm` (per-tile fragment heat) and
/// `fig5_<dist>_owner.ppm` (tile ownership, one color per node) into
/// `out`, and returns one `(label, fragment Gini)` pair per distribution
/// so the caller can print how unevenly each scheme loads the nodes.
///
/// # Panics
///
/// Panics when a map cannot be written into `out`.
pub fn heatmaps(scale: f64, out: &Path) -> Vec<(String, f64)> {
    let scene = PreparedScene::new(Benchmark::Quake, scale);
    let screen = scene.stream.screen();
    let mut ginis = Vec::new();
    for (label, dist) in [
        ("block16", Distribution::block(16)),
        ("sli4", Distribution::sli(4)),
    ] {
        let m = Machine::new(machine(64, dist, CacheKind::Perfect, Some(1.0), 10_000));
        let mut col = SpatialCollector::new(
            screen.width().max(1),
            screen.height().max(1),
            8,
            64,
        );
        m.run_traced(&scene.stream, &mut col);
        let grid = col.grid();
        let frag = grid.render(4, |t| t.fragments as f64);
        frag.write_ppm(out.join(format!("fig5_{label}_fragments.ppm")))
            .expect("write fragment map");
        let owner = grid.render_rgb(4, |t| {
            if t.fragments == 0 {
                [0, 0, 0]
            } else {
                owner_color(t.owner)
            }
        });
        owner
            .write_ppm(out.join(format!("fig5_{label}_owner.ppm")))
            .expect("write owner map");
        ginis.push((label.to_string(), col.fragment_gini()));
    }
    ginis
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenes() -> Vec<PreparedScene> {
        vec![
            PreparedScene::new(Benchmark::Massive32_11255, 0.12),
            PreparedScene::new(Benchmark::Quake, 0.12),
        ]
    }

    #[test]
    fn imbalance_grows_with_parameter() {
        let s = scenes();
        let t = imbalance_table(&s, 64, false);
        assert_eq!(t.len(), 2);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        // First data row: benchmark, then imbalances for 1..128.
        let cells: Vec<f64> = lines[1]
            .split(',')
            .skip(1)
            .map(|c| c.parse().unwrap())
            .collect();
        assert!(
            cells.last().unwrap() > cells.first().unwrap(),
            "width-128 should balance worse than width-1: {cells:?}"
        );
    }

    #[test]
    fn speedup_curves_rise_with_processors() {
        let s = PreparedScene::new(Benchmark::Massive32_11255, 0.12);
        let t = speedup_curves(&s, false);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        // Column for width 16 (index 5 of BLOCK_WIDTHS_FULL -> csv col 5+1).
        let col = 5;
        let first: f64 = lines[1].split(',').nth(col).unwrap().parse().unwrap();
        let last: f64 = lines.last().unwrap().split(',').nth(col).unwrap().parse().unwrap();
        assert!((first - 1.0).abs() < 0.05, "1 proc ≈ speedup 1: {first}");
        assert!(last > 4.0, "64 procs should speed up well: {last}");
    }
}
