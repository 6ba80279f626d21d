//! Figure 7 — speedups of the full machine.
//!
//! Six panels: processor counts {4, 16, 64} × {block, SLI}, every
//! benchmark, every block width / group size, with 16 KB caches, a bounded
//! bus (1 texel/pixel in Figure 7; 2 texels/pixel in the companion report
//! \[15\]) and the near-ideal 10 000-entry triangle buffer. Speedup is against
//! the single-processor machine with the same cache and bus.

use crate::common::{
    baseline_config, distribution, short_name, PreparedScene, SpeedupJob, BLOCK_WIDTHS,
    PROC_PANELS, SLI_LINES,
};
use sortmid::{run_sweeps, CacheKind, NullHostSink, SweepGrid, SweepOptions};
use sortmid_util::table::{fmt_f, Table};

/// One panel: speedups of every benchmark (rows) × parameter (columns).
///
/// Every scene's row and its single-processor baseline form one job of a
/// single [`run_sweeps`] call, so the panel's configs share the sweep pool
/// across scenes.
pub fn speedup_panel(scenes: &[PreparedScene], procs: u32, sli: bool, bus_ratio: f64) -> Table {
    let params: &[u32] = if sli { &SLI_LINES } else { &BLOCK_WIDTHS };
    let mut header = vec!["benchmark".to_string()];
    header.extend(params.iter().map(|p| p.to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);

    let grid = SweepGrid::new()
        .processors([procs])
        .distributions(params.iter().map(|&p| distribution(p, sli)))
        .caches([CacheKind::PaperL1])
        .bus_ratios([Some(bus_ratio)])
        .build();
    let job = SpeedupJob::new(baseline_config(CacheKind::PaperL1, Some(bus_ratio)), grid);
    let jobs: Vec<_> = scenes.iter().map(|s| (&s.stream, job.configs())).collect();
    let reports = run_sweeps(&jobs, SweepOptions::default(), &NullHostSink);
    for (s, scene_reports) in scenes.iter().zip(&reports) {
        let mut row = vec![short_name(s.benchmark).to_string()];
        row.extend(job.speedups(scene_reports).into_iter().map(|v| fmt_f(v, 2)));
        t.row_owned(row);
    }
    t
}

/// Runs all six panels at `scale` with the given bus ratio; returns
/// `(panel title, table)` pairs in the paper's layout order.
pub fn run(scale: f64, bus_ratio: f64) -> Vec<(String, Table)> {
    let scenes = PreparedScene::all(scale);
    let mut out = Vec::new();
    for sli in [false, true] {
        for &procs in &PROC_PANELS {
            let title = format!(
                "{procs} processors / {}  (bus {bus_ratio} texel/pixel)",
                if sli { "SLI" } else { "block" }
            );
            out.push((title, speedup_panel(&scenes, procs, sli, bus_ratio)));
        }
    }
    out
}

/// Finds, for each benchmark row, the parameter with the best speedup —
/// the paper's headline "best block size" analysis.
pub fn best_params(panel: &Table) -> Vec<(String, u32, f64)> {
    let csv = panel.to_csv();
    let mut lines = csv.lines();
    let header: Vec<u32> = lines
        .next()
        .expect("header")
        .split(',')
        .skip(1)
        .map(|c| c.parse().expect("numeric param"))
        .collect();
    let mut out = Vec::new();
    for line in lines {
        let mut cells = line.split(',');
        let name = cells.next().expect("benchmark").to_string();
        let speedups: Vec<f64> = cells.map(|c| c.parse().expect("numeric speedup")).collect();
        let (idx, best) = speedups
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty row");
        out.push((name, header[idx], *best));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortmid_scene::Benchmark;

    #[test]
    fn panel_has_all_scenes_and_reasonable_speedups() {
        let scenes = vec![
            PreparedScene::new(Benchmark::Quake, 0.1),
            PreparedScene::new(Benchmark::Massive32_11255, 0.1),
        ];
        let t = speedup_panel(&scenes, 4, false, 1.0);
        assert_eq!(t.len(), 2);
        for (_, p, best) in best_params(&t) {
            assert!(best > 1.0 && best <= 4.2, "best {best} at {p}");
        }
    }

    #[test]
    fn best_params_picks_the_max() {
        let mut t = Table::new(&["benchmark", "4", "16", "64"]);
        t.row(&["x", "1.0", "3.5", "2.0"]);
        let best = best_params(&t);
        assert_eq!(best, vec![("x".to_string(), 16, 3.5)]);
    }

    #[test]
    fn mid_widths_beat_extremes_at_16_procs() {
        // The compromise effect: width 16 should beat width 128 (load
        // balance) on a clustered scene at 16 processors.
        let scenes = vec![PreparedScene::new(Benchmark::Massive32_11255, 0.12)];
        let t = speedup_panel(&scenes, 16, false, 1.0);
        let csv = t.to_csv();
        let row: Vec<f64> = csv
            .lines()
            .nth(1)
            .unwrap()
            .split(',')
            .skip(1)
            .map(|c| c.parse().unwrap())
            .collect();
        // BLOCK_WIDTHS = [4, 8, 16, 32, 64, 128]
        let w16 = row[2];
        let w128 = row[5];
        assert!(w16 > w128, "width 16 ({w16}) should beat width 128 ({w128})");
    }
}
