//! Figure 8 — speedup vs block width and triangle-buffer size.
//!
//! `truc640`, 64 processors, block distribution. Two panels: a perfect
//! cache, and a 16 KB cache with a 2 texel/pixel bus. Rows are block
//! widths, columns are triangle-buffer sizes. The paper's findings: ~500
//! entries are needed to match the ideal buffer, small buffers shrink both
//! the peak speedup and the best width, and the buffer matters *more* with
//! a real cache.

use crate::common::{baseline_config, PreparedScene, SpeedupJob, BLOCK_WIDTHS_FULL, BUFFER_SIZES};
use sortmid::{run_sweep, CacheKind, Distribution, MachineConfig, SweepGrid};
use sortmid_scene::Benchmark;
use sortmid_util::table::{fmt_f, Table};

/// One panel: speedup for every block width (rows) × buffer size (columns).
///
/// The widths × buffers grid and its single-processor baseline run as one
/// [`run_sweep`]: each row fixes `(procs, width)` and only varies the
/// buffer, so each width's routing plan is built once and shared across
/// all buffer sizes.
pub fn buffer_panel(scene: &PreparedScene, procs: u32, cache: CacheKind, bus_ratio: f64) -> Table {
    let mut header = vec!["width".to_string()];
    header.extend(BUFFER_SIZES.iter().map(|b| b.to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);

    let job = SpeedupJob::new(
        baseline_config(cache, Some(bus_ratio)),
        width_buffer_grid(procs, cache, bus_ratio),
    );
    let speedups = job.speedups(&run_sweep(&scene.stream, job.configs()));

    // Row-major grid order: distributions outermost, buffers innermost.
    for (width, row_speedups) in BLOCK_WIDTHS_FULL.iter().zip(speedups.chunks(BUFFER_SIZES.len())) {
        let mut row = vec![width.to_string()];
        row.extend(row_speedups.iter().map(|&s| fmt_f(s, 2)));
        t.row_owned(row);
    }
    t
}

/// Figure 8's grid: every block width × buffer size on `procs` nodes.
fn width_buffer_grid(procs: u32, cache: CacheKind, bus_ratio: f64) -> Vec<MachineConfig> {
    SweepGrid::new()
        .processors([procs])
        .distributions(BLOCK_WIDTHS_FULL.iter().map(|&w| Distribution::block(w)))
        .caches([cache])
        .bus_ratios([Some(bus_ratio)])
        .buffers(BUFFER_SIZES)
        .build()
}

/// Runs both Figure 8 panels at `scale`: `(perfect-cache, 16KB + 2x bus)`.
pub fn run(scale: f64) -> (Table, Table) {
    let scene = PreparedScene::new(Benchmark::Truc640, scale);
    let perfect = buffer_panel(&scene, 64, CacheKind::Perfect, 2.0);
    let cached = buffer_panel(&scene, 64, CacheKind::PaperL1, 2.0);
    (perfect, cached)
}

/// The cycle-accounting view behind Figure 8: for every block width (rows)
/// × buffer size (columns), the percentage of machine cycles the nodes
/// spent **FIFO-starved** (summed over nodes, relative to summed finish
/// times). This is the mechanism of the figure made visible: small buffers
/// block the in-order geometry stage on the fullest FIFO, so other nodes
/// starve — and the starved share shrinks as the buffer grows, vanishing
/// near the ~500-entry point where Figure 8's speedups saturate.
pub fn starvation_panel(
    scene: &PreparedScene,
    procs: u32,
    cache: CacheKind,
    bus_ratio: f64,
) -> Table {
    let mut header = vec!["width".to_string()];
    header.extend(BUFFER_SIZES.iter().map(|b| b.to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);

    let reports = run_sweep(&scene.stream, &width_buffer_grid(procs, cache, bus_ratio));

    for (width, row_reports) in BLOCK_WIDTHS_FULL.iter().zip(reports.chunks(BUFFER_SIZES.len())) {
        let mut row = vec![width.to_string()];
        for report in row_reports {
            let breakdown = report.aggregate_breakdown();
            let total = breakdown.total().max(1);
            row.push(fmt_f(breakdown.starved as f64 * 100.0 / total as f64, 1));
        }
        t.row_owned(row);
    }
    t
}

/// Runs the starvation view of both Figure 8 panels at `scale`.
pub fn run_trace(scale: f64) -> (Table, Table) {
    let scene = PreparedScene::new(Benchmark::Truc640, scale);
    let perfect = starvation_panel(&scene, 64, CacheKind::Perfect, 2.0);
    let cached = starvation_panel(&scene, 64, CacheKind::PaperL1, 2.0);
    (perfect, cached)
}

/// For each buffer size (column), the best speedup over widths and the
/// width achieving it — the "best width shrinks with the buffer" effect.
pub fn best_width_per_buffer(panel: &Table) -> Vec<(usize, u32, f64)> {
    let csv = panel.to_csv();
    let mut lines = csv.lines();
    let buffers: Vec<usize> = lines
        .next()
        .expect("header")
        .split(',')
        .skip(1)
        .map(|c| c.parse().expect("numeric buffer"))
        .collect();
    let rows: Vec<(u32, Vec<f64>)> = lines
        .map(|l| {
            let mut cells = l.split(',');
            let width: u32 = cells.next().unwrap().parse().unwrap();
            (width, cells.map(|c| c.parse().unwrap()).collect())
        })
        .collect();
    buffers
        .iter()
        .enumerate()
        .map(|(i, &buffer)| {
            let (width, best) = rows
                .iter()
                .map(|(w, speedups)| (*w, speedups[i]))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .expect("non-empty");
            (buffer, width, best)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_buffers_never_hurt() {
        let scene = PreparedScene::new(Benchmark::Truc640, 0.1);
        let t = buffer_panel(&scene, 16, CacheKind::Perfect, 2.0);
        let csv = t.to_csv();
        for line in csv.lines().skip(1) {
            let cells: Vec<f64> = line.split(',').skip(1).map(|c| c.parse().unwrap()).collect();
            for w in cells.windows(2) {
                assert!(
                    w[1] >= w[0] - 0.02,
                    "speedup should not drop with a bigger buffer: {cells:?}"
                );
            }
        }
    }

    #[test]
    fn best_width_extraction() {
        let mut t = Table::new(&["width", "1", "500"]);
        t.row(&["2", "1.5", "2.0"]);
        t.row(&["16", "1.0", "5.0"]);
        let best = best_width_per_buffer(&t);
        assert_eq!(best, vec![(1, 2, 1.5), (500, 16, 5.0)]);
    }

    #[test]
    fn starvation_shrinks_with_buffer() {
        let scene = PreparedScene::new(Benchmark::Truc640, 0.1);
        let t = starvation_panel(&scene, 16, CacheKind::PaperL1, 2.0);
        let csv = t.to_csv();
        for line in csv.lines().skip(1) {
            let cells: Vec<f64> = line.split(',').skip(1).map(|c| c.parse().unwrap()).collect();
            let (first, last) = (cells[0], *cells.last().unwrap());
            assert!(
                last <= first,
                "starved% should not grow with the buffer: {cells:?}"
            );
        }
    }

    #[test]
    fn tiny_buffer_reduces_peak() {
        let scene = PreparedScene::new(Benchmark::Truc640, 0.1);
        let t = buffer_panel(&scene, 16, CacheKind::PaperL1, 2.0);
        let best = best_width_per_buffer(&t);
        let tiny = best.first().unwrap().2;
        let ideal = best.last().unwrap().2;
        assert!(
            tiny < ideal,
            "1-entry buffer peak {tiny} should trail ideal {ideal}"
        );
    }
}
