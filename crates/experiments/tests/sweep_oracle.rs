//! The figures that run on the sweep pool must print exactly the tables
//! of one `Machine::run` per config. The oracles below are that
//! per-config loop, kept only as the reference the sweep-backed figures
//! are compared against.

use sortmid::{CacheKind, Distribution, Machine, RunReport};
use sortmid_experiments::common::{
    machine, short_name, PreparedScene, BLOCK_WIDTHS, BLOCK_WIDTHS_FULL, BUFFER_SIZES, PROC_CURVE,
    SLI_LINES,
};
use sortmid_experiments::{fig5, fig6, fig7, fig8};
use sortmid_raster::FragmentStream;
use sortmid_scene::Benchmark;
use sortmid_util::table::{fmt_f, Table};

const SCALE: f64 = 0.08;

fn scenes() -> Vec<PreparedScene> {
    vec![
        PreparedScene::new(Benchmark::Massive32_11255, SCALE),
        PreparedScene::new(Benchmark::Quake, SCALE),
    ]
}

fn dist(param: u32, sli: bool) -> Distribution {
    if sli {
        Distribution::sli(param)
    } else {
        Distribution::block(param)
    }
}

fn table(first: &str, params: impl IntoIterator<Item = String>) -> Table {
    let mut header = vec![first.to_string()];
    header.extend(params);
    let refs: Vec<&str> = header.iter().map(String::as_str).collect();
    Table::new(&refs)
}

fn run(
    stream: &FragmentStream,
    procs: u32,
    d: Distribution,
    cache: CacheKind,
    bus: Option<f64>,
    buffer: usize,
) -> RunReport {
    Machine::new(machine(procs, d, cache, bus, buffer)).run(stream)
}

fn oracle_speedup_curves(scene: &PreparedScene, sli: bool) -> Table {
    let params: &[u32] = if sli { &SLI_LINES } else { &BLOCK_WIDTHS_FULL };
    let mut t = table("procs", params.iter().map(u32::to_string));
    let baseline = run(
        &scene.stream,
        1,
        Distribution::block(16),
        CacheKind::Perfect,
        Some(1.0),
        10_000,
    );
    for &procs in &PROC_CURVE {
        let mut row = vec![procs.to_string()];
        for &p in params {
            let report = run(
                &scene.stream,
                procs,
                dist(p, sli),
                CacheKind::Perfect,
                Some(1.0),
                10_000,
            );
            row.push(fmt_f(report.speedup_vs(&baseline), 2));
        }
        t.row_owned(row);
    }
    t
}

fn oracle_locality_table(scene: &PreparedScene, sli: bool) -> Table {
    let params: &[u32] = if sli { &SLI_LINES } else { &BLOCK_WIDTHS };
    let mut t = table("procs", params.iter().map(u32::to_string));
    for &procs in &PROC_CURVE {
        let mut row = vec![procs.to_string()];
        for &p in params {
            let report = run(
                &scene.stream,
                procs,
                dist(p, sli),
                CacheKind::PaperL1,
                None,
                10_000,
            );
            row.push(fmt_f(report.texel_to_fragment(), 3));
        }
        t.row_owned(row);
    }
    t
}

fn oracle_speedup_panel(scenes: &[PreparedScene], procs: u32, sli: bool, bus: f64) -> Table {
    let params: &[u32] = if sli { &SLI_LINES } else { &BLOCK_WIDTHS };
    let mut t = table("benchmark", params.iter().map(u32::to_string));
    for s in scenes {
        let baseline = run(
            &s.stream,
            1,
            Distribution::block(16),
            CacheKind::PaperL1,
            Some(bus),
            10_000,
        );
        let mut row = vec![short_name(s.benchmark).to_string()];
        for &p in params {
            let report = run(
                &s.stream,
                procs,
                dist(p, sli),
                CacheKind::PaperL1,
                Some(bus),
                10_000,
            );
            row.push(fmt_f(report.speedup_vs(&baseline), 2));
        }
        t.row_owned(row);
    }
    t
}

fn oracle_buffer_panel(scene: &PreparedScene, procs: u32, cache: CacheKind, bus: f64) -> Table {
    let mut t = table("width", BUFFER_SIZES.iter().map(usize::to_string));
    let baseline = run(
        &scene.stream,
        1,
        Distribution::block(16),
        cache,
        Some(bus),
        10_000,
    );
    for &width in &BLOCK_WIDTHS_FULL {
        let mut row = vec![width.to_string()];
        for &buffer in &BUFFER_SIZES {
            let report = run(
                &scene.stream,
                procs,
                Distribution::block(width),
                cache,
                Some(bus),
                buffer,
            );
            row.push(fmt_f(report.speedup_vs(&baseline), 2));
        }
        t.row_owned(row);
    }
    t
}

#[test]
fn fig5_speedup_curves_match_per_config_runs() {
    for scene in &scenes() {
        for sli in [false, true] {
            assert_eq!(
                fig5::speedup_curves(scene, sli).to_csv(),
                oracle_speedup_curves(scene, sli).to_csv(),
                "{} sli={sli}",
                scene.benchmark.name()
            );
        }
    }
}

#[test]
fn fig6_locality_tables_match_per_config_runs() {
    for scene in &scenes() {
        for sli in [false, true] {
            assert_eq!(
                fig6::locality_table(scene, sli).to_csv(),
                oracle_locality_table(scene, sli).to_csv(),
                "{} sli={sli}",
                scene.benchmark.name()
            );
        }
    }
}

#[test]
fn fig7_panels_match_per_config_runs() {
    let scenes = scenes();
    for procs in [1u32, 16] {
        for sli in [false, true] {
            assert_eq!(
                fig7::speedup_panel(&scenes, procs, sli, 1.0).to_csv(),
                oracle_speedup_panel(&scenes, procs, sli, 1.0).to_csv(),
                "{procs} procs sli={sli}"
            );
        }
    }
}

#[test]
fn fig8_buffer_panels_match_per_config_runs() {
    for scene in &scenes() {
        for cache in [CacheKind::Perfect, CacheKind::PaperL1] {
            assert_eq!(
                fig8::buffer_panel(scene, 64, cache, 2.0).to_csv(),
                oracle_buffer_panel(scene, 64, cache, 2.0).to_csv(),
                "{} {cache}",
                scene.benchmark.name()
            );
        }
    }
}
