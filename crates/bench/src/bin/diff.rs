//! `sortmid-diff`: attributed comparison of two run artefacts.
//!
//! Where the regression gate answers *did it get slower*, this tool
//! answers *what changed and why*: given two artefacts of the same kind
//! it computes exact signed deltas at every level the instrumentation
//! records and prints a ranked explanation. The kind comes from the file
//! name ([`ArtifactKind::of`]), and each side is decoded by its owner:
//!
//! * `BENCH_*.json` ([`SweepBreakdowns`]) — per-config cycle deltas split
//!   by the five-way breakdown identity;
//! * `HEATMAP_<preset>.json` ([`HeatmapDoc`]) — tile-level delta grids
//!   per metric plane, owner flips, and per-node three-C miss-class
//!   movement; with `--ppm-dir` each plane renders as a diverging-palette
//!   PPM (blue improved, white unchanged, red regressed);
//! * `METRICS_<name>.json` ([`MetricsDoc`]) — host phase wall-time
//!   movement, counter drift and histogram distribution shifts.
//!
//! Both documents must carry comparable `provenance` blocks (same
//! schema, scene seed and config grid). `--json <out>` writes the diff as
//! a `DIFF_*.json` document — the differ's own record, which
//! `bench_check` decodes and verifies;
//! `--expect-zero` exits non-zero unless the diff is exactly zero at
//! every level, which is how tier-1 pins the self-diff identity on real
//! artefacts.
//!
//! Usage: `sortmid-diff <baseline.json> <current.json> [--json <out>]
//! [--ppm-dir <dir>] [--expect-zero] [--top N]`

use sortmid_devharness::json::Json;
use sortmid_observe::{
    ArtifactKind, HeatmapDiff, HeatmapDoc, MetricsDiff, MetricsDoc, Schema, SweepBreakdowns,
    SweepDiff,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Pixels drawn per tile in the delta PPMs (matches the heatmap bin).
const PX_PER_TILE: u32 = 8;

const USAGE: &str = "usage: sortmid-diff <baseline.json> <current.json> \
                     [--json <out>] [--ppm-dir <dir>] [--expect-zero] [--top N]";

/// Reads, parses and decodes one artefact with its owner type.
fn load<A: Schema>(path: &Path) -> Result<A, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string());
    let doc = text.and_then(|t| Json::parse(&t).map_err(|e| e.to_string()));
    doc.and_then(|doc| A::from_json(&doc)).map_err(|e| format!("{}: {e}", path.display()))
}

/// Diffs the pair, printing the explanation; returns `(diff document,
/// is_zero)`.
fn run_diff(
    base: &Path,
    cur: &Path,
    top: usize,
    ppm_dir: Option<&Path>,
) -> Result<(Json, bool), String> {
    let kind = |p: &Path| {
        ArtifactKind::of(p).ok_or_else(|| {
            format!("{}: not a BENCH_/HEATMAP_/METRICS_ *.json artefact", p.display())
        })
    };
    let (base_kind, cur_kind) = (kind(base)?, kind(cur)?);
    if base_kind != cur_kind {
        return Err(format!(
            "artefact kinds differ: {base_kind:?} baseline vs {cur_kind:?} current"
        ));
    }
    match base_kind {
        ArtifactKind::Bench => {
            let d = SweepDiff::between(&load::<SweepBreakdowns>(base)?, &load(cur)?)?;
            println!(
                "sweep diff: {} shared configs, {} changed",
                d.configs.len(),
                d.ranked().len()
            );
            for line in d.explanation(top) {
                println!("  {line}");
            }
            Ok((d.to_json(), d.zero))
        }
        ArtifactKind::Heatmap => {
            let d = HeatmapDiff::between(&load::<HeatmapDoc>(base)?, &load(cur)?)?;
            println!("heatmap diff: preset '{}', config {}", d.preset, d.config);
            for line in d.explanation() {
                println!("  {line}");
            }
            if let Some(dir) = ppm_dir {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("create {}: {e}", dir.display()))?;
                for plane in &d.planes {
                    let path = dir.join(format!("DIFF_{}_{}.ppm", d.preset, plane.metric));
                    plane
                        .render(PX_PER_TILE)
                        .write_ppm(&path)
                        .map_err(|e| format!("write {}: {e}", path.display()))?;
                    println!("wrote {}", path.display());
                }
            }
            Ok((d.to_json(), d.zero))
        }
        ArtifactKind::Metrics => {
            let base = load::<MetricsDoc>(base)?;
            let d = MetricsDiff::between(&base, &load(cur)?)?;
            println!(
                "metrics diff: {} shared phases, {} histograms",
                d.phases.len(),
                d.histograms.len()
            );
            for line in d.explanation(&base, top) {
                println!("  {line}");
            }
            Ok((d.to_json(), d.zero))
        }
        other => Err(format!("no differ for {other:?} artefacts")),
    }
}

fn main() -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut json_out: Option<PathBuf> = None;
    let mut ppm_dir: Option<PathBuf> = None;
    let mut expect_zero = false;
    let mut top = 10usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" | "--ppm-dir" => {
                let Some(path) = args.next().map(PathBuf::from) else {
                    eprintln!("sortmid-diff: {arg} needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                *(if arg == "--json" { &mut json_out } else { &mut ppm_dir }) = Some(path);
            }
            "--expect-zero" => expect_zero = true,
            "--top" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => top = n,
                _ => {
                    eprintln!("sortmid-diff: --top needs a positive integer\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => paths.push(PathBuf::from(other)),
        }
    }
    let [base_path, cur_path] = paths.as_slice() else {
        eprintln!("sortmid-diff: need exactly two artefact paths\n{USAGE}");
        return ExitCode::FAILURE;
    };

    let (doc, zero) = match run_diff(base_path, cur_path, top, ppm_dir.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sortmid-diff: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(out) = &json_out {
        if let Err(e) = std::fs::write(out, doc.render()) {
            eprintln!("sortmid-diff: write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", out.display());
    }
    if expect_zero && !zero {
        eprintln!(
            "sortmid-diff: --expect-zero, but the artefacts differ \
             (see the attribution above)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
