//! CI validator for `BENCH_*.json`, `TRACE_*.json`, `HEATMAP_*.json`,
//! `METRICS_*.json` and `DIFF_*.json` artefacts, plus the bench
//! regression gate.
//!
//! Scans a directory (argument, or the workspace root when run without
//! one — resolved from the manifest so the check works from any cwd),
//! names each artefact's kind from its file name
//! ([`ArtifactKind::of`]), decodes it with the type that owns its shape
//! and lists every identity that owner's `verify` finds broken:
//!
//! * `BENCH_*.json` — a [`BenchSuite`]; the sweep suite whole as a
//!   [`SweepSuite`] (suite, cycle breakdowns, `reference` and
//!   `trace_replay` extras);
//! * `TRACE_*.json` — a [`ChromeTrace`] (what ui.perfetto.dev loads);
//! * `HEATMAP_*.json` — a [`HeatmapDoc`];
//! * `METRICS_*.json` — a [`MetricsDoc`];
//! * `DIFF_*.json` — by its `kind`: a [`SweepDiff`], [`HeatmapDiff`],
//!   [`MetricsDiff`] or [`GateVerdict`].
//!
//! Every artefact but a DIFF must carry a `provenance` block at the
//! current schema version. What is left here is policy: a sweep profile
//! must name the whole pipeline ([`REQUIRED_SWEEP_PHASES`]), count its
//! scheduler tasks and record the pool's `sched-pool` worker lane, and
//! the sweep's dense trace-replay lane must price 100+ configs at a
//! finite marginal cost.
//!
//! With `--against <baseline>` the sweep's *simulated* cycle totals are
//! gated against a committed baseline (e.g. `BENCH_baseline.json`):
//! configs are grouped by [`config_group`], and a group whose median
//! `total_cycles` regresses by more than [`REGRESSION_TOLERANCE`] (15%)
//! fails — as does a group present on only one side (coverage drift),
//! or a baseline whose provenance is incomparable. Cycles are
//! deterministic; wall-clock `median_ns` is only reported, never gated.
//! `--explain` prints a ranked attribution of what moved ([`SweepDiff`],
//! plus [`MetricsDiff`] when a baseline `METRICS_sweep.json` sits next to
//! the baseline), and `--json <out>` writes the whole verdict as a
//! `DIFF_*.json` document.
//!
//! Exits non-zero (listing every problem) if any artefact is malformed or
//! regressed, so a bench binary that silently emits garbage — or a change
//! that silently slows a machine configuration — fails tier-1.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sortmid_bench::{BenchSuite, SweepSuite, TraceReplay};
use sortmid_devharness::json::Json;
use sortmid_observe::artifact::member;
use sortmid_observe::diff::config_group;
use sortmid_observe::{
    record, Artifact, ArtifactKind, ChromeTrace, HeatmapDiff, HeatmapDoc, Merged, MetricsDiff,
    MetricsDoc, Provenance, Schema, SweepBreakdowns, SweepDiff, SCHEMA_VERSION,
};

/// Fractional simulated-cycle growth a config group may show over the
/// baseline before the gate fails.
const REGRESSION_TOLERANCE: f64 = 0.15;

const USAGE: &str = "usage: bench_check [dir] [--against <baseline BENCH json>] \
                     [--explain] [--json <verdict out>]";

/// Pipeline phases a sweep host profile must cover: if any is absent the
/// instrumentation regressed (the sweep bench profiles both the reference
/// grid and the dense replay lane, so every stage below runs).
const REQUIRED_SWEEP_PHASES: [&str; 7] = [
    "run-sweep",
    "plan-build",
    "path-select",
    "capture",
    "mattson-walk",
    "run-configs",
    "worker-run",
];

/// The workspace root, resolved from this crate's manifest
/// (`crates/bench` → two levels up) so the default paths work from any
/// current directory.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench manifest sits two levels under the workspace root")
}

/// Decodes `doc` with its owner type and lists every identity the owner
/// verifies as broken; returns the decoded document.
fn decode<A: Artifact>(name: &str, doc: &Json, problems: &mut Vec<String>) -> Option<A> {
    match A::from_json(doc) {
        Ok(artifact) => {
            problems.extend(artifact.verify().into_iter().map(|p| format!("{name}: {p}")));
            Some(artifact)
        }
        Err(e) => {
            problems.push(format!("{name}: {e}"));
            None
        }
    }
}

/// Requires a valid `provenance` block at the current schema version.
fn check_provenance(name: &str, doc: &Json, problems: &mut Vec<String>) {
    match member::<Provenance>(doc, "provenance") {
        Ok(p) if p.schema != SCHEMA_VERSION => problems.push(format!(
            "{name}: provenance schema {} (this checker expects {SCHEMA_VERSION}); \
             regenerate the artefact",
            p.schema
        )),
        Ok(_) => {}
        Err(e) => problems.push(format!("{name}: {e}")),
    }
}

/// [`decode`], plus the provenance block's schema version.
fn check_artifact<A: Artifact>(name: &str, doc: &Json, problems: &mut Vec<String>) -> Option<A> {
    let artifact = decode(name, doc, problems)?;
    check_provenance(name, doc, problems);
    Some(artifact)
}

/// Validates one `BENCH_*.json` suite; the sweep suite decodes whole as
/// a [`SweepSuite`], and its dense lane must meet [`check_trace_replay`].
fn check_bench(name: &str, doc: &Json, problems: &mut Vec<String>) {
    match BenchSuite::from_json(doc) {
        Ok(suite) if suite.suite == "sweep" => {
            let sweep = check_artifact::<SweepSuite>(name, doc, problems);
            if let Some(Merged(_, Merged(_, extras))) = sweep {
                check_trace_replay(name, &extras.trace_replay, problems);
            }
        }
        Ok(suite) => problems.extend(suite.verify().into_iter().map(|p| format!("{name}: {p}"))),
        Err(e) => problems.push(format!("{name}: {e}")),
    }
}

/// The dense lane's whole point is pricing 100+ cache configs from one
/// replay; a shrunken grid silently weakens the bench.
fn check_trace_replay(name: &str, t: &TraceReplay, problems: &mut Vec<String>) {
    if t.configs < 100 {
        problems.push(format!(
            "{name}/trace_replay: dense lane covers only {} cache configs (< 100)",
            t.configs
        ));
    }
    if !t.marginal_ns_per_config.is_finite() {
        problems.push(format!(
            "{name}/trace_replay: non-finite marginal cost {}",
            t.marginal_ns_per_config
        ));
    }
}

/// Validates one `METRICS_*.json` host profile: the [`MetricsDoc`]
/// identities, and for the sweep profile full pipeline-phase coverage and
/// the scheduler's instrumentation.
fn check_metrics(name: &str, doc: &Json, problems: &mut Vec<String>) {
    let Some(profile) = check_artifact::<MetricsDoc>(name, doc, problems) else {
        return;
    };
    if profile.profile != "sweep" {
        return;
    }
    for phase in REQUIRED_SWEEP_PHASES {
        if !profile.phases.iter().any(|p| p.name == phase) {
            problems.push(format!(
                "{name}: sweep profile is missing required pipeline phase '{phase}'"
            ));
        }
    }
    // Scheduler instrumentation: the task count and the pool's lane.
    if !profile.metrics.counters.contains_key("sweep.tasks") {
        problems.push(format!("{name}: sweep profile is missing scheduler counter 'sweep.tasks'"));
    }
    if !profile.utilization_imbalance.contains_key("sched-pool") {
        problems.push(format!(
            "{name}: sweep profile's imbalance table is missing the 'sched-pool' lane"
        ));
    }
}

/// Validates one `DIFF_*.json` document (from `sortmid-diff` or the
/// `--json` gate verdict): its `kind` names the owner that decodes it.
fn check_diff(name: &str, doc: &Json, problems: &mut Vec<String>) {
    match member::<String>(doc, "kind").as_deref() {
        Ok("gate") => _ = decode::<GateVerdict>(name, doc, problems),
        Ok("sweep-diff") => _ = decode::<SweepDiff>(name, doc, problems),
        Ok("heatmap-diff") => _ = decode::<HeatmapDiff>(name, doc, problems),
        Ok("metrics-diff") => _ = decode::<MetricsDiff>(name, doc, problems),
        Ok(other) => problems.push(format!("{name}: unexpected diff kind '{other}'")),
        Err(e) => problems.push(format!(
            "{name}: {e} (expected gate/sweep-diff/heatmap-diff/metrics-diff)"
        )),
    }
}

/// Per-group median simulated cycles of `(config, total_cycles)` pairs,
/// keyed by [`config_group`] (`<procs>p/<distribution>`).
fn sweep_group_medians<'a>(
    totals: impl IntoIterator<Item = (&'a str, u64)>,
) -> BTreeMap<String, f64> {
    let mut groups: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for (config, total) in totals {
        if let Some(group) = config_group(config) {
            groups.entry(group).or_default().push(total);
        }
    }
    groups
        .into_iter()
        .map(|(k, mut v)| {
            v.sort_unstable();
            let mid = v.len() / 2;
            let median = if v.len() % 2 == 1 {
                v[mid] as f64
            } else {
                (v[mid - 1] + v[mid]) as f64 / 2.0
            };
            (k, median)
        })
        .collect()
}

/// Gates current per-group cycle medians against a baseline. Any group
/// regressing by more than [`REGRESSION_TOLERANCE`] is a problem, and so is
/// a group present on only one side — a silently skipped group is exactly
/// how a dropped config axis would slip past the gate, so coverage drift in
/// either direction fails until the baseline is regenerated. A zero-cycle
/// baseline median cannot anchor a ratio: it passes only against a
/// zero-cycle current median and fails (explicitly, without dividing) once
/// the current group does real work.
fn compare_groups(
    current: &BTreeMap<String, f64>,
    baseline: &BTreeMap<String, f64>,
    problems: &mut Vec<String>,
) -> (Vec<String>, Vec<GroupRow>) {
    let mut lines = Vec::new();
    let mut rows = Vec::new();
    let sides = baseline
        .iter()
        .map(|(group, &base)| (group, Some(base), current.get(group).copied()))
        .chain(
            current
                .iter()
                .filter(|(group, _)| !baseline.contains_key(*group))
                .map(|(group, &now)| (group, None, Some(now))),
        );
    for (group, base, now) in sides {
        let pass = match (base, now) {
            (Some(_), None) => {
                problems.push(format!(
                    "regression gate: group '{group}' present in baseline but missing from current sweep"
                ));
                false
            }
            (None, _) => {
                lines.push(format!("  {group:24} (no baseline entry)"));
                problems.push(format!(
                    "regression gate: group '{group}' present in current sweep but missing from \
                     the baseline — regenerate the baseline to cover it"
                ));
                false
            }
            (Some(base), Some(now)) if base <= 0.0 => {
                let pass = now <= 0.0;
                let change = if pass { "+0.0%" } else { "no ratio" };
                lines.push(format!("  {group:24} {base:>14.0} -> {now:>14.0} cycles ({change})"));
                if !pass {
                    problems.push(format!(
                        "regression gate: group '{group}' has a zero-cycle baseline median but \
                         {now:.0} current cycles — the baseline cannot anchor a ratio; regenerate it"
                    ));
                }
                pass
            }
            (Some(base), Some(now)) => {
                let pct = (now / base - 1.0) * 100.0;
                lines.push(format!("  {group:24} {base:>14.0} -> {now:>14.0} cycles ({pct:+.1}%)"));
                let pass = now / base <= 1.0 + REGRESSION_TOLERANCE;
                if !pass {
                    problems.push(format!(
                        "regression gate: group '{group}' median cycles regressed {pct:.1}% \
                         (baseline {base:.0}, current {now:.0}, tolerance {:.1}%)",
                        REGRESSION_TOLERANCE * 100.0
                    ));
                }
                pass
            }
        };
        let ratio = match (base, now) {
            (Some(b), Some(c)) if b > 0.0 => Some(c / b),
            _ => None,
        };
        let group = group.clone();
        rows.push(GroupRow { group, baseline_median: base, current_median: now, ratio, pass });
    }
    (lines, rows)
}

record! {
    /// One group's row of a gate verdict document: its medians (`null`
    /// on the side missing the group — coverage drift, always a failure)
    /// and `current / baseline` when the baseline median is positive.
    pub struct GroupRow {
        pub group: String,
        pub baseline_median: Option<f64>,
        pub current_median: Option<f64>,
        pub ratio: Option<f64>,
        pub pass: bool,
    }
}

record! {
    /// The gate verdict as a `DIFF_*.json` document (`kind: "gate"`): the
    /// machine-readable shape a CI endpoint serves.
    pub struct GateVerdict {
        pub kind: String,
        pub pass: bool,
        pub baseline: String,
        pub tolerance: f64,
        pub groups: Vec<GroupRow>,
        pub explanation: Vec<String>,
    }
}

impl Artifact for GateVerdict {
    /// A verdict covers at least one group.
    fn verify(&self) -> Vec<String> {
        if self.groups.is_empty() {
            vec!["'groups' is empty".to_string()]
        } else {
            Vec::new()
        }
    }
}

/// Reads and parses one JSON document.
fn load(path: &Path) -> Result<Json, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t).map_err(|e| e.to_string()))
}

/// Runs the `--against` gate: loads both sweep documents, validates the
/// baseline's own identities, refuses incomparable provenance, and
/// compares per-group cycle medians. With `explain`, prints a ranked
/// attribution of what moved; with `json_out`, writes the whole verdict
/// as a `kind: "gate"` DIFF document.
fn run_gate(
    dir: &Path,
    baseline_path: &Path,
    explain: bool,
    json_out: Option<&Path>,
    problems: &mut Vec<String>,
) {
    let problems_before = problems.len();
    // Bare names like `BENCH_baseline.json` resolve against the workspace
    // root, so the gate works from any cwd.
    let baseline_path = if baseline_path.exists() {
        baseline_path.to_path_buf()
    } else {
        workspace_root().join(baseline_path)
    };
    let load_sweep = |what: &str, path: &Path| {
        let doc = load(path).map_err(|e| format!("cannot load {what} {}: {e}", path.display()))?;
        let sweep = SweepBreakdowns::from_json(&doc).map_err(|e| format!("{what}: {e}"))?;
        Ok::<_, String>((doc, sweep))
    };
    let (baseline_doc, baseline) = match load_sweep("baseline", &baseline_path) {
        Ok(side) => side,
        Err(e) => return problems.push(format!("regression gate: {e}")),
    };
    // Identity drift in the baseline itself is as fatal as in the run.
    check_bench(&format!("baseline({})", baseline_path.display()), &baseline_doc, problems);
    let current = match load_sweep("current sweep", &dir.join("BENCH_sweep.json")) {
        Ok((_, current)) => current,
        Err(e) => return problems.push(format!("regression gate: {e}")),
    };
    // The gate refuses incomparable runs outright: a median comparison
    // across different scenes or config grids would be meaningless.
    if let Err(e) = baseline.provenance.comparable(&current.provenance) {
        return problems.push(format!("regression gate: {e}"));
    }

    let medians = |s: &SweepBreakdowns| {
        sweep_group_medians(s.cycle_breakdowns.iter().map(|c| (c.config.as_str(), c.total_cycles)))
    };
    let base_groups = medians(&baseline);
    if base_groups.is_empty() {
        return problems.push(format!(
            "regression gate: baseline {} has no config groups",
            baseline_path.display()
        ));
    }
    let (lines, rows) = compare_groups(&medians(&current), &base_groups, problems);
    println!(
        "regression gate vs {} ({} groups, tolerance {:.1}%):",
        baseline_path.display(),
        base_groups.len(),
        REGRESSION_TOLERANCE * 100.0
    );
    for line in lines {
        println!("{line}");
    }

    let mut explanation = Vec::new();
    if explain || json_out.is_some() {
        match SweepDiff::between(&baseline, &current) {
            Ok(diff) => explanation.extend(diff.explanation(10)),
            Err(e) => problems.push(format!("regression gate: cannot attribute deltas: {e}")),
        }
        // Host wall-time movement rides along when both sides have a
        // METRICS_sweep.json (informational: wall times are not gated).
        let base_metrics = baseline_path.with_file_name("METRICS_sweep.json");
        let cur_metrics = dir.join("METRICS_sweep.json");
        if base_metrics != cur_metrics && base_metrics.exists() && cur_metrics.exists() {
            let decode = |p: &Path| load(p).and_then(|doc| MetricsDoc::from_json(&doc));
            let lines = decode(&base_metrics).and_then(|base| {
                Ok(MetricsDiff::between(&base, &decode(&cur_metrics)?)?.explanation(&base, 5))
            });
            match lines {
                Ok(lines) => explanation.extend(lines),
                Err(e) => explanation.push(format!("(host phases not compared: {e})")),
            }
        }
    }
    if explain {
        println!("attribution (ranked by |cycle delta|):");
        for line in &explanation {
            println!("  {line}");
        }
    }
    if let Some(out) = json_out {
        let verdict = GateVerdict {
            kind: "gate".to_string(),
            pass: problems.len() == problems_before,
            baseline: baseline_path.display().to_string(),
            tolerance: REGRESSION_TOLERANCE,
            groups: rows,
            explanation,
        };
        match std::fs::write(out, verdict.to_json().render()) {
            Ok(()) => println!("wrote gate verdict {}", out.display()),
            Err(e) => problems.push(format!(
                "regression gate: cannot write verdict {}: {e}",
                out.display()
            )),
        }
    }
}

fn run(dir: &Path) -> Result<usize, String> {
    let mut entries: Vec<(PathBuf, ArtifactKind)> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| {
            let path = e.ok()?.path();
            ArtifactKind::of(&path).map(|kind| (path, kind))
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));

    let mut problems = Vec::new();
    for (path, kind) in &entries {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let doc = match load(path) {
            Ok(doc) => doc,
            Err(e) => {
                problems.push(format!("{name}: {e}"));
                continue;
            }
        };
        match kind {
            ArtifactKind::Bench => check_bench(&name, &doc, &mut problems),
            ArtifactKind::Trace => _ = check_artifact::<ChromeTrace>(&name, &doc, &mut problems),
            ArtifactKind::Heatmap => _ = check_artifact::<HeatmapDoc>(&name, &doc, &mut problems),
            ArtifactKind::Metrics => check_metrics(&name, &doc, &mut problems),
            ArtifactKind::Diff => check_diff(&name, &doc, &mut problems),
        }
    }
    if problems.is_empty() {
        Ok(entries.len())
    } else {
        Err(problems.join("\n"))
    }
}

fn main() -> ExitCode {
    let mut dir: Option<PathBuf> = None;
    let mut against: Option<PathBuf> = None;
    let mut explain = false;
    let mut json_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--against" | "--json" => {
                let Some(path) = args.next().map(PathBuf::from) else {
                    eprintln!("bench_check: {arg} needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                *(if arg == "--json" { &mut json_out } else { &mut against }) = Some(path);
            }
            "--explain" => explain = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--") => {
                eprintln!("bench_check: unknown option {flag}\n{USAGE}");
                return ExitCode::FAILURE;
            }
            other => dir = Some(PathBuf::from(other)),
        }
    }
    if (explain || json_out.is_some()) && against.is_none() {
        eprintln!("bench_check: --explain/--json need --against <baseline>");
        return ExitCode::FAILURE;
    }
    // Default to the workspace root (not the cwd) so the check validates
    // the committed artefacts from anywhere in the tree.
    let dir = dir.unwrap_or_else(|| workspace_root().to_path_buf());

    let mut gate_problems = Vec::new();
    if let Some(baseline) = &against {
        run_gate(&dir, baseline, explain, json_out.as_deref(), &mut gate_problems);
    }

    match run(&dir) {
        Ok(0) => {
            eprintln!(
                "bench_check: no BENCH_/TRACE_/HEATMAP_/METRICS_/DIFF_ *.json artefacts found in {}",
                dir.display()
            );
            ExitCode::FAILURE
        }
        Ok(n) if gate_problems.is_empty() => {
            println!("bench_check: {n} artefact(s) OK in {}", dir.display());
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("bench_check: regression gate failed:\n{}", gate_problems.join("\n"));
            ExitCode::FAILURE
        }
        Err(problems) => {
            gate_problems.push(problems);
            eprintln!("bench_check: invalid artefacts:\n{}", gate_problems.join("\n"));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortmid_bench::{Reference, SweepExtras};
    use sortmid_devharness::{BenchConfig, Suite};
    use sortmid_observe::breakdown::ConfigBreakdown;

    fn groups(entries: &[(&str, f64)]) -> BTreeMap<String, f64> {
        entries.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    /// Stamps a fixture document with a valid provenance block.
    fn with_prov(doc: Json) -> Json {
        let Json::Obj(mut members) = doc else { unreachable!() };
        members.push(("provenance".to_string(), Provenance::collect(7, 0xab).to_json()));
        Json::Obj(members)
    }

    /// Replaces member `key` of an object document.
    fn set(doc: &mut Json, key: &str, value: Json) {
        let Json::Obj(members) = doc else { unreachable!() };
        members.iter_mut().find(|(k, _)| k == key).expect("member present").1 = value;
    }

    #[test]
    fn identical_groups_pass_the_gate() {
        let base = groups(&[("16p/block-16", 1000.0), ("64p/sli-4", 2000.0)]);
        let mut problems = Vec::new();
        compare_groups(&base, &base, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let base = groups(&[("16p/block-16", 1000.0)]);
        let cur = groups(&[("16p/block-16", 1200.0)]); // +20% > 15%
        let mut problems = Vec::new();
        compare_groups(&cur, &base, &mut problems);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("16p/block-16"), "{problems:?}");
    }

    #[test]
    fn regression_within_tolerance_and_improvement_pass() {
        let base = groups(&[("16p/block-16", 1000.0), ("64p/sli-4", 2000.0)]);
        let cur = groups(&[("16p/block-16", 1100.0), ("64p/sli-4", 1500.0)]);
        let mut problems = Vec::new();
        let (lines, rows) = compare_groups(&cur, &base, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(lines.len(), 2);
        assert!(rows.iter().all(|v| v.pass), "all groups pass");
    }

    /// A one-config sweep suite document, with its dense lane covering
    /// `configs` cache configs.
    fn sweep_suite(configs: u64) -> Json {
        let breakdowns = SweepBreakdowns {
            provenance: Provenance::collect(7, 0xab),
            cycle_breakdowns: vec![ConfigBreakdown {
                config: "4p/block-16/16KB/buf100".to_string(),
                total_cycles: 100,
                nodes: vec![[25, 60, 10, 5, 0, 100]],
            }],
        };
        let reference =
            Reference { id: "r".to_string(), pre_pr_median_ns: 2, median_ns: 1, ratio: 0.5 };
        let trace_replay = TraceReplay {
            id: "t".to_string(),
            configs,
            base_configs: 4,
            median_ns: 100,
            base_median_ns: 50,
            marginal_ns_per_config: 1.5,
        };
        let mut suite = Suite::with_config("sweep", BenchConfig { warmup_iters: 0, samples: 1 });
        suite.bench("lane", || ());
        let extras = SweepExtras { reference, trace_replay };
        Merged(BenchSuite::of(&suite), Merged(breakdowns, extras)).to_json()
    }

    #[test]
    fn trace_replay_extra_is_enforced_on_sweep_docs() {
        let mut problems = Vec::new();
        check_bench("BENCH_sweep.json", &sweep_suite(102), &mut problems);
        assert!(problems.is_empty(), "{problems:?}");

        let mut doc = sweep_suite(102);
        set(&mut doc, "trace_replay", Json::Null);
        let mut problems = Vec::new();
        check_bench("BENCH_sweep.json", &doc, &mut problems);
        assert_eq!(problems, ["BENCH_sweep.json: trace_replay: missing 'id'"]);

        // A shrunken dense lane or non-finite marginal must fail too.
        let mut problems = Vec::new();
        check_bench("BENCH_sweep.json", &sweep_suite(12), &mut problems);
        assert!(problems.iter().any(|p| p.contains("< 100")), "{problems:?}");
        let mut lane = TraceReplay::from_json(&Json::parse(
            r#"{"id":"t","configs":102,"base_configs":4,"median_ns":1,"base_median_ns":1,
                "marginal_ns_per_config":0}"#,
        ).unwrap()).unwrap();
        lane.marginal_ns_per_config = f64::INFINITY;
        let mut problems = Vec::new();
        check_trace_replay("BENCH_sweep.json", &lane, &mut problems);
        assert!(problems.iter().any(|p| p.contains("non-finite")), "{problems:?}");
    }

    #[test]
    fn missing_groups_fail_in_both_directions() {
        // Coverage drift is a failure whichever side dropped the group: a
        // baseline group absent from the run AND a run group absent from
        // the baseline.
        let base = groups(&[("16p/block-16", 1000.0)]);
        let cur = groups(&[("64p/sli-4", 500.0)]);
        let mut problems = Vec::new();
        compare_groups(&cur, &base, &mut problems);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("missing from current"), "{problems:?}");
        assert!(problems[1].contains("missing from"), "{problems:?}");
        assert!(problems[1].contains("64p/sli-4"), "{problems:?}");
    }

    #[test]
    fn zero_baseline_with_work_in_current_fails_without_dividing() {
        let base = groups(&[("16p/block-16", 0.0)]);
        let cur = groups(&[("16p/block-16", 500.0)]);
        let mut problems = Vec::new();
        let (lines, _) = compare_groups(&cur, &base, &mut problems);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("zero-cycle baseline"), "{problems:?}");
        // The report line must not carry a NaN/inf percentage.
        assert!(lines.iter().all(|l| !l.contains("NaN") && !l.contains("inf")), "{lines:?}");
    }

    #[test]
    fn zero_baseline_and_zero_current_pass() {
        let base = groups(&[("16p/block-16", 0.0)]);
        let cur = groups(&[("16p/block-16", 0.0)]);
        let mut problems = Vec::new();
        compare_groups(&cur, &base, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn tolerance_is_respected_by_the_gate() {
        // +14.9% passes the fixed 15% gate; +20% fails it.
        let base = groups(&[("16p/block-16", 1000.0)]);
        let mut problems = Vec::new();
        compare_groups(&groups(&[("16p/block-16", 1149.0)]), &base, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
        let cur = groups(&[("16p/block-16", 1200.0)]);
        let mut problems = Vec::new();
        compare_groups(&cur, &base, &mut problems);
        assert_eq!(problems.len(), 1);
        // The breach message names the lane with baseline vs current values.
        assert!(problems[0].contains("16p/block-16"), "{problems:?}");
        assert!(problems[0].contains("baseline 1000"), "{problems:?}");
        assert!(problems[0].contains("current 1200"), "{problems:?}");
    }

    fn metrics_doc(worker_idle: u64, child_end: u64) -> Json {
        Json::parse(&format!(
            r#"{{"profile": "unit", "peak_rss_bytes": 1024,
                "spans": [
                    {{"name": "run-sweep", "thread": 0, "depth": 0,
                      "parent": null, "start_ns": 0, "dur_ns": 100}},
                    {{"name": "plan-build", "thread": 0, "depth": 1,
                      "parent": 0, "start_ns": 10, "dur_ns": {}}}
                ],
                "workers": [{{"lane": "sched-pool", "worker": 0,
                             "wall_ns": 100, "busy_ns": 60,
                             "idle_ns": {worker_idle}, "items": 4}}],
                "phases": [
                    {{"name": "run-sweep", "count": 1, "total_ns": 100, "self_ns": 80}},
                    {{"name": "plan-build", "count": 1, "total_ns": 20, "self_ns": 20}}
                ],
                "utilization_imbalance": {{"sched-pool": 0.25}},
                "metrics": {{"counters": {{}}, "histograms": {{}}}}}}"#,
            child_end - 10,
        ))
        .map(with_prov)
        .unwrap()
    }

    #[test]
    fn metrics_check_accepts_a_consistent_profile() {
        let mut problems = Vec::new();
        check_metrics("METRICS_unit.json", &metrics_doc(40, 30), &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn metrics_check_catches_a_broken_worker_identity() {
        let mut problems = Vec::new();
        check_metrics("METRICS_unit.json", &metrics_doc(41, 30), &mut problems);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("utilization identity"), "{problems:?}");
    }

    #[test]
    fn metrics_check_catches_a_span_escaping_its_parent() {
        let mut problems = Vec::new();
        check_metrics("METRICS_unit.json", &metrics_doc(40, 200), &mut problems);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("escapes parent"), "{problems:?}");
    }

    #[test]
    fn metrics_check_rejects_an_overflowing_span_without_wrapping() {
        // start_ns + dur_ns past u64::MAX must be named, not wrapped into a
        // bogus small end that the nesting checks then misreport.
        let text = metrics_doc(40, 30)
            .render()
            .replace(r#""start_ns":10"#, &format!(r#""start_ns":{}"#, u64::MAX - 5));
        let mut problems = Vec::new();
        check_metrics("METRICS_unit.json", &Json::parse(&text).unwrap(), &mut problems);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("spans[1]"), "{problems:?}");
        assert!(problems[0].contains("overflows u64"), "{problems:?}");
        assert!(!problems[0].contains("escapes parent"), "{problems:?}");
    }

    #[test]
    fn metrics_check_catches_overlapping_siblings() {
        let doc = Json::parse(
            r#"{"profile": "unit", "peak_rss_bytes": 0,
                "spans": [
                    {"name": "a", "thread": 0, "depth": 0,
                     "parent": null, "start_ns": 0, "dur_ns": 100},
                    {"name": "b", "thread": 0, "depth": 0,
                     "parent": null, "start_ns": 50, "dur_ns": 100}
                ],
                "workers": [{"lane": "sched-pool", "worker": 0,
                             "wall_ns": 1, "busy_ns": 1, "idle_ns": 0,
                             "items": 1}],
                "phases": [{"name": "a", "count": 1, "total_ns": 100, "self_ns": 100},
                           {"name": "b", "count": 1, "total_ns": 100, "self_ns": 100}],
                "utilization_imbalance": {"sched-pool": 0.0},
                "metrics": {"counters": {}, "histograms": {}}}"#,
        )
        .map(with_prov)
        .unwrap();
        let mut problems = Vec::new();
        check_metrics("METRICS_unit.json", &doc, &mut problems);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("overlap"), "{problems:?}");
    }

    #[test]
    fn metrics_check_requires_every_sweep_phase() {
        // A doc claiming to be the sweep profile but covering only two
        // phases must list every missing pipeline stage.
        let Json::Obj(mut fields) = metrics_doc(40, 30) else {
            unreachable!()
        };
        for (k, v) in &mut fields {
            if k == "profile" {
                *v = Json::str("sweep");
            }
        }
        let mut problems = Vec::new();
        check_metrics("METRICS_sweep.json", &Json::Obj(fields), &mut problems);
        let missing: Vec<_> = problems
            .iter()
            .filter(|p| p.contains("missing required pipeline phase"))
            .collect();
        assert_eq!(missing.len(), REQUIRED_SWEEP_PHASES.len() - 2, "{problems:?}");
    }

    #[test]
    fn metrics_check_requires_scheduler_instrumentation_on_sweep() {
        // A sweep doc with no counters and no pool lane must flag both
        // pieces of missing scheduler instrumentation.
        let Json::Obj(mut fields) = metrics_doc(40, 30) else {
            unreachable!()
        };
        for (k, v) in &mut fields {
            match k.as_str() {
                "profile" => *v = Json::str("sweep"),
                "utilization_imbalance" => *v = Json::obj::<&str>([]),
                _ => {}
            }
        }
        let mut problems = Vec::new();
        check_metrics("METRICS_sweep.json", &Json::Obj(fields), &mut problems);
        for needle in [
            "missing scheduler counter 'sweep.tasks'",
            "missing the 'sched-pool' lane",
        ] {
            assert!(
                problems.iter().any(|p| p.contains(needle)),
                "expected a problem containing {needle:?}: {problems:?}"
            );
        }
    }

    #[test]
    fn metrics_check_rejects_an_out_of_range_imbalance() {
        let doc = metrics_doc(40, 30);
        let Json::Obj(mut fields) = doc else { unreachable!() };
        for (k, v) in &mut fields {
            if k == "utilization_imbalance" {
                *v = Json::parse(r#"{"sched-pool": 1.5}"#).unwrap();
            }
        }
        let mut problems = Vec::new();
        check_metrics("METRICS_unit.json", &Json::Obj(fields), &mut problems);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("must be a number in [0, 1]"), "{problems:?}");
    }

    #[test]
    fn metrics_check_accepts_a_fully_instrumented_sweep_doc() {
        let Json::Obj(mut fields) = metrics_doc(40, 30) else {
            unreachable!()
        };
        for (k, v) in &mut fields {
            match k.as_str() {
                "profile" => *v = Json::str("sweep"),
                "metrics" => {
                    *v = Json::parse(
                        r#"{"counters": {"sweep.tasks": 12}, "histograms": {}}"#,
                    )
                    .unwrap();
                }
                _ => {}
            }
        }
        // Cover every required phase with a span and a phase total so only
        // the scheduler checks are exercised.
        let spans: Vec<String> = REQUIRED_SWEEP_PHASES
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let (parent, depth) = if i == 0 {
                    ("null".to_string(), 0)
                } else {
                    ("0".to_string(), 1)
                };
                let width = 100 / REQUIRED_SWEEP_PHASES.len() as u64;
                let start = if i == 0 { 0 } else { (i as u64 - 1) * width };
                let dur = if i == 0 { 100 } else { width };
                format!(
                    r#"{{"name": "{p}", "thread": 0, "depth": {depth},
                        "parent": {parent}, "start_ns": {start}, "dur_ns": {dur}}}"#
                )
            })
            .collect();
        let phases: Vec<String> = REQUIRED_SWEEP_PHASES
            .iter()
            .map(|p| format!(r#"{{"name": "{p}", "count": 1, "total_ns": 10, "self_ns": 10}}"#))
            .collect();
        for (k, v) in &mut fields {
            match k.as_str() {
                "spans" => *v = Json::parse(&format!("[{}]", spans.join(","))).unwrap(),
                "phases" => *v = Json::parse(&format!("[{}]", phases.join(","))).unwrap(),
                _ => {}
            }
        }
        let mut problems = Vec::new();
        check_metrics("METRICS_sweep.json", &Json::Obj(fields), &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn sweep_medians_group_by_procs_and_distribution() {
        let medians = sweep_group_medians([
            ("16p/block-16/16KB/buf100", 100),
            ("16p/block-16/perfect/buf100", 300),
            ("64p/sli-4/16KB/buf100", 50),
        ]);
        assert_eq!(medians.len(), 2);
        assert_eq!(medians["16p/block-16"], 200.0);
        assert_eq!(medians["64p/sli-4"], 50.0);
    }

    #[test]
    fn heatmap_check_accepts_a_consistent_document() {
        let doc = Json::parse(
            r#"{"preset": "demo", "config": "1p/block-16",
                "screen": {"width": 16, "height": 16},
                "tile": 16, "cols": 1, "rows": 1,
                "fragments": 3, "fragment_gini": 0.0,
                "tiles": {"fragments": [[3]], "setup_cycles": [[0]],
                          "lines_fetched": [[2]], "miss_compulsory": [[1]],
                          "miss_capacity": [[1]], "miss_conflict": [[0]],
                          "owner": [[0]]},
                "nodes": [{"node": 0, "fragments": 3, "setup_cycles": 0,
                           "misses": 2, "compulsory": 1, "capacity": 1,
                           "conflict": 0}]}"#,
        )
        .map(with_prov)
        .unwrap();
        let mut problems = Vec::new();
        check_artifact::<HeatmapDoc>("HEATMAP_demo.json", &doc, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn heatmap_check_catches_broken_identities() {
        // Tile sum (4) != fragments (3); node identity 1+1+1 != 2.
        let doc = Json::parse(
            r#"{"preset": "demo", "config": "1p/block-16",
                "screen": {"width": 16, "height": 16},
                "tile": 16, "cols": 1, "rows": 1,
                "fragments": 3, "fragment_gini": 0.0,
                "tiles": {"fragments": [[4]], "setup_cycles": [[0]],
                          "lines_fetched": [[2]], "miss_compulsory": [[1]],
                          "miss_capacity": [[1]], "miss_conflict": [[0]],
                          "owner": [[0]]},
                "nodes": [{"node": 0, "fragments": 3, "setup_cycles": 0,
                           "misses": 2, "compulsory": 1, "capacity": 1,
                           "conflict": 1}]}"#,
        )
        .map(with_prov)
        .unwrap();
        let mut problems = Vec::new();
        check_artifact::<HeatmapDoc>("HEATMAP_demo.json", &doc, &mut problems);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("tile fragments sum")));
        assert!(problems.iter().any(|p| p.contains("three-C identity")));
    }

    #[test]
    fn artefacts_without_provenance_are_rejected() {
        // Every stamped artefact family: sweep extras, trace, heatmap,
        // metrics. A document missing the block names the fix.
        let mut problems = Vec::new();
        check_provenance("X.json", &Json::obj::<&str>([]), &mut problems);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("missing provenance"), "{problems:?}");

        // A stale schema version is as fatal as a missing block.
        let mut old = Provenance::collect(7, 0xab);
        old.schema = SCHEMA_VERSION + 1;
        let doc = Json::obj([("provenance", old.to_json())]);
        let mut problems = Vec::new();
        check_provenance("X.json", &doc, &mut problems);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("regenerate"), "{problems:?}");

        let Json::Obj(mut fields) = sweep_suite(102) else { unreachable!() };
        fields.retain(|(k, _)| k != "provenance");
        let mut problems = Vec::new();
        check_bench("BENCH_sweep.json", &Json::Obj(fields), &mut problems);
        assert!(
            problems.iter().any(|p| p.contains("missing provenance")),
            "{problems:?}"
        );
    }

    #[test]
    fn gate_verdict_round_trips_through_check_diff() {
        let base = groups(&[("16p/block-16", 1000.0), ("64p/sli-4", 500.0)]);
        let cur = groups(&[("16p/block-16", 1200.0)]);
        let (_, rows) = compare_groups(&cur, &base, &mut Vec::new());
        let doc = GateVerdict {
            kind: "gate".to_string(),
            pass: false,
            baseline: "BENCH_baseline.json".to_string(),
            tolerance: REGRESSION_TOLERANCE,
            groups: rows,
            explanation: vec!["16p/block-16: regressed +20.0%".to_string()],
        }
        .to_json();
        let text = doc.render();
        assert!(text.starts_with(r#"{"kind":"gate","pass":false,"#), "{text}");
        // Coverage drift renders null medians, not fake zeros.
        assert!(text.contains(r#""current_median":null,"ratio":null"#), "{text}");
        let verdict = GateVerdict::from_json(&doc).unwrap();
        assert_eq!(verdict.groups[0].ratio, Some(1.2));
        // The emitted verdict satisfies the DIFF_ schema check, and the
        // parse/render round trip preserves it.
        let reparsed = Json::parse(&text).unwrap();
        assert_eq!(reparsed.render(), text);
        let mut problems = Vec::new();
        check_diff("DIFF_gate.json", &reparsed, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn check_diff_rejects_malformed_documents() {
        let mut problems = Vec::new();
        check_diff("DIFF_x.json", &Json::obj::<&str>([]), &mut problems);
        assert!(problems[0].contains("kind"), "{problems:?}");

        let mut problems = Vec::new();
        check_diff(
            "DIFF_x.json",
            &Json::obj([("kind", Json::str("mystery"))]),
            &mut problems,
        );
        assert!(problems[0].contains("unexpected diff kind"), "{problems:?}");

        // A pairwise diff needs both provenance blocks.
        let mut problems = Vec::new();
        check_diff(
            "DIFF_x.json",
            &Json::obj([("kind", Json::str("sweep-diff")), ("zero", Json::Bool(true))]),
            &mut problems,
        );
        assert!(problems.iter().any(|p| p.contains("base_provenance")), "{problems:?}");
    }

    /// A sweep diff with one config whose machine time moved by 40 cycles.
    fn sweep_diff() -> Json {
        let Merged(_, Merged(base, _)) = SweepSuite::from_json(&sweep_suite(102)).unwrap();
        let mut cur = base.clone();
        cur.cycle_breakdowns[0].total_cycles += 40;
        cur.cycle_breakdowns[0].nodes[0][2] += 40;
        cur.cycle_breakdowns[0].nodes[0][5] += 40;
        SweepDiff::between(&base, &cur).unwrap().to_json()
    }

    #[test]
    fn diff_documents_decode_and_verify_through_their_owners() {
        let check = |doc: &Json| {
            let mut problems = Vec::new();
            check_diff("DIFF_x.json", doc, &mut problems);
            problems
        };
        assert_eq!(check(&sweep_diff()), Vec::<String>::new());

        // A config row that is not a config delta.
        let mut doc = sweep_diff();
        set(&mut doc, "configs", Json::arr([Json::obj([("garbage", Json::U64(1))])]));
        assert_eq!(check(&doc), ["DIFF_x.json: configs[0]: missing 'config'"]);

        // A `zero` claim its rows contradict.
        let mut doc = sweep_diff();
        set(&mut doc, "zero", Json::Bool(true));
        assert_eq!(check(&doc), ["DIFF_x.json: 'zero' is true but the rows say false"]);

        // The same holds for every differ's document.
        let profile = metrics_doc(40, 30);
        let profile = MetricsDoc::from_json(&profile).unwrap();
        let mut doc = MetricsDiff::between(&profile, &profile).unwrap().to_json();
        assert_eq!(check(&doc), Vec::<String>::new());
        set(&mut doc, "zero", Json::Bool(false));
        assert_eq!(check(&doc), ["DIFF_x.json: 'zero' is false but the rows say true"]);
        set(&mut doc, "kind", Json::str("heatmap-diff"));
        assert!(check(&doc)[0].contains("missing 'preset'"), "{:?}", check(&doc));
    }
}
