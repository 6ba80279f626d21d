//! CI validator for `BENCH_*.json`, `TRACE_*.json`, `HEATMAP_*.json`,
//! `METRICS_*.json` and `DIFF_*.json` artefacts, plus the bench
//! regression gate.
//!
//! Scans a directory (argument, or the workspace root when run without
//! one — resolved from the manifest so the check works from any cwd),
//! names each artefact's kind from its file name
//! ([`ArtifactKind::of`]) and checks it:
//!
//! * `BENCH_*.json` — the suite fields [`sortmid_devharness::bench::Suite`]
//!   emits; the sweep suite also its `reference` and `trace_replay`
//!   extras and its per-config cycle breakdowns, decoded and verified by
//!   their owner [`SweepBreakdowns`];
//! * `TRACE_*.json` — Chrome-trace-event structure (what ui.perfetto.dev
//!   loads);
//! * `HEATMAP_*.json` — decoded and verified by [`HeatmapDoc`];
//! * `METRICS_*.json` — decoded and verified by [`MetricsDoc`]; a sweep
//!   profile must also name the whole pipeline
//!   ([`REQUIRED_SWEEP_PHASES`]) and carry the scheduler's counters and
//!   queue-depth gauges;
//! * `DIFF_*.json` — the diff or gate-verdict schema of their `kind`.
//!
//! Every artefact but a DIFF must carry a `provenance` block at the
//! current schema version.
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

use sortmid_devharness::json::Json;
use sortmid_observe::artifact::member;
use sortmid_observe::diff::config_group;
use sortmid_observe::{
    record, Artifact, ArtifactKind, HeatmapDoc, MetricsDiff, MetricsDoc, Provenance, Schema,
    SweepBreakdowns, SweepDiff, SCHEMA_VERSION,
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

record! {
    /// One lane of a `BENCH_*.json` suite (what
    /// [`sortmid_devharness::bench::Suite`] emits).
    pub struct Lane {
        pub id: String,
        pub median_ns: u64,
        pub p10_ns: u64,
        pub p50_ns: u64,
        pub p90_ns: u64,
        pub p99_ns: u64,
        pub samples_ns: Vec<u64>,
    }
}

record! {
    /// The fields every `BENCH_*.json` suite carries.
    pub struct BenchSuite {
        pub suite: String,
        pub warmup_iters: u64,
        pub samples: u64,
        pub benchmarks: Vec<Lane>,
    }
}

/// Checks one `BENCH_*.json` suite, appending human-readable problems.
fn check_doc(name: &str, doc: &Json, problems: &mut Vec<String>) {
    let suite = match BenchSuite::from_json(doc) {
        Ok(suite) => suite,
        Err(e) => return problems.push(format!("{name}: {e}")),
    };
    if suite.benchmarks.is_empty() {
        problems.push(format!("{name}: 'benchmarks' is empty"));
    }
    for lane in suite.benchmarks.iter().filter(|l| l.samples_ns.is_empty()) {
        problems.push(format!("{name}/{}: 'samples_ns' is empty", lane.id));
    }
    // The sweep artefact carries the tracing extras; enforce them there.
    if suite.suite == "sweep" {
        check_sweep_extras(name, doc, problems);
    }
}

/// Requires a valid `provenance` block at the current schema version.
fn check_provenance(name: &str, doc: &Json, problems: &mut Vec<String>) {
    match Provenance::from_doc(doc) {
        Ok(p) if p.schema != SCHEMA_VERSION => problems.push(format!(
            "{name}: provenance schema {} (this checker expects {SCHEMA_VERSION}); \
             regenerate the artefact",
            p.schema
        )),
        Ok(_) => {}
        Err(e) => problems.push(format!("{name}: {e}")),
    }
}

/// Decodes `doc` with its owner type, then checks its provenance's schema
/// version and every identity the owner verifies; returns the decoded
/// document.
fn check_artifact<A: Artifact>(name: &str, doc: &Json, problems: &mut Vec<String>) -> Option<A> {
    match A::from_json(doc) {
        Ok(artifact) => {
            check_provenance(name, doc, problems);
            problems.extend(artifact.verify().into_iter().map(|p| format!("{name}: {p}")));
            Some(artifact)
        }
        Err(e) => {
            problems.push(format!("{name}: {e}"));
            None
        }
    }
}

record! {
    /// The sweep's `grid/shared-plan` median against the pre-tracing one.
    pub struct Reference {
        pub pre_pr_median_ns: u64,
        pub median_ns: u64,
        pub ratio: f64,
    }
}

record! {
    /// The sweep's dense trace-replay lane summary.
    pub struct TraceReplay {
        pub configs: u64,
        pub base_configs: u64,
        pub median_ns: u64,
        pub base_median_ns: u64,
        pub marginal_ns_per_config: f64,
    }
}

/// Validates the sweep artefact's `reference` and `trace_replay` extras
/// and its decoded [`SweepBreakdowns`].
fn check_sweep_extras(name: &str, doc: &Json, problems: &mut Vec<String>) {
    if let Err(e) = member::<Reference>(doc, "reference") {
        problems.push(format!("{name}: {e}"));
    }
    match member::<TraceReplay>(doc, "trace_replay") {
        Err(e) => problems.push(format!("{name}: {e}")),
        Ok(t) => {
            // The dense lane's whole point is pricing 100+ cache configs
            // from one replay; a shrunken grid silently weakens the bench.
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
    }
    check_artifact::<SweepBreakdowns>(name, doc, problems);
}

/// Validates one `TRACE_*.json` Chrome-trace-event document.
fn check_trace(name: &str, doc: &Json, problems: &mut Vec<String>) {
    check_provenance(name, doc, problems);
    let Some(events) = doc.get("traceEvents").and_then(Json::as_arr) else {
        problems.push(format!("{name}: missing or mistyped 'traceEvents'"));
        return;
    };
    if events.is_empty() {
        problems.push(format!("{name}: 'traceEvents' is empty"));
        return;
    }
    let mut metadata = 0usize;
    for (i, e) in events.iter().enumerate() {
        let Some(ph) = e.get("ph").and_then(Json::as_str) else {
            problems.push(format!("{name}#{i}: event without 'ph' phase"));
            continue;
        };
        if e.get("pid").and_then(Json::as_u64).is_none() {
            problems.push(format!("{name}#{i}: event without integer 'pid'"));
        }
        match ph {
            "M" => metadata += 1,
            "X" => {
                for key in ["ts", "dur"] {
                    if e.get(key).and_then(Json::as_u64).is_none() {
                        problems.push(format!("{name}#{i}: X event without integer '{key}'"));
                    }
                }
                if e.get("name").and_then(Json::as_str).is_none() {
                    problems.push(format!("{name}#{i}: X event without 'name'"));
                }
            }
            "C" => {
                if !matches!(e.get("args"), Some(Json::Obj(_))) {
                    problems.push(format!("{name}#{i}: C event without 'args' object"));
                }
            }
            "i" => {
                if e.get("ts").and_then(Json::as_u64).is_none() {
                    problems.push(format!("{name}#{i}: i event without integer 'ts'"));
                }
            }
            other => problems.push(format!("{name}#{i}: unexpected phase '{other}'")),
        }
    }
    if metadata == 0 {
        problems.push(format!("{name}: no metadata (M) events naming tracks"));
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
    // Scheduler instrumentation: claim/steal counters, per-worker
    // queue-depth gauges, and the run-configs imbalance summary.
    for key in ["sweep.claims", "sweep.steals", "sweep.tasks"] {
        if !profile.metrics.counters.contains_key(key) {
            problems.push(format!(
                "{name}: sweep profile is missing scheduler counter '{key}'"
            ));
        }
    }
    if !profile.metrics.gauges.keys().any(|k| k.starts_with("sweep.queue_depth.")) {
        problems.push(format!(
            "{name}: sweep profile has no 'sweep.queue_depth.*' gauges"
        ));
    }
    if !profile.utilization_imbalance.contains_key("run-configs") {
        problems.push(format!(
            "{name}: sweep profile's imbalance table is missing the 'run-configs' lane"
        ));
    }
}

/// Validates one `DIFF_*.json` document (from `sortmid-diff` or the
/// `--json` gate verdict) against its `kind`'s schema.
fn check_diff(name: &str, doc: &Json, problems: &mut Vec<String>) {
    let mut fail = |e: String| problems.push(format!("{name}: {e}"));
    match doc.get("kind").and_then(Json::as_str) {
        None => fail(
            "missing or mistyped 'kind' (expected gate/sweep-diff/heatmap-diff/metrics-diff)"
                .to_string(),
        ),
        Some("gate") => match GateVerdict::from_json(doc) {
            Ok(gate) if gate.groups.is_empty() => fail("'groups' is empty".to_string()),
            Ok(_) => {}
            Err(e) => fail(e),
        },
        Some(kind @ ("sweep-diff" | "heatmap-diff" | "metrics-diff")) => {
            let zero = member::<bool>(doc, "zero").err();
            let provenance = ["base_provenance", "current_provenance"]
                .map(|key| member::<Provenance>(doc, key).err());
            zero.into_iter().chain(provenance.into_iter().flatten()).for_each(&mut fail);
            let body = match kind {
                "sweep-diff" => "configs",
                "heatmap-diff" => "planes",
                _ => "phases",
            };
            if !matches!(doc.get(body), Some(Json::Arr(_))) {
                fail(format!("missing or mistyped '{body}'"));
            }
        }
        Some(other) => fail(format!("unexpected diff kind '{other}'")),
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
) -> (Vec<String>, Vec<GroupVerdict>) {
    let mut lines = Vec::new();
    let mut verdicts = Vec::new();
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
        verdicts.push(GroupVerdict {
            group: group.clone(),
            baseline_median: base,
            current_median: now,
            pass,
        });
    }
    (lines, verdicts)
}

/// One group's gate verdict (`None` medians mark the side missing the
/// group — coverage drift, always a failure).
struct GroupVerdict {
    group: String,
    baseline_median: Option<f64>,
    current_median: Option<f64>,
    pass: bool,
}

impl GroupVerdict {
    /// `current / baseline`, when both sides have a positive median.
    fn ratio(&self) -> Option<f64> {
        match (self.baseline_median, self.current_median) {
            (Some(b), Some(c)) if b > 0.0 => Some(c / b),
            _ => None,
        }
    }
}

record! {
    /// One group's row of a gate verdict document.
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

/// The gate verdict document of a run.
fn gate_verdict_json(
    baseline_name: &str,
    verdicts: &[GroupVerdict],
    pass: bool,
    explanation: &[String],
) -> Json {
    let groups = verdicts.iter().map(|v| GroupRow {
        group: v.group.clone(),
        baseline_median: v.baseline_median,
        current_median: v.current_median,
        ratio: v.ratio(),
        pass: v.pass,
    });
    GateVerdict {
        kind: "gate".to_string(),
        pass,
        baseline: baseline_name.to_string(),
        tolerance: REGRESSION_TOLERANCE,
        groups: groups.collect(),
        explanation: explanation.to_vec(),
    }
    .to_json()
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
    check_doc(&format!("baseline({})", baseline_path.display()), &baseline_doc, problems);
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
    let (lines, verdicts) = compare_groups(&medians(&current), &base_groups, problems);
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
            let diff = decode(&base_metrics)
                .and_then(|b| decode(&cur_metrics).map(|c| (b, c)))
                .and_then(|(b, c)| MetricsDiff::between(&b, &c));
            match diff {
                Ok(diff) => explanation.extend(diff.explanation(5)),
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
        let pass = problems.len() == problems_before;
        let name = baseline_path.display().to_string();
        let doc = gate_verdict_json(&name, &verdicts, pass, &explanation);
        match std::fs::write(out, doc.render()) {
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
            ArtifactKind::Bench => check_doc(&name, &doc, &mut problems),
            ArtifactKind::Trace => check_trace(&name, &doc, &mut problems),
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

    fn groups(entries: &[(&str, f64)]) -> BTreeMap<String, f64> {
        entries.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    /// Stamps a fixture document with a valid provenance block.
    fn with_prov(mut doc: Json) -> Json {
        doc.set("provenance", Provenance::collect(7, 0xab).to_json());
        doc
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
        let (lines, verdicts) = compare_groups(&cur, &base, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(lines.len(), 2);
        assert!(verdicts.iter().all(|v| v.pass), "all groups pass");
    }

    #[test]
    fn trace_replay_extra_is_enforced_on_sweep_docs() {
        let mut problems = Vec::new();
        check_sweep_extras("sweep", &Json::obj::<&str>([]), &mut problems);
        assert!(
            problems.iter().any(|p| p.contains("trace_replay")),
            "{problems:?}"
        );

        // A shrunken dense lane or non-finite marginal must fail too.
        let doc = Json::obj([
            (
                "trace_replay",
                Json::obj([
                    ("configs", Json::U64(12)),
                    ("base_configs", Json::U64(4)),
                    ("median_ns", Json::U64(100)),
                    ("base_median_ns", Json::U64(50)),
                    ("marginal_ns_per_config", Json::F64(f64::INFINITY)),
                ]),
            ),
            ("cycle_breakdowns", Json::arr([])),
        ]);
        let mut problems = Vec::new();
        check_sweep_extras("sweep", &doc, &mut problems);
        assert!(
            problems.iter().any(|p| p.contains("< 100")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("non-finite")),
            "{problems:?}"
        );
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
                "workers": [{{"lane": "run-configs", "worker": 0,
                             "wall_ns": 100, "busy_ns": 60,
                             "idle_ns": {worker_idle}, "items": 4}}],
                "phases": [
                    {{"name": "run-sweep", "count": 1, "total_ns": 100, "self_ns": 80}},
                    {{"name": "plan-build", "count": 1, "total_ns": 20, "self_ns": 20}}
                ],
                "utilization_imbalance": {{"run-configs": 0.25}},
                "metrics": {{"counters": {{}}, "gauges": {{}}, "histograms": {{}}}}}}"#,
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
                "workers": [{"lane": "run-configs", "worker": 0,
                             "wall_ns": 1, "busy_ns": 1, "idle_ns": 0,
                             "items": 1}],
                "phases": [{"name": "a", "count": 1, "total_ns": 100, "self_ns": 100},
                           {"name": "b", "count": 1, "total_ns": 100, "self_ns": 100}],
                "utilization_imbalance": {"run-configs": 0.0},
                "metrics": {"counters": {}, "gauges": {}, "histograms": {}}}"#,
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
        // A sweep doc with empty counters/gauges must flag every piece of
        // missing scheduler instrumentation.
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
        for needle in [
            "missing scheduler counter 'sweep.claims'",
            "missing scheduler counter 'sweep.steals'",
            "missing scheduler counter 'sweep.tasks'",
            "no 'sweep.queue_depth.*' gauges",
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
                *v = Json::parse(r#"{"run-configs": 1.5}"#).unwrap();
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
                        r#"{"counters": {"sweep.claims": 10, "sweep.steals": 2,
                                         "sweep.tasks": 12},
                            "gauges": {"sweep.queue_depth.w00": 4,
                                       "sweep.queue_depth.w01": 3},
                            "histograms": {}}"#,
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
        let doc = Json::parse(
            r#"{"cycle_breakdowns": [
                {"config": "16p/block-16/16KB/buf100", "total_cycles": 100},
                {"config": "16p/block-16/perfect/buf100", "total_cycles": 300},
                {"config": "64p/sli-4/16KB/buf100", "total_cycles": 50}
            ]}"#,
        )
        .unwrap();
        let medians = sweep_group_medians(
            doc.get("cycle_breakdowns").and_then(Json::as_arr).unwrap().iter().map(|e| {
                let config = e.get("config").and_then(Json::as_str).unwrap();
                (config, e.get("total_cycles").and_then(Json::as_u64).unwrap())
            }),
        );
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

        let mut problems = Vec::new();
        check_sweep_extras("sweep", &Json::obj::<&str>([]), &mut problems);
        assert!(
            problems.iter().any(|p| p.contains("missing provenance")),
            "{problems:?}"
        );
    }

    #[test]
    fn gate_verdict_json_round_trips_through_check_diff() {
        let verdicts = vec![
            GroupVerdict {
                group: "16p/block-16".to_string(),
                baseline_median: Some(1000.0),
                current_median: Some(1200.0),
                pass: false,
            },
            GroupVerdict {
                group: "64p/sli-4".to_string(),
                baseline_median: Some(500.0),
                current_median: None,
                pass: false,
            },
        ];
        let doc = gate_verdict_json(
            "BENCH_baseline.json",
            &verdicts,
            false,
            &["16p/block-16: regressed +20.0%".to_string()],
        );
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("gate"));
        assert_eq!(doc.get("pass"), Some(&Json::Bool(false)));
        let g = &doc.get("groups").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(g.get("ratio").and_then(Json::as_f64), Some(1.2));
        // Coverage drift renders null medians, not fake zeros.
        let g1 = &doc.get("groups").and_then(Json::as_arr).unwrap()[1];
        assert_eq!(g1.get("current_median"), Some(&Json::Null));
        // The emitted verdict satisfies the DIFF_ schema check, and the
        // parse/render round trip preserves it.
        let reparsed = Json::parse(&doc.render()).unwrap();
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

        // A pairwise diff needs both provenance blocks and its body array.
        let mut problems = Vec::new();
        check_diff(
            "DIFF_x.json",
            &Json::obj([("kind", Json::str("sweep-diff")), ("zero", Json::Bool(true))]),
            &mut problems,
        );
        assert!(
            problems.iter().any(|p| p.contains("base_provenance"))
                && problems.iter().any(|p| p.contains("configs")),
            "{problems:?}"
        );
    }
}
