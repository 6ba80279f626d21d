//! CI validator for `BENCH_*.json`, `TRACE_*.json`, `HEATMAP_*.json` and
//! `METRICS_*.json` artefacts, plus the bench regression gate.
//!
//! Parses every `BENCH_*.json` in a directory (argument, or the workspace
//! root when run without one — resolved from the manifest so the check
//! works from any cwd) with the devharness JSON reader and checks the
//! schema that [`sortmid_devharness::bench::Suite`] emits: top-level
//! `suite`, `warmup_iters`, `samples`, and a `benchmarks` array whose
//! entries carry `id`, `median_ns`, the `p10_ns`/`p50_ns`/`p90_ns`/`p99_ns`
//! percentile ladder and a non-empty `samples_ns` array. The sweep artefact must additionally carry the
//! observability extras: `cycle_breakdowns` (per config, per node
//! `[setup, busy, bus_stall, starved, idle, finish]` — the first five must
//! sum *exactly* to the sixth, and the machine total must be the max node
//! finish) and a `reference` comparison against the pre-tracing median.
//!
//! `TRACE_*.json` files are checked for Chrome-trace-event structure (what
//! ui.perfetto.dev loads): a non-empty `traceEvents` array whose entries
//! all carry a `ph` phase and a `pid`, duration (`X`) events with
//! `ts`/`dur`/`name`, counter (`C`) events with an `args` object, and at
//! least one metadata (`M`) event naming a track.
//!
//! `HEATMAP_*.json` files (from the `heatmap` bin) are checked for grid
//! geometry consistency (every per-tile metric is `rows`×`cols`), fragment
//! conservation (tile sums and node sums both equal the `fragments`
//! total), and the per-node three-C identity
//! `compulsory + capacity + conflict == misses`.
//!
//! `METRICS_*.json` host profiles (from the sweep bench's profiled run)
//! are checked for the `HostProfile` schema and its structural invariants:
//! every span nests inside its parent on the parent's thread, siblings
//! never overlap within a thread, every worker satisfies
//! `busy + idle == wall` *exactly*, and a sweep profile's span tree must
//! name the whole pipeline (at least [`REQUIRED_SWEEP_PHASES`]).
//!
//! With `--against <baseline>` the sweep artefact's *simulated* cycle
//! totals are additionally gated against a committed baseline (e.g.
//! `BENCH_baseline.json`): configs are grouped by processor count and
//! distribution, and any group whose median `total_cycles` regresses by
//! more than the tolerance (15% default, `--tolerance <pct>` to override)
//! fails the check — as does any group present on only one
//! side (coverage drift). Cycles are deterministic — unlike the
//! wall-clock `median_ns`, which varies with the host and is therefore
//! only reported, never gated.
//!
//! Every sweep/trace/heatmap/metrics artefact must carry a `provenance`
//! block (schema version, scene seed, config-grid hash, build profile,
//! host fingerprint) at the current schema version, and the gate refuses
//! to compare a current run against a baseline whose provenance is
//! incomparable — a different scene or config grid would attribute
//! phantom deltas to the code under test.
//!
//! With `--explain` a gate run additionally prints a ranked attribution
//! of what moved: per-config cycle deltas split by the five-way
//! breakdown identity (via `sortmid_observe::SweepDiff`), plus host
//! phase wall-time movement when a baseline `METRICS_sweep.json` sits
//! next to the baseline artefact. With `--json <out>` the whole gate
//! verdict (per-group medians, ratios, pass/fail, the explanation) is
//! written as a machine-readable `DIFF_*.json` document — the shape the
//! future CI endpoint serves. `DIFF_*.json` files found during the scan
//! are themselves schema-validated.
//!
//! Exits non-zero (listing every problem) if any artefact is malformed or
//! regressed, so a bench binary that silently emits garbage — or a change
//! that silently slows a machine configuration — fails tier-1.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sortmid_devharness::json::Json;
use sortmid_observe::{MetricsDiff, Provenance, SweepDiff, SCHEMA_VERSION};

/// Fractional simulated-cycle growth a config group may show over the
/// baseline before the gate fails (the `--tolerance` default).
const REGRESSION_TOLERANCE: f64 = 0.15;

/// Pipeline phases a sweep host profile must cover: if any is absent the
/// instrumentation regressed (the sweep bench profiles both the reference
/// grid and the dense replay lane, so every stage below runs).
const REQUIRED_SWEEP_PHASES: [&str; 9] = [
    "run-sweep",
    "batch-pivot",
    "plan-build",
    "path-select",
    "lane-pivot",
    "capture",
    "trace-eval",
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

/// Checks one parsed artefact, appending human-readable problems.
fn check_doc(name: &str, doc: &Json, problems: &mut Vec<String>) {
    let mut need = |key: &str, ok: bool| {
        if !ok {
            problems.push(format!("{name}: missing or mistyped key '{key}'"));
        }
    };
    need("suite", doc.get("suite").and_then(Json::as_str).is_some());
    need(
        "warmup_iters",
        doc.get("warmup_iters").and_then(Json::as_u64).is_some(),
    );
    need("samples", doc.get("samples").and_then(Json::as_u64).is_some());

    let Some(benches) = doc.get("benchmarks").and_then(Json::as_arr) else {
        problems.push(format!("{name}: missing or mistyped key 'benchmarks'"));
        return;
    };
    if benches.is_empty() {
        problems.push(format!("{name}: 'benchmarks' is empty"));
    }
    for (i, b) in benches.iter().enumerate() {
        let id = b.get("id").and_then(Json::as_str);
        let label = id.map_or_else(|| format!("{name}#{i}"), |id| format!("{name}/{id}"));
        if id.is_none() {
            problems.push(format!("{label}: missing or mistyped key 'id'"));
        }
        for key in ["median_ns", "p10_ns", "p50_ns", "p90_ns", "p99_ns"] {
            if b.get(key).and_then(Json::as_u64).is_none() {
                problems.push(format!("{label}: missing or mistyped key '{key}'"));
            }
        }
        match b.get("samples_ns").and_then(Json::as_arr) {
            None => problems.push(format!("{label}: missing or mistyped key 'samples_ns'")),
            Some([]) => problems.push(format!("{label}: 'samples_ns' is empty")),
            Some(s) => {
                if s.iter().any(|v| v.as_u64().is_none()) {
                    problems.push(format!("{label}: non-integer entry in 'samples_ns'"));
                }
            }
        }
    }

    // The sweep artefact carries the tracing extras; enforce them there.
    if doc.get("suite").and_then(Json::as_str) == Some("sweep") {
        check_sweep_extras(name, doc, problems);
    }
}

/// Requires a valid `provenance` block at the current schema version.
fn check_provenance(name: &str, doc: &Json, problems: &mut Vec<String>) {
    match Provenance::from_doc(doc) {
        Ok(p) => {
            if p.schema != SCHEMA_VERSION {
                problems.push(format!(
                    "{name}: provenance schema {} (this checker expects {SCHEMA_VERSION}); \
                     regenerate the artefact",
                    p.schema
                ));
            }
        }
        Err(e) => problems.push(format!("{name}: {e}")),
    }
}

/// Validates the sweep artefact's `provenance`, `cycle_breakdowns` and
/// `reference` fields, including the exact per-node accounting identity.
fn check_sweep_extras(name: &str, doc: &Json, problems: &mut Vec<String>) {
    check_provenance(name, doc, problems);
    match doc.get("reference") {
        None => problems.push(format!("{name}: missing 'reference' comparison")),
        Some(r) => {
            for key in ["pre_pr_median_ns", "median_ns"] {
                if r.get(key).and_then(Json::as_u64).is_none() {
                    problems.push(format!("{name}/reference: missing or mistyped '{key}'"));
                }
            }
            if r.get("ratio").and_then(Json::as_f64).is_none() {
                problems.push(format!("{name}/reference: missing or mistyped 'ratio'"));
            }
        }
    }

    match doc.get("trace_replay") {
        None => problems.push(format!("{name}: missing 'trace_replay' extra")),
        Some(t) => {
            for key in ["configs", "base_configs", "median_ns", "base_median_ns"] {
                if t.get(key).and_then(Json::as_u64).is_none() {
                    problems.push(format!("{name}/trace_replay: missing or mistyped '{key}'"));
                }
            }
            // The dense lane's whole point is pricing 100+ cache configs
            // from one replay; a shrunken grid silently weakens the bench.
            if let Some(n) = t.get("configs").and_then(Json::as_u64) {
                if n < 100 {
                    problems.push(format!(
                        "{name}/trace_replay: dense lane covers only {n} cache configs (< 100)"
                    ));
                }
            }
            match t.get("marginal_ns_per_config").and_then(Json::as_f64) {
                None => problems.push(format!(
                    "{name}/trace_replay: missing or mistyped 'marginal_ns_per_config'"
                )),
                Some(m) if !m.is_finite() => problems.push(format!(
                    "{name}/trace_replay: non-finite marginal cost {m}"
                )),
                Some(_) => {}
            }
        }
    }

    let Some(configs) = doc.get("cycle_breakdowns").and_then(Json::as_arr) else {
        problems.push(format!("{name}: missing or mistyped 'cycle_breakdowns'"));
        return;
    };
    if configs.is_empty() {
        problems.push(format!("{name}: 'cycle_breakdowns' is empty"));
    }
    for (i, entry) in configs.iter().enumerate() {
        let label = entry
            .get("config")
            .and_then(Json::as_str)
            .map_or_else(|| format!("{name}/breakdown#{i}"), |c| format!("{name}/{c}"));
        let Some(total) = entry.get("total_cycles").and_then(Json::as_u64) else {
            problems.push(format!("{label}: missing or mistyped 'total_cycles'"));
            continue;
        };
        let Some(nodes) = entry.get("nodes").and_then(Json::as_arr) else {
            problems.push(format!("{label}: missing or mistyped 'nodes'"));
            continue;
        };
        let mut max_finish = 0;
        for (n, row) in nodes.iter().enumerate() {
            let cells: Option<Vec<u64>> = row
                .as_arr()
                .map(|r| r.iter().filter_map(Json::as_u64).collect());
            match cells.as_deref() {
                Some([setup, busy, bus_stall, starved, idle, finish]) => {
                    let sum = setup + busy + bus_stall + starved + idle;
                    if sum != *finish {
                        problems.push(format!(
                            "{label}/node{n}: breakdown sums to {sum}, finish is {finish}"
                        ));
                    }
                    max_finish = max_finish.max(*finish);
                }
                _ => problems.push(format!(
                    "{label}/node{n}: expected 6 integers [setup, busy, bus_stall, starved, idle, finish]"
                )),
            }
        }
        if !nodes.is_empty() && max_finish != total {
            problems.push(format!(
                "{label}: total_cycles {total} != max node finish {max_finish}"
            ));
        }
    }
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

/// The per-tile metric planes every `HEATMAP_*.json` must carry.
const HEATMAP_TILE_METRICS: [&str; 7] = [
    "fragments",
    "setup_cycles",
    "lines_fetched",
    "miss_compulsory",
    "miss_capacity",
    "miss_conflict",
    "owner",
];

/// Validates one `HEATMAP_*.json` spatial-attribution document: grid
/// geometry, fragment conservation, and the per-node three-C identity.
fn check_heatmap(name: &str, doc: &Json, problems: &mut Vec<String>) {
    check_provenance(name, doc, problems);
    for key in ["preset", "config"] {
        if doc.get(key).and_then(Json::as_str).is_none() {
            problems.push(format!("{name}: missing or mistyped key '{key}'"));
        }
    }
    for key in ["width", "height"] {
        if doc
            .get("screen")
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .is_none()
        {
            problems.push(format!("{name}: missing or mistyped 'screen.{key}'"));
        }
    }
    if doc.get("fragment_gini").and_then(Json::as_f64).is_none() {
        problems.push(format!("{name}: missing or mistyped key 'fragment_gini'"));
    }
    let geometry: Option<(u64, u64)> = match (
        doc.get("tile").and_then(Json::as_u64),
        doc.get("cols").and_then(Json::as_u64),
        doc.get("rows").and_then(Json::as_u64),
    ) {
        (Some(tile), Some(cols), Some(rows)) if tile > 0 && cols > 0 && rows > 0 => {
            Some((cols, rows))
        }
        _ => {
            problems.push(format!(
                "{name}: 'tile'/'cols'/'rows' must be positive integers"
            ));
            None
        }
    };
    let Some(fragments) = doc.get("fragments").and_then(Json::as_u64) else {
        problems.push(format!("{name}: missing or mistyped key 'fragments'"));
        return;
    };

    // Every metric plane is rows x cols of integers; the fragment plane
    // must additionally conserve the total.
    let mut tile_fragment_sum: Option<u64> = None;
    match doc.get("tiles") {
        None => problems.push(format!("{name}: missing 'tiles' object")),
        Some(tiles) => {
            for metric in HEATMAP_TILE_METRICS {
                let Some(rows) = tiles.get(metric).and_then(Json::as_arr) else {
                    problems.push(format!("{name}: missing or mistyped 'tiles.{metric}'"));
                    continue;
                };
                let mut sum = 0u64;
                let mut shape_ok = geometry.is_none_or(|(_, r)| rows.len() as u64 == r);
                for row in rows {
                    match row.as_arr() {
                        Some(cells) => {
                            shape_ok &= geometry.is_none_or(|(c, _)| cells.len() as u64 == c);
                            for cell in cells {
                                match cell.as_u64() {
                                    Some(v) => sum += v,
                                    None => shape_ok = false,
                                }
                            }
                        }
                        None => shape_ok = false,
                    }
                }
                if !shape_ok {
                    problems.push(format!(
                        "{name}: 'tiles.{metric}' is not a rows x cols integer grid"
                    ));
                }
                if metric == "fragments" {
                    tile_fragment_sum = Some(sum);
                }
            }
        }
    }
    if let Some(sum) = tile_fragment_sum {
        if sum != fragments {
            problems.push(format!(
                "{name}: tile fragments sum to {sum}, document total is {fragments}"
            ));
        }
    }

    let Some(nodes) = doc.get("nodes").and_then(Json::as_arr) else {
        problems.push(format!("{name}: missing or mistyped 'nodes'"));
        return;
    };
    if nodes.is_empty() {
        problems.push(format!("{name}: 'nodes' is empty"));
    }
    let mut node_fragment_sum = 0u64;
    for (i, node) in nodes.iter().enumerate() {
        let counts: Vec<Option<u64>> = ["fragments", "misses", "compulsory", "capacity", "conflict"]
            .iter()
            .map(|k| node.get(k).and_then(Json::as_u64))
            .collect();
        match counts[..] {
            [Some(frags), Some(misses), Some(com), Some(cap), Some(con)] => {
                node_fragment_sum += frags;
                if com + cap + con != misses {
                    problems.push(format!(
                        "{name}/node{i}: three-C identity broken: \
                         {com}+{cap}+{con} != {misses} misses"
                    ));
                }
            }
            _ => problems.push(format!(
                "{name}/node{i}: missing or mistyped fragment/miss counters"
            )),
        }
    }
    if node_fragment_sum != fragments {
        problems.push(format!(
            "{name}: node fragments sum to {node_fragment_sum}, document total is {fragments}"
        ));
    }
}

/// Validates one `METRICS_*.json` host profile: schema, span-nesting and
/// sibling-overlap invariants, the exact per-worker `busy + idle == wall`
/// identity, and (for the sweep profile) full pipeline-phase coverage.
fn check_metrics(name: &str, doc: &Json, problems: &mut Vec<String>) {
    check_provenance(name, doc, problems);
    let profile = doc.get("profile").and_then(Json::as_str);
    if profile.is_none() {
        problems.push(format!("{name}: missing or mistyped key 'profile'"));
    }
    if doc.get("peak_rss_bytes").and_then(Json::as_u64).is_none() {
        problems.push(format!("{name}: missing or mistyped key 'peak_rss_bytes'"));
    }
    for key in ["counters", "gauges", "histograms"] {
        if !matches!(doc.get("metrics").and_then(|m| m.get(key)), Some(Json::Obj(_))) {
            problems.push(format!("{name}: missing or mistyped 'metrics.{key}'"));
        }
    }

    // Spans: decode, then check the tree invariants.
    struct Span {
        name: String,
        thread: u64,
        parent: Option<usize>,
        start: u64,
        end: u64,
    }
    let mut spans: Vec<Span> = Vec::new();
    match doc.get("spans").and_then(Json::as_arr) {
        None => problems.push(format!("{name}: missing or mistyped 'spans'")),
        Some(rows) => {
            if rows.is_empty() {
                problems.push(format!("{name}: 'spans' is empty"));
            }
            for (i, row) in rows.iter().enumerate() {
                let fields = (
                    row.get("name").and_then(Json::as_str),
                    row.get("thread").and_then(Json::as_u64),
                    row.get("depth").and_then(Json::as_u64),
                    row.get("start_ns").and_then(Json::as_u64),
                    row.get("dur_ns").and_then(Json::as_u64),
                );
                let parent = match row.get("parent") {
                    Some(Json::Null) => None,
                    Some(Json::U64(p)) => Some(*p as usize),
                    _ => {
                        problems.push(format!(
                            "{name}/span#{i}: 'parent' must be null or an integer index"
                        ));
                        continue;
                    }
                };
                let (Some(sname), Some(thread), Some(_), Some(start), Some(dur)) = fields else {
                    problems.push(format!(
                        "{name}/span#{i}: missing or mistyped name/thread/depth/start_ns/dur_ns"
                    ));
                    continue;
                };
                spans.push(Span {
                    name: sname.to_string(),
                    thread,
                    parent,
                    start,
                    end: start + dur,
                });
            }
            for (i, span) in spans.iter().enumerate() {
                if let Some(p) = span.parent {
                    match spans.get(p) {
                        None => problems.push(format!(
                            "{name}/span#{i} '{}': parent index {p} out of range",
                            span.name
                        )),
                        Some(parent) => {
                            if parent.thread != span.thread {
                                problems.push(format!(
                                    "{name}/span#{i} '{}': crosses threads (parent '{}')",
                                    span.name, parent.name
                                ));
                            }
                            if span.start < parent.start || span.end > parent.end {
                                problems.push(format!(
                                    "{name}/span#{i} '{}': [{}, {}] escapes parent '{}' [{}, {}]",
                                    span.name, span.start, span.end,
                                    parent.name, parent.start, parent.end
                                ));
                            }
                        }
                    }
                }
            }
            // Siblings (same thread, same parent) must not overlap.
            type Siblings<'a> = Vec<(u64, u64, &'a str)>;
            let mut groups: BTreeMap<(u64, Option<usize>), Siblings> = BTreeMap::new();
            for span in &spans {
                groups
                    .entry((span.thread, span.parent))
                    .or_default()
                    .push((span.start, span.end, &span.name));
            }
            for ((thread, _), mut siblings) in groups {
                siblings.sort_unstable();
                for pair in siblings.windows(2) {
                    if pair[1].0 < pair[0].1 {
                        problems.push(format!(
                            "{name}: spans '{}' and '{}' overlap on thread {thread}",
                            pair[0].2, pair[1].2
                        ));
                    }
                }
            }
        }
    }

    // Workers: the identity must hold exactly, not approximately.
    match doc.get("workers").and_then(Json::as_arr) {
        None => problems.push(format!("{name}: missing or mistyped 'workers'")),
        Some(rows) => {
            if rows.is_empty() {
                problems.push(format!("{name}: 'workers' is empty"));
            }
            for (i, row) in rows.iter().enumerate() {
                if row.get("lane").and_then(Json::as_str).is_none() {
                    problems.push(format!("{name}/worker#{i}: missing or mistyped 'lane'"));
                }
                let counters = (
                    row.get("wall_ns").and_then(Json::as_u64),
                    row.get("busy_ns").and_then(Json::as_u64),
                    row.get("idle_ns").and_then(Json::as_u64),
                    row.get("items").and_then(Json::as_u64),
                );
                let (Some(wall), Some(busy), Some(idle), Some(_)) = counters else {
                    problems.push(format!(
                        "{name}/worker#{i}: missing or mistyped wall_ns/busy_ns/idle_ns/items"
                    ));
                    continue;
                };
                if busy + idle != wall {
                    problems.push(format!(
                        "{name}/worker#{i}: utilization identity broken: \
                         busy {busy} + idle {idle} != wall {wall}"
                    ));
                }
            }
        }
    }

    // Phases: aggregate table, and full coverage for the sweep profile.
    let mut phase_names: Vec<String> = Vec::new();
    match doc.get("phases").and_then(Json::as_arr) {
        None => problems.push(format!("{name}: missing or mistyped 'phases'")),
        Some(rows) => {
            for (i, row) in rows.iter().enumerate() {
                match row.get("name").and_then(Json::as_str) {
                    Some(p) => phase_names.push(p.to_string()),
                    None => problems.push(format!("{name}/phase#{i}: missing or mistyped 'name'")),
                }
                for key in ["count", "total_ns", "self_ns"] {
                    if row.get(key).and_then(Json::as_u64).is_none() {
                        problems.push(format!("{name}/phase#{i}: missing or mistyped '{key}'"));
                    }
                }
            }
        }
    }
    for phase in &phase_names {
        if !spans.iter().any(|s| s.name == *phase) {
            problems.push(format!(
                "{name}: phase '{phase}' has no backing span"
            ));
        }
    }
    // Per-lane worker-utilization imbalance: every lane's spread must be a
    // fraction of the stage window.
    let mut has_run_configs = false;
    match doc.get("utilization_imbalance") {
        Some(Json::Obj(lanes)) => {
            for (lane, value) in lanes {
                has_run_configs |= lane == "run-configs";
                match value.as_f64() {
                    Some(v) if (0.0..=1.0).contains(&v) => {}
                    _ => problems.push(format!(
                        "{name}: utilization_imbalance['{lane}'] must be a number in [0, 1]"
                    )),
                }
            }
        }
        _ => problems.push(format!("{name}: missing or mistyped 'utilization_imbalance'")),
    }

    if profile == Some("sweep") {
        for phase in REQUIRED_SWEEP_PHASES {
            if !phase_names.iter().any(|p| p == phase) {
                problems.push(format!(
                    "{name}: sweep profile is missing required pipeline phase '{phase}'"
                ));
            }
        }

        // Scheduler instrumentation: claim/steal counters, per-worker
        // queue-depth gauges, and the run-configs imbalance summary.
        for key in ["sweep.claims", "sweep.steals", "sweep.tasks"] {
            let present = doc
                .get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get(key))
                .and_then(Json::as_u64)
                .is_some();
            if !present {
                problems.push(format!(
                    "{name}: sweep profile is missing scheduler counter '{key}'"
                ));
            }
        }
        if let Some(Json::Obj(gauges)) = doc.get("metrics").and_then(|m| m.get("gauges")) {
            let mut depth_gauges = 0usize;
            for (key, value) in gauges {
                if key.starts_with("sweep.queue_depth.") {
                    depth_gauges += 1;
                    if value.as_u64().is_none() {
                        problems.push(format!(
                            "{name}: queue-depth gauge '{key}' must be a non-negative integer"
                        ));
                    }
                }
            }
            if depth_gauges == 0 {
                problems.push(format!(
                    "{name}: sweep profile has no 'sweep.queue_depth.*' gauges"
                ));
            }
        } else {
            problems.push(format!(
                "{name}: sweep profile has no 'sweep.queue_depth.*' gauges"
            ));
        }
        if !has_run_configs {
            problems.push(format!(
                "{name}: sweep utilization_imbalance is missing the 'run-configs' lane"
            ));
        }
    }
}

/// Validates one `DIFF_*.json` document (from `sortmid-diff` or the
/// `--json` gate verdict) against its `kind`'s schema.
fn check_diff(name: &str, doc: &Json, problems: &mut Vec<String>) {
    // Both provenance blocks of a pairwise diff must be full blocks.
    let check_prov_block = |key: &str, problems: &mut Vec<String>| {
        let Some(block) = doc.get(key) else {
            problems.push(format!("{name}: missing '{key}'"));
            return;
        };
        let wrapped = Json::obj([("provenance", block.clone())]);
        if let Err(e) = Provenance::from_doc(&wrapped) {
            problems.push(format!("{name}/{key}: {e}"));
        }
    };
    let need_bool = |key: &str, problems: &mut Vec<String>| {
        if !matches!(doc.get(key), Some(Json::Bool(_))) {
            problems.push(format!("{name}: missing or mistyped '{key}'"));
        }
    };
    match doc.get("kind").and_then(Json::as_str) {
        None => problems.push(format!(
            "{name}: missing or mistyped 'kind' \
             (expected gate/sweep-diff/heatmap-diff/metrics-diff)"
        )),
        Some("gate") => {
            need_bool("pass", problems);
            if doc.get("tolerance").and_then(Json::as_f64).is_none() {
                problems.push(format!("{name}: missing or mistyped 'tolerance'"));
            }
            if !matches!(doc.get("explanation"), Some(Json::Arr(_))) {
                problems.push(format!("{name}: missing or mistyped 'explanation'"));
            }
            let Some(groups) = doc.get("groups").and_then(Json::as_arr) else {
                problems.push(format!("{name}: missing or mistyped 'groups'"));
                return;
            };
            if groups.is_empty() {
                problems.push(format!("{name}: 'groups' is empty"));
            }
            for (i, g) in groups.iter().enumerate() {
                if g.get("group").and_then(Json::as_str).is_none()
                    || !matches!(g.get("pass"), Some(Json::Bool(_)))
                {
                    problems.push(format!("{name}/group#{i}: missing 'group'/'pass'"));
                }
                // Medians and ratio are numbers or null (coverage drift).
                for key in ["baseline_median", "current_median", "ratio"] {
                    let ok = matches!(g.get(key), Some(Json::Null))
                        || g.get(key).and_then(Json::as_f64).is_some();
                    if !ok {
                        problems.push(format!("{name}/group#{i}: missing or mistyped '{key}'"));
                    }
                }
            }
        }
        Some(kind @ ("sweep-diff" | "heatmap-diff" | "metrics-diff")) => {
            need_bool("zero", problems);
            check_prov_block("base_provenance", problems);
            check_prov_block("current_provenance", problems);
            let body = match kind {
                "sweep-diff" => "configs",
                "heatmap-diff" => "planes",
                _ => "phases",
            };
            if !matches!(doc.get(body), Some(Json::Arr(_))) {
                problems.push(format!("{name}: missing or mistyped '{body}'"));
            }
        }
        Some(other) => problems.push(format!("{name}: unexpected diff kind '{other}'")),
    }
}

/// Per-group median simulated cycles of a sweep document, keyed by the
/// first two config segments (`<procs>p/<distribution>`).
fn sweep_group_medians(doc: &Json) -> BTreeMap<String, f64> {
    let mut groups: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    if let Some(configs) = doc.get("cycle_breakdowns").and_then(Json::as_arr) {
        for entry in configs {
            let (Some(config), Some(total)) = (
                entry.get("config").and_then(Json::as_str),
                entry.get("total_cycles").and_then(Json::as_u64),
            ) else {
                continue;
            };
            let key: Vec<&str> = config.splitn(3, '/').collect();
            if key.len() >= 2 {
                groups
                    .entry(format!("{}/{}", key[0], key[1]))
                    .or_default()
                    .push(total);
            }
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
    tolerance: f64,
    problems: &mut Vec<String>,
) -> (Vec<String>, Vec<GroupVerdict>) {
    let mut lines = Vec::new();
    let mut verdicts = Vec::new();
    for (group, &base) in baseline {
        let Some(&now) = current.get(group) else {
            problems.push(format!(
                "regression gate: group '{group}' present in baseline but missing from current sweep"
            ));
            verdicts.push(GroupVerdict {
                group: group.clone(),
                baseline_median: Some(base),
                current_median: None,
                pass: false,
            });
            continue;
        };
        let verdict_pass;
        if base <= 0.0 {
            if now > 0.0 {
                lines.push(format!(
                    "  {group:24} {base:>14.0} -> {now:>14.0} cycles (no ratio)"
                ));
                problems.push(format!(
                    "regression gate: group '{group}' has a zero-cycle baseline median but \
                     {now:.0} current cycles — the baseline cannot anchor a ratio; regenerate it"
                ));
                verdict_pass = false;
            } else {
                lines.push(format!("  {group:24} {base:>14.0} -> {now:>14.0} cycles (+0.0%)"));
                verdict_pass = true;
            }
        } else {
            let ratio = now / base;
            lines.push(format!(
                "  {group:24} {base:>14.0} -> {now:>14.0} cycles ({:+.1}%)",
                (ratio - 1.0) * 100.0
            ));
            verdict_pass = ratio <= 1.0 + tolerance;
            if !verdict_pass {
                problems.push(format!(
                    "regression gate: group '{group}' median cycles regressed {:.1}% \
                     (baseline {base:.0}, current {now:.0}, tolerance {:.1}%)",
                    (ratio - 1.0) * 100.0,
                    tolerance * 100.0
                ));
            }
        }
        verdicts.push(GroupVerdict {
            group: group.clone(),
            baseline_median: Some(base),
            current_median: Some(now),
            pass: verdict_pass,
        });
    }
    for (group, &now) in current {
        if !baseline.contains_key(group) {
            lines.push(format!("  {group:24} (no baseline entry)"));
            problems.push(format!(
                "regression gate: group '{group}' present in current sweep but missing from \
                 the baseline — regenerate the baseline to cover it"
            ));
            verdicts.push(GroupVerdict {
                group: group.clone(),
                baseline_median: None,
                current_median: Some(now),
                pass: false,
            });
        }
    }
    (lines, verdicts)
}

/// One group's machine-readable gate verdict (`None` medians mark the
/// side missing the group — coverage drift, always a failure).
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

/// The gate verdict as a `DIFF_*.json` document (`kind: "gate"`): the
/// machine-readable shape a CI endpoint serves.
fn gate_verdict_json(
    baseline_name: &str,
    verdicts: &[GroupVerdict],
    tolerance: f64,
    pass: bool,
    explanation: &[String],
) -> Json {
    let opt_f64 = |v: Option<f64>| v.map_or(Json::Null, Json::F64);
    Json::obj([
        ("kind", Json::str("gate")),
        ("pass", Json::Bool(pass)),
        ("baseline", Json::str(baseline_name)),
        ("tolerance", Json::F64(tolerance)),
        (
            "groups",
            Json::arr(verdicts.iter().map(|v| {
                Json::obj([
                    ("group", Json::str(&v.group)),
                    ("baseline_median", opt_f64(v.baseline_median)),
                    ("current_median", opt_f64(v.current_median)),
                    ("ratio", opt_f64(v.ratio())),
                    ("pass", Json::Bool(v.pass)),
                ])
            })),
        ),
        ("explanation", Json::arr(explanation.iter().map(Json::str))),
    ])
}

/// Runs the `--against` gate: loads both sweep documents, validates the
/// baseline's own identities, refuses incomparable provenance, and
/// compares per-group cycle medians. With `explain`, prints a ranked
/// attribution of what moved; with `json_out`, writes the whole verdict
/// as a `kind: "gate"` DIFF document.
fn run_gate(
    dir: &Path,
    baseline_path: &Path,
    tolerance: f64,
    explain: bool,
    json_out: Option<&Path>,
    problems: &mut Vec<String>,
) {
    let problems_before = problems.len();
    let baseline_path = if baseline_path.exists() {
        baseline_path.to_path_buf()
    } else {
        // Bare names like `BENCH_baseline.json` resolve against the
        // workspace root, so the gate works from any cwd.
        workspace_root().join(baseline_path)
    };
    let baseline = match std::fs::read_to_string(&baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t).map_err(|e| e.to_string()))
    {
        Ok(doc) => doc,
        Err(e) => {
            problems.push(format!(
                "regression gate: cannot load baseline {}: {e}",
                baseline_path.display()
            ));
            return;
        }
    };
    // Identity drift in the baseline itself is as fatal as in the run.
    check_doc(
        &format!("baseline({})", baseline_path.display()),
        &baseline,
        problems,
    );

    let current_path = dir.join("BENCH_sweep.json");
    let current = match std::fs::read_to_string(&current_path)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t).map_err(|e| e.to_string()))
    {
        Ok(doc) => doc,
        Err(e) => {
            problems.push(format!(
                "regression gate: cannot load current sweep {}: {e}",
                current_path.display()
            ));
            return;
        }
    };

    // The gate refuses incomparable runs outright: a median comparison
    // across different scenes or config grids would be meaningless.
    let comparable = match (Provenance::from_doc(&baseline), Provenance::from_doc(&current)) {
        (Ok(b), Ok(c)) => match b.comparable(&c) {
            Ok(()) => true,
            Err(e) => {
                problems.push(format!("regression gate: {e}"));
                false
            }
        },
        (base_prov, cur_prov) => {
            if let Err(e) = base_prov {
                problems.push(format!("regression gate: baseline: {e}"));
            }
            if let Err(e) = cur_prov {
                problems.push(format!("regression gate: current sweep: {e}"));
            }
            false
        }
    };
    if !comparable {
        return;
    }

    let base_groups = sweep_group_medians(&baseline);
    let cur_groups = sweep_group_medians(&current);
    if base_groups.is_empty() {
        problems.push(format!(
            "regression gate: baseline {} has no cycle_breakdowns groups",
            baseline_path.display()
        ));
        return;
    }
    let (lines, verdicts) = compare_groups(&cur_groups, &base_groups, tolerance, problems);
    println!(
        "regression gate vs {} ({} groups, tolerance {:.1}%):",
        baseline_path.display(),
        base_groups.len(),
        tolerance * 100.0
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
            let load = |p: &Path| {
                std::fs::read_to_string(p)
                    .map_err(|e| e.to_string())
                    .and_then(|t| Json::parse(&t).map_err(|e| e.to_string()))
            };
            match (load(&base_metrics), load(&cur_metrics)) {
                (Ok(b), Ok(c)) => match MetricsDiff::between(&b, &c) {
                    Ok(diff) => explanation.extend(diff.explanation(5)),
                    Err(e) => explanation.push(format!("(host phases not compared: {e})")),
                },
                _ => explanation
                    .push("(host phases not compared: unreadable METRICS_sweep.json)".to_string()),
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
        let doc = gate_verdict_json(
            &baseline_path.display().to_string(),
            &verdicts,
            tolerance,
            pass,
            &explanation,
        );
        if let Err(e) = std::fs::write(out, doc.render()) {
            problems.push(format!(
                "regression gate: cannot write verdict {}: {e}",
                out.display()
            ));
        } else {
            println!("wrote gate verdict {}", out.display());
        }
    }
}

fn run(dir: &Path) -> Result<usize, String> {
    let mut problems = Vec::new();
    let mut checked = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| {
                    (n.starts_with("BENCH_")
                        || n.starts_with("TRACE_")
                        || n.starts_with("HEATMAP_")
                        || n.starts_with("METRICS_")
                        || n.starts_with("DIFF_"))
                        && n.ends_with(".json")
                })
        })
        .collect();
    entries.sort();

    for path in &entries {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                problems.push(format!("{name}: unreadable: {e}"));
                continue;
            }
        };
        match Json::parse(&text) {
            Ok(doc) => {
                if name.starts_with("TRACE_") {
                    check_trace(&name, &doc, &mut problems);
                } else if name.starts_with("HEATMAP_") {
                    check_heatmap(&name, &doc, &mut problems);
                } else if name.starts_with("METRICS_") {
                    check_metrics(&name, &doc, &mut problems);
                } else if name.starts_with("DIFF_") {
                    check_diff(&name, &doc, &mut problems);
                } else {
                    check_doc(&name, &doc, &mut problems);
                }
                checked += 1;
            }
            Err(e) => problems.push(format!("{name}: {e}")),
        }
    }

    if problems.is_empty() {
        Ok(checked)
    } else {
        Err(problems.join("\n"))
    }
}

fn main() -> ExitCode {
    let mut dir: Option<PathBuf> = None;
    let mut against: Option<PathBuf> = None;
    let mut tolerance = REGRESSION_TOLERANCE;
    let mut explain = false;
    let mut json_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--against" => match args.next() {
                Some(p) => against = Some(PathBuf::from(p)),
                None => {
                    eprintln!("bench_check: --against needs a baseline path");
                    return ExitCode::FAILURE;
                }
            },
            "--tolerance" => match args.next().as_deref().map(str::parse::<f64>) {
                Some(Ok(pct)) if pct >= 0.0 && pct.is_finite() => tolerance = pct / 100.0,
                _ => {
                    eprintln!("bench_check: --tolerance needs a non-negative percentage");
                    return ExitCode::FAILURE;
                }
            },
            "--explain" => explain = true,
            "--json" => match args.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("bench_check: --json needs an output path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: bench_check [dir] [--against <baseline BENCH json>] \
                     [--tolerance <pct>] [--explain] [--json <verdict out>]"
                );
                return ExitCode::SUCCESS;
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
        run_gate(
            &dir,
            baseline,
            tolerance,
            explain,
            json_out.as_deref(),
            &mut gate_problems,
        );
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
        compare_groups(&base, &base, REGRESSION_TOLERANCE, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let base = groups(&[("16p/block-16", 1000.0)]);
        let cur = groups(&[("16p/block-16", 1200.0)]); // +20% > 15%
        let mut problems = Vec::new();
        compare_groups(&cur, &base, REGRESSION_TOLERANCE, &mut problems);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("16p/block-16"), "{problems:?}");
    }

    #[test]
    fn regression_within_tolerance_and_improvement_pass() {
        let base = groups(&[("16p/block-16", 1000.0), ("64p/sli-4", 2000.0)]);
        let cur = groups(&[("16p/block-16", 1100.0), ("64p/sli-4", 1500.0)]);
        let mut problems = Vec::new();
        let (lines, verdicts) = compare_groups(&cur, &base, REGRESSION_TOLERANCE, &mut problems);
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
        compare_groups(&cur, &base, REGRESSION_TOLERANCE, &mut problems);
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
        let (lines, _) = compare_groups(&cur, &base, REGRESSION_TOLERANCE, &mut problems);
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
        compare_groups(&cur, &base, REGRESSION_TOLERANCE, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn tolerance_is_respected_by_the_gate() {
        // +20% fails the default 15% gate but passes a 25% one.
        let base = groups(&[("16p/block-16", 1000.0)]);
        let cur = groups(&[("16p/block-16", 1200.0)]);
        let mut problems = Vec::new();
        compare_groups(&cur, &base, 0.25, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
        let mut problems = Vec::new();
        compare_groups(&cur, &base, 0.15, &mut problems);
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
        let medians = sweep_group_medians(&doc);
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
        check_heatmap("HEATMAP_demo.json", &doc, &mut problems);
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
        check_heatmap("HEATMAP_demo.json", &doc, &mut problems);
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
            0.15,
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
