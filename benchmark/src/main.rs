//! `sortmid-benchmark --workload <name> [--seed N] [--trace [0|1]] [--smoke]`
//!
//! Runs one workload in this process: five untimed set-ups, a warm-up,
//! then a window of measured calls with tracing off, each followed by its
//! untimed output checks. The window lasts `run_seconds` from
//! `BENCHMARK.json`; a `--seconds S` argument is accepted only with that
//! value. `--trace 1` measures the untraced window for half of it, then
//! one traced round, and writes `results/trace_<workload>.json`. Every
//! metric prints as `<workload> <metric> <value> <unit>`; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and the end-to-end (untraced) or per-layer (traced) metrics.
//! A failed check makes the exit code nonzero.

use sortmid_benchmark::recorder::{self_times, Recorder};
use sortmid_benchmark::speed::HostSpeed;
use sortmid_benchmark::stats::{median, percentile};
use sortmid_benchmark::workload::{
    self, check, digest, Checked, Inputs, ModelTotals, Output, SweepTotals, Workload,
};
use sortmid_benchmark::{declared, elapsed_ns, run_seconds};
use sortmid_devharness::Json;
use sortmid_util::rng::Pcg32;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

const USAGE: &str =
    "usage: sortmid-benchmark --workload <name> [--seed N] [--trace [0|1]] [--smoke]";

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = args.peekable();
    let (mut workload, mut seed, mut trace, mut smoke) = (None, 0, false, false);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::from_name(&name).ok_or(format!(
                    "unknown workload '{name}' (one of {})",
                    names.join(", ")
                ))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed '{v}' is not a u64"))?;
            }
            // Benchmark callers pass the window length; it is fixed.
            "--seconds" => {
                let v = value("--seconds")?;
                if v.parse() != Ok(run_seconds()) {
                    return Err(format!(
                        "--seconds '{v}' differs from BENCHMARK.json's run_seconds {}",
                        run_seconds()
                    ));
                }
            }
            // `--trace` alone, or with an explicit 0 or 1.
            "--trace" => {
                let explicit = args.next_if(|v| v == "0" || v == "1");
                trace = explicit.as_deref() != Some("0");
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        trace,
        smoke,
    })
}

/// The calls of one measured window and their checks.
#[derive(Default)]
struct Window {
    /// Per call of a round, its time in each round that reached it.
    calls_ns: Vec<Vec<u64>>,
    checked: Checked,
    sweeps: SweepTotals,
}

impl Window {
    /// Each call's median time over the rounds that reached it, so a
    /// stall of the host during one of them does not reach the result.
    fn call_medians_ns(&self) -> Vec<u64> {
        self.calls_ns
            .iter()
            .map(|c| median(c).expect("the first round makes every call") as u64)
            .collect()
    }

    /// The time of one round: the sum of the calls' medians.
    fn round_ns(&self) -> u64 {
        self.call_medians_ns().iter().sum()
    }

    /// Calls measured over all rounds.
    fn calls_measured(&self) -> usize {
        self.calls_ns.iter().map(Vec::len).sum()
    }
}

/// What every later call must reproduce, fixed by the first round.
#[derive(Default)]
struct Reference {
    /// Each call's output digest.
    digests: Vec<u64>,
    /// Model totals over the first round's reports.
    model: ModelTotals,
    /// Operations in one round.
    round_ops: u64,
}

/// Makes the workload's calls round after round, checking each output
/// outside the measured time. The first round always completes; after it,
/// the window stops before a call whose previous time would take the
/// measured total past `budget_ns`, so with a budget of 0 it is exactly
/// one round. The host speed is sampled between calls, and `sampler`, when
/// given, re-runs a sample of the first round's sweep reports directly.
#[allow(clippy::too_many_arguments)]
fn measure(
    workload: Workload,
    inputs: &Inputs,
    budget_ns: u64,
    threads: usize,
    rec: &mut Recorder,
    reference: &mut Reference,
    speed: &mut HostSpeed,
    mut sampler: Option<&mut Pcg32>,
) -> Window {
    let calls = workload.calls(inputs);
    let mut window = Window {
        calls_ns: vec![Vec::new(); calls],
        ..Window::default()
    };
    let (mut spent, mut round) = (0, 0);
    loop {
        for k in 0..calls {
            if round > 0 && spent + window.calls_ns[k].last().copied().unwrap_or(0) > budget_ns {
                return window;
            }
            speed.sample();
            rec.next_trace();
            let start = Instant::now();
            let output = workload.call(k, inputs, threads, rec, &mut window.sweeps);
            let ns = elapsed_ns(start);
            spent += ns;
            window.calls_ns[k].push(ns);

            let first = reference.digests.len() == k;
            let sampler = if round == 0 {
                sampler.as_deref_mut()
            } else {
                None
            };
            let mut checked = check(inputs, &output, sampler);
            let d = digest(&output);
            if first {
                reference.digests.push(d);
                reference.round_ops += checked.ops;
                if let Output::Reports(reports) = &output {
                    reports.iter().for_each(|(_, r)| reference.model.add(r));
                }
            } else if reference.digests[k] != d {
                let r = reference.digests[k];
                checked.failed = checked.ops;
                checked.problems.push(format!(
                    "call {k}: output digest {d:#018x} differs from {r:#018x}"
                ));
            }
            window.checked.merge(checked);
        }
        round += 1;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The end-to-end metrics, every time divided by the host's `slowdown`.
fn end_to_end(
    setup_ns: &[u64],
    plain: &Window,
    round_ops: u64,
    peak_rss_bytes: u64,
    slowdown: f64,
) -> Vec<(&'static str, f64)> {
    let round_s = plain.round_ns() as f64 / slowdown / 1e9;
    let calls = plain.call_medians_ns();
    let ms = |ns: f64| ns / slowdown / 1e6;
    let round_has_calls = "a round makes a call";
    vec![
        (
            "setup_s",
            median(setup_ns).expect("at least one set-up") / slowdown / 1e9,
        ),
        ("wall_s", round_s),
        ("ops_per_s", round_ops as f64 / round_s),
        ("peak_rss_mb", peak_rss_bytes as f64 / (1024.0 * 1024.0)),
        ("query_p50_ms", ms(median(&calls).expect(round_has_calls))),
        (
            "query_p95_ms",
            ms(percentile(&calls, 95.0).expect(round_has_calls) as f64),
        ),
    ]
}

/// The per-layer metrics of the traced round. Times are per round and
/// divided by the host's `slowdown`, as the end-to-end times are; scene
/// and raster times are per set-up.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    workload: Workload,
    inputs: &Inputs,
    rec: &Recorder,
    setup_trace: u64,
    window_trace: u64,
    plain: &Window,
    traced: &Window,
    model: &ModelTotals,
    slowdown: f64,
) -> Vec<(&'static str, f64)> {
    let setups = self_times(rec.spans(), |s| s.trace_id <= setup_trace);
    let round = self_times(rec.spans(), |s| s.trace_id > window_trace);
    let n_setups = rec.spans().iter().filter(|s| s.name == "setup").count() as f64;
    let get = |map: &BTreeMap<&str, u64>, name: &str| map.get(name).copied().unwrap_or(0);
    let ms = |ns: f64| ns / slowdown / 1e6;
    let setup_ms = |name| ms(get(&setups, name) as f64 / n_setups);
    let round_ms = |name| ms(get(&round, name) as f64);
    let s = &traced.sweeps;
    let direct_ns: u64 = workload.direct_spans().iter().map(|n| get(&round, n)).sum();
    let imbalance = if s.imbalance_weight > 0.0 {
        s.imbalance_weighted / s.imbalance_weight
    } else {
        0.0
    };
    vec![
        ("scene.generate_ms", setup_ms("scene.generate")),
        ("raster.rasterize_ms", setup_ms("raster.rasterize")),
        ("raster.fragments", inputs.fragments() as f64),
        (
            "experiments.fig5_imbalance_ms",
            round_ms("experiments.fig5_imbalance"),
        ),
        (
            "experiments.fig5_speedup_ms",
            round_ms("experiments.fig5_speedup"),
        ),
        ("experiments.fig6_ms", round_ms("experiments.fig6")),
        ("experiments.fig7_ms", round_ms("experiments.fig7")),
        ("experiments.fig8_ms", round_ms("experiments.fig8")),
        (
            "machine.ns_per_frag",
            ratio(direct_ns, workload.direct_work(inputs)) / slowdown,
        ),
        ("sweep.batch_pivot_ms", round_ms("batch-pivot")),
        ("sweep.plan_build_ms", round_ms("plan-build")),
        ("sweep.lane_pivot_ms", round_ms("lane-pivot")),
        ("sweep.trace_capture_ms", round_ms("trace-capture")),
        ("sweep.capture_ms", round_ms("capture")),
        ("cache.mattson_walk_ms", round_ms("mattson-walk")),
        ("cache.direct_replay_ms", round_ms("direct-replay")),
        ("sweep.run_configs_ms", round_ms("run-configs")),
        (
            "sweep.ns_per_frag_config",
            ratio(get(&round, "run-configs"), s.frag_configs) / slowdown,
        ),
        ("sched.busy_ms", ms(s.pool_busy_ns as f64)),
        ("sched.utilization", ratio(s.pool_busy_ns, s.pool_wall_ns)),
        (
            "sched.idle_ms",
            ms((s.pool_wall_ns - s.pool_busy_ns) as f64),
        ),
        ("sched.imbalance", imbalance),
        ("sched.steals", s.steals as f64),
        ("sweep.path_direct", s.path_direct as f64),
        ("sweep.path_captured", s.path_captured as f64),
        ("sweep.path_replay", s.path_replay as f64),
        (
            "sweep.shared_share",
            ratio(s.path_captured + s.path_replay, s.configs),
        ),
        ("model.cycles", model.cycles as f64),
        ("model.texel_per_frag", ratio(model.texels, model.fragments)),
        ("model.cache_hit_ratio", ratio(model.hits, model.accesses)),
        (
            "model.bus_stall_share",
            ratio(model.bus_stall, model.node_cycles),
        ),
        (
            "model.starved_share",
            ratio(model.starved, model.node_cycles),
        ),
        ("model.setup_share", ratio(model.setup, model.node_cycles)),
        ("host.slowdown", slowdown),
        (
            "trace.overhead_pct",
            (ratio(traced.round_ns(), plain.round_ns()) - 1.0) * 100.0,
        ),
    ]
}

/// Prints `metrics` as `<workload> <metric> <value> <unit>` lines and
/// returns them as the result's `metrics` object.
///
/// # Panics
///
/// Panics unless `metrics` are exactly the `kind` metrics `BENCHMARK.json`
/// declares, in order.
fn report(workload: &str, kind: &str, metrics: &[(&'static str, f64)]) -> Json {
    let declared = declared(kind);
    assert!(
        metrics
            .iter()
            .map(|m| m.0)
            .eq(declared.iter().map(|d| d.0.as_str())),
        "the {kind} metrics must be exactly those BENCHMARK.json declares"
    );
    Json::obj(
        metrics
            .iter()
            .zip(declared)
            .map(|(&(metric, value), (_, unit))| {
                println!("{workload} {metric} {value} {unit}");
                (
                    metric,
                    Json::obj([("value", Json::F64(value)), ("unit", Json::str(unit))]),
                )
            }),
    )
}

/// The seed-0 output digest `baseline.json` records for `workload`.
fn baseline_digest(workload: &str) -> Option<u64> {
    let doc = Json::parse(include_str!("../baseline.json")).expect("baseline.json is valid JSON");
    let hex = doc
        .get("workloads")?
        .get(workload)?
        .get("output_digest")?
        .as_str()?;
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sortmid-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let name = workload.name();
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let mut speed = HostSpeed::new(workload.threads(threads));
    let mut rec = Recorder::new(args.trace);

    // Phase 1: set-up, repeated so setup_s is a median. The previous
    // set-up's scenes are freed first, so peak memory holds one copy.
    let mut setup_ns = Vec::new();
    let mut inputs = None;
    for _ in 0..if args.smoke { 1 } else { SETUPS } {
        drop(inputs.take());
        speed.sample();
        rec.next_trace();
        let start = Instant::now();
        inputs = Some(rec.span("setup", |rec| {
            workload::setup(workload, args.seed, args.smoke, rec)
        }));
        setup_ns.push(elapsed_ns(start));
    }
    let inputs = inputs.expect("at least one set-up");
    let setup_trace = rec.trace_id();

    // Phase 2: warm-up, one config per scene. The figures return tables,
    // not reports, so their model totals come from the warm-up reports.
    rec.next_trace();
    let warm = rec.span("warm-up", |rec| workload::warm_up(&inputs, rec));
    let mut reference = Reference::default();
    if workload == Workload::PaperFigures {
        warm.iter().for_each(|r| reference.model.add(r));
    }
    drop(warm);

    // Phases 3 and 4: the measured windows with their checks, untraced
    // first. A smoke run measures one round.
    let budget_ns = match (args.smoke, args.trace) {
        (true, _) => 0,
        (false, false) => run_seconds() * 1_000_000_000,
        (false, true) => run_seconds() * 500_000_000,
    };
    let mut sampler = workload::sampler(args.seed);
    let mut plain = measure(
        workload,
        &inputs,
        budget_ns,
        threads,
        &mut Recorder::new(false),
        &mut reference,
        &mut speed,
        Some(&mut sampler),
    );
    let peak_rss = sortmid_observe::peak_rss_bytes().unwrap_or(0);
    let window_trace = rec.trace_id();
    let mut traced = args.trace.then(|| {
        measure(
            workload,
            &inputs,
            0,
            threads,
            &mut rec,
            &mut reference,
            &mut speed,
            None,
        )
    });

    let slowdown = speed.slowdown();
    let mut checked = std::mem::take(&mut plain.checked);
    let metrics = match &mut traced {
        None => report(
            name,
            "end_to_end",
            &end_to_end(&setup_ns, &plain, reference.round_ops, peak_rss, slowdown),
        ),
        Some(traced) => {
            let layers = per_layer(
                workload,
                &inputs,
                &rec,
                setup_trace,
                window_trace,
                &plain,
                traced,
                &reference.model,
                slowdown,
            );
            checked.merge(std::mem::take(&mut traced.checked));
            let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
            let path = dir.join(format!("trace_{name}.json"));
            let written = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, rec.to_chrome_trace().render()));
            if let Err(e) = written {
                checked
                    .problems
                    .push(format!("cannot write {}: {e}", path.display()));
            }
            report(name, "per_layer", &layers)
        }
    };
    let digest_bytes = reference.digests.iter().flat_map(|d| d.to_le_bytes());
    let digest = sortmid_observe::provenance::fnv1a_64(digest_bytes);
    let expected = (args.seed == 0 && !args.smoke)
        .then(|| baseline_digest(name))
        .flatten();
    println!("{name} threads {} count", workload.threads(threads));
    println!("{name} calls {} count", reference.digests.len());
    println!("{name} calls_measured {} count", plain.calls_measured());
    println!("{name} host_slowdown {slowdown} ratio");
    println!("{name} ops {} count", checked.ops);
    println!("{name} ops_failed {} count", checked.failed);
    println!("{name} output_digest {digest:#018x} fnv1a64");
    println!(
        "{name} digest_match {}",
        expected.map_or("n/a".to_string(), |e| (e == digest).to_string())
    );
    for problem in &checked.problems {
        eprintln!("{name}: check failed: {problem}");
    }

    let correct = checked.failed == 0 && checked.problems.is_empty();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(checked.ops)),
        ("failed", Json::U64(checked.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
