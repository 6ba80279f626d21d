//! Trace capture: run one machine configuration with the event sink
//! attached and export the full cycle-level timeline.
//!
//! For each named preset this bin:
//!
//! 1. runs the machine via [`Machine::run_traced`] with a
//!    [`TraceRecorder`], double-checking the report is identical to the
//!    untraced [`Machine::run`];
//! 2. writes `TRACE_<preset>.json` — a Chrome-trace-event document that
//!    loads directly in <https://ui.perfetto.dev> (one process per node,
//!    engine + texture-bus threads, FIFO-depth counter tracks, one cycle
//!    rendered as one microsecond) — plus a synthetic `host` process
//!    carrying the run's wall-time phase spans (rasterize, traced run,
//!    verify rerun), so host cost and simulated cycles sit side by side;
//! 3. prints the per-node cycle breakdown table and compact FIFO-occupancy
//!    / bus-utilization summaries to the terminal.
//!
//! Usage: `trace [--scale F] [preset ...]` with presets from
//! [`PRESETS`]; no preset runs `grid16`. Output goes to
//! `SORTMID_BENCH_DIR` (default the current directory), like the bench
//! suites.

use sortmid::{CacheKind, Distribution, Machine, MachineConfig, TraceRecorder};
use sortmid_bench::{run_provenance, write_artifact};
use sortmid_observe::{
    breakdown_table, chrome_trace, HostProfiler, HostSink, Schema, TimeSeries,
};
use sortmid_scene::{Benchmark, SceneBuilder};
use std::process::ExitCode;

/// The named trace presets: `(name, what it shows)`.
pub const PRESETS: [(&str, &str); 4] = [
    ("grid16", "16 processors, 16x16 blocks, paper L1 (the reference point)"),
    ("sli4", "16 processors, 4-line SLI (locality loss on thin stripes)"),
    ("starved", "8 processors, 1-slot FIFOs (Figure 8's head-of-line blocking)"),
    ("tiny", "4 processors, small frame (smoke preset for CI)"),
];

fn preset_config(name: &str) -> Option<MachineConfig> {
    let mut b = MachineConfig::builder();
    match name {
        "grid16" => b.processors(16).distribution(Distribution::block(16)),
        "sli4" => b.processors(16).distribution(Distribution::sli(4)),
        "starved" => b
            .processors(8)
            .distribution(Distribution::block(16))
            .triangle_buffer(1),
        "tiny" => b.processors(4).distribution(Distribution::block(16)),
        _ => return None,
    };
    Some(b.cache(CacheKind::PaperL1).build().expect("valid preset"))
}

fn usage() -> String {
    let mut s = String::from("usage: trace [--scale F] [preset ...]\npresets:\n");
    for (name, what) in PRESETS {
        s.push_str(&format!("  {name:8} {what}\n"));
    }
    s
}

fn run_preset(name: &str, scale: f64) -> Result<(), String> {
    let config = preset_config(name).ok_or_else(|| format!("unknown preset '{name}'"))?;
    // Host phases of this bin itself ride along in the trace document: a
    // root span per preset with the scene build, the traced run and the
    // verification rerun underneath.
    let prof = HostProfiler::new();
    let root = prof.span("trace-preset");
    let stream = {
        let _s = prof.span("rasterize");
        SceneBuilder::benchmark(Benchmark::Quake)
            .scale(scale)
            .build()
            .rasterize()
    };
    let machine = Machine::new(config.clone());

    let mut rec = TraceRecorder::new();
    let report = {
        let _s = prof.span("run-traced");
        machine.run_traced(&stream, &mut rec)
    };
    {
        let _s = prof.span("verify-rerun");
        assert_eq!(
            report,
            machine.run(&stream),
            "tracing must not perturb the simulation"
        );
    }
    drop(root);
    let profile = prof.finish();
    profile
        .verify()
        .expect("host profile structural invariants must hold");

    // The Perfetto document: simulated tracks plus the host phase tracks,
    // stamped with the run's provenance (grid = this one preset config).
    let provenance = run_provenance(Benchmark::Quake, std::slice::from_ref(&config));
    let doc = chrome_trace(&rec, &machine.node_labels(), Some(&profile), provenance);
    let path = write_artifact(&format!("TRACE_{name}.json"), doc.to_json().render())?;

    // Terminal summary: the cycle breakdown per node...
    let (starts, retires, discards, pushes, pops, fills) = rec.counts();
    println!(
        "\n== {name}: {} ==\n{} events ({starts} starts, {retires} retires, {discards} discards, \
         {pushes} pushes, {pops} pops, {fills} fills), {} cache hits of {} accesses",
        report.summary(),
        rec.len(),
        report.cache_totals().hits(),
        report.cache_totals().accesses(),
    );
    let rows: Vec<_> = report
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let b = n.cycle_breakdown();
            b.verify(n.finish).expect("cycle identity must hold");
            (format!("node {i}"), b, n.finish)
        })
        .collect();
    println!("{}", breakdown_table(&rows).to_ascii());

    // ...plus sampled series for the most starvation-prone node.
    let horizon = rec.horizon().max(1);
    let cadence = (horizon / 60).max(1);
    let worst = report
        .nodes()
        .iter()
        .enumerate()
        .max_by_key(|(_, n)| n.starved_cycles)
        .map_or(0, |(i, _)| i as u32);
    let occupancy = TimeSeries::occupancy(&rec.fifo_steps(worst), cadence, horizon);
    let utilization = TimeSeries::utilization(&rec.bus_spans(worst), cadence, horizon);
    println!(
        "node {worst} (most starved): fifo depth mean {:.2} / max {:.0}, bus utilization mean {:.0}%",
        occupancy.mean(),
        occupancy.max(),
        utilization.mean() * 100.0,
    );
    println!("{}", occupancy.chart(&format!("fifo depth, node {worst}"), 64, 10));
    println!("bus utilization histogram (node {worst}):");
    println!("{}", utilization.histogram(5).to_ascii());
    println!("wrote {} (open in ui.perfetto.dev)", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let mut scale = 0.12;
    let mut presets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0.0 => scale = v,
                _ => {
                    eprintln!("--scale needs a positive number\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            name => presets.push(name.to_string()),
        }
    }
    if presets.is_empty() {
        presets.push("grid16".to_string());
    }
    for name in &presets {
        if let Err(e) = run_preset(name, scale) {
            eprintln!("trace: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
