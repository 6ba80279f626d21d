//! Parallel parameter sweeps over one fragment stream.
//!
//! The experiment harness evaluates dozens of machine configurations per
//! scene. Each run only *reads* the stream, so sweeps parallelise trivially
//! across host threads (the simulated machines stay deterministic — host
//! parallelism only reorders independent runs).
//!
//! Routing — which nodes a triangle overlaps, which node owns each
//! fragment — depends only on the `(distribution, processors)` axes, never
//! on cache, bus or buffer parameters. The sweep therefore groups its
//! config grid by those two axes and shares one [`RoutingPlan`] per group
//! between the configs that can reuse work:
//!
//! * configs mounting the same cache model on the same plan replay one
//!   shared cache **capture** and re-run only their engine/FIFO timing;
//! * groups with several set-associative cache configs go through
//!   **stack-distance replay**: one
//!   [`LineAccessTrace`](sortmid_cache::LineAccessTrace) per plan, one
//!   [Mattson evaluation](sortmid_cache::stackdist) pricing every geometry
//!   in the group, and per-config reports synthesized from the replayed
//!   miss counts ([`crate::replay`]);
//! * every other config runs [`Machine::run`] directly.
//!
//! All three paths emit byte-identical reports — [`SweepOptions::replay`]
//! is the escape hatch that turns the stack-distance path off.

use crate::config::{CacheKind, MachineConfig};
use crate::distribution::Distribution;
use crate::machine::Machine;
use crate::plan::RoutingPlan;
use crate::replay::{
    capture_direct, line_trace, replay_request, run_direct_captured, run_replayed, DirectCapture,
};
use crate::report::RunReport;
use crate::sched::{run_graph, CostModel, TaskGraph};
use sortmid_cache::{evaluate_trace_auto_profiled, GeometryRequest, TraceEvaluation};
use sortmid_observe::{HostSink, NullHostSink};
use sortmid_raster::{FragBatch, FragmentStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Builds the cartesian product of machine-parameter axes — the shape of
/// every figure sweep in the paper.
///
/// Axes left unset stay at the default machine's single value.
///
/// # Examples
///
/// ```
/// use sortmid::{Distribution, SweepGrid};
///
/// let configs = SweepGrid::new()
///     .processors([4, 16, 64])
///     .distributions([Distribution::block(16), Distribution::sli(4)])
///     .build();
/// assert_eq!(configs.len(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct SweepGrid {
    processors: Vec<u32>,
    distributions: Vec<Distribution>,
    caches: Vec<CacheKind>,
    bus_ratios: Vec<Option<f64>>,
    buffers: Vec<usize>,
}

impl SweepGrid {
    /// Starts a grid with every axis at the paper's default single value.
    pub fn new() -> Self {
        SweepGrid {
            processors: vec![1],
            distributions: vec![Distribution::block(16)],
            caches: vec![CacheKind::PaperL1],
            bus_ratios: vec![Some(1.0)],
            buffers: vec![10_000],
        }
    }

    /// Sets the processor-count axis.
    pub fn processors(mut self, values: impl IntoIterator<Item = u32>) -> Self {
        self.processors = values.into_iter().collect();
        self
    }

    /// Sets the distribution axis.
    pub fn distributions(mut self, values: impl IntoIterator<Item = Distribution>) -> Self {
        self.distributions = values.into_iter().collect();
        self
    }

    /// Sets the cache axis.
    pub fn caches(mut self, values: impl IntoIterator<Item = CacheKind>) -> Self {
        self.caches = values.into_iter().collect();
        self
    }

    /// Sets the bus axis (`None` = infinite bandwidth).
    pub fn bus_ratios(mut self, values: impl IntoIterator<Item = Option<f64>>) -> Self {
        self.bus_ratios = values.into_iter().collect();
        self
    }

    /// Sets the triangle-buffer axis.
    pub fn buffers(mut self, values: impl IntoIterator<Item = usize>) -> Self {
        self.buffers = values.into_iter().collect();
        self
    }

    /// Materialises the cartesian product, in row-major axis order
    /// (processors outermost, buffers innermost).
    ///
    /// # Panics
    ///
    /// Panics if any combination is invalid (e.g. zero processors) — grid
    /// axes are expected to hold valid values.
    pub fn build(&self) -> Vec<MachineConfig> {
        let mut out = Vec::with_capacity(
            self.processors.len()
                * self.distributions.len()
                * self.caches.len()
                * self.bus_ratios.len()
                * self.buffers.len(),
        );
        for &procs in &self.processors {
            for dist in &self.distributions {
                for &cache in &self.caches {
                    for &ratio in &self.bus_ratios {
                        for &buffer in &self.buffers {
                            let mut b = MachineConfig::builder();
                            b.processors(procs)
                                .distribution(dist.clone())
                                .cache(cache)
                                .triangle_buffer(buffer);
                            match ratio {
                                Some(r) => b.bus_ratio(r),
                                None => b.infinite_bus(),
                            };
                            out.push(b.build().expect("grid axes hold valid values"));
                        }
                    }
                }
            }
        }
        out
    }
}

impl Default for SweepGrid {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs every configuration against `stream`, in parallel across host
/// threads, preserving input order in the output.
///
/// Configs sharing a `(distribution, processors)` pair and a cache capture
/// or stack-distance evaluation share one precomputed [`RoutingPlan`]
/// (built once, read-only afterwards).
///
/// # Determinism
///
/// The reports are **byte-identical** to running [`Machine::run`] on each
/// config sequentially, whatever the host-thread count: plans precompute
/// *where* fragments go, not *how long* they take, and host parallelism
/// only reorders independent runs. Tests pin this with
/// [`run_sweep_with_threads`].
///
/// # Examples
///
/// ```
/// use sortmid::{run_sweep, Distribution, MachineConfig};
/// use sortmid_scene::{Benchmark, SceneBuilder};
///
/// let stream = SceneBuilder::benchmark(Benchmark::Quake).scale(0.1).build().rasterize();
/// let configs: Vec<_> = [4u32, 16]
///     .iter()
///     .map(|&p| {
///         MachineConfig::builder()
///             .processors(p)
///             .distribution(Distribution::block(16))
///             .build()
///             .unwrap()
///     })
///     .collect();
/// let reports = run_sweep(&stream, &configs);
/// assert_eq!(reports.len(), 2);
/// ```
pub fn run_sweep(stream: &FragmentStream, configs: &[MachineConfig]) -> Vec<RunReport> {
    run_sweep_with_options(stream, configs, SweepOptions::default())
}

/// A stable fingerprint of a config grid: FNV-1a 64 over every config's
/// [`summary`](MachineConfig::summary) string, newline-separated. The
/// bench bins stamp it into each artefact's provenance block so the
/// differ can refuse to compare runs of different grids; the summary
/// string already encodes everything that changes simulated cycles
/// (processors, distribution, cache geometry, buffer depth, bus ratio),
/// so two grids hash equal exactly when they measure the same thing.
/// Order matters: the grid is part of the artefact's config ordering.
pub fn grid_hash(configs: &[MachineConfig]) -> u64 {
    sortmid_observe::provenance::fnv1a_64(
        configs
            .iter()
            .flat_map(|c| c.summary().into_bytes().into_iter().chain([b'\n'])),
    )
}

/// [`run_sweep`] with an explicit host-thread count.
///
/// Exists so tests can pin the schedule: the simulated machines are
/// deterministic, so the reports must be byte-identical whatever `threads`
/// is — host parallelism only reorders independent runs.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn run_sweep_with_threads(
    stream: &FragmentStream,
    configs: &[MachineConfig],
    threads: usize,
) -> Vec<RunReport> {
    run_sweep_with_options(
        stream,
        configs,
        SweepOptions {
            threads,
            ..SweepOptions::default()
        },
    )
}

/// Knobs of [`run_sweep_with_options`].
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Host threads to spread the pipeline's tasks over.
    pub threads: usize,
    /// Evaluate groups of cache-only-varying configs from one
    /// stack-distance replay of the shared plan's line trace (`true`, the
    /// default). `false` is the escape hatch sending those configs down the
    /// capture and direct paths instead — reports are byte-identical
    /// either way.
    pub replay: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            replay: true,
        }
    }
}

/// A plan group's replay-eligible configs, down two pipelines: capturing a
/// trace pays off once at least this many configs replay from it.
///
/// Measured on the sweep bench: synthesizing a report from a replayed
/// trace costs ~1/4 of a direct simulation, but the capture plus a
/// one-geometry evaluation costs ~3 synthesized configs — so groups of
/// two or three replay-eligible configs are cheaper simulated directly.
const REPLAY_MIN_GROUP: usize = 4;

/// How one sweep config gets its report: a direct [`Machine::run`], engine
/// replay of a shared `(plan, cache model)` capture, or synthesis from the
/// plan's stack-distance evaluation (geometry index + whether the report
/// carries the three-C breakdown).
#[derive(Debug, Clone, Copy)]
enum ConfigPath {
    Direct,
    Captured { slot: usize },
    Replay { geom: usize, classify: bool },
}

/// [`run_sweep`] with every knob explicit.
///
/// # Panics
///
/// Panics if `options.threads` is zero.
pub fn run_sweep_with_options(
    stream: &FragmentStream,
    configs: &[MachineConfig],
    options: SweepOptions,
) -> Vec<RunReport> {
    run_sweep_profiled(stream, configs, options, &NullHostSink)
}

/// One unit of pipeline work on the shared scheduler pool: build a plan
/// group's routing plan, capture a `(plan, cache model)` pass, evaluate a
/// plan's trace, or run one config.
#[derive(Debug, Clone, Copy)]
enum SweepTask {
    Plan(usize),
    Capture { key: usize, slot: usize },
    Eval(usize),
    Run(usize),
}

/// [`run_sweep_with_options`] with host profiling: every pipeline stage
/// (batch pivot, plan build, path selection, captures, lane pivots,
/// stack-distance evaluation, per-config runs) runs under a named
/// [`HostSink`] span, per-config run times land in
/// `host.run_ns.{direct,captured,replay}` histograms, and every worker
/// thread reports `busy`/`wall` utilization for the `run-configs` stage.
///
/// The pipeline runs on the work-stealing pool in [`crate::sched`]: plan
/// builds, captures, trace evaluations and per-config runs become one
/// dependency-ordered task batch, costed by [`CostModel`] and dispatched
/// longest-first, so the capture of plan A overlaps the evaluation of plan
/// B and no phase barrier serializes the tail. Every task writes one
/// preassigned [`OnceLock`] slot, so the reports are byte-identical across
/// thread counts and steal interleavings.
///
/// With [`NullHostSink`] (how [`run_sweep`] and friends call it) the
/// instrumentation monomorphizes to nothing — the sweep bench's
/// regression gate pins the unprofiled pipeline against
/// `BENCH_baseline.json`.
///
/// # Panics
///
/// Panics if `options.threads` is zero.
pub fn run_sweep_profiled<S: HostSink>(
    stream: &FragmentStream,
    configs: &[MachineConfig],
    options: SweepOptions,
    sink: &S,
) -> Vec<RunReport> {
    assert!(options.threads > 0, "need at least one host thread");
    if configs.is_empty() {
        return Vec::new();
    }
    let _root = sink.span("run-sweep");
    if S::ENABLED {
        sink.count("sweep.configs", configs.len() as u64);
    }

    // Front-end analysis: group the grid, pick each config's path and
    // reserve every shared artefact's slot — all from the configs alone,
    // before any plan is built, so the whole pipeline can be scheduled as
    // one task batch.
    let path_span = sink.span("path-select");

    // Group the grid by (distribution, processors): one routing plan per
    // group serves every cache/bus/buffer variation. Grids are small, so a
    // linear key scan beats hashing Distribution (which holds an Arc axis).
    let mut plan_rep: Vec<usize> = Vec::new();
    let mut plan_of: Vec<usize> = Vec::with_capacity(configs.len());
    for (ci, config) in configs.iter().enumerate() {
        let idx = plan_rep
            .iter()
            .position(|&rep| {
                configs[rep].processors == config.processors
                    && configs[rep].distribution == config.distribution
            })
            .unwrap_or_else(|| {
                plan_rep.push(ci);
                plan_rep.len() - 1
            });
        plan_of.push(idx);
    }
    let n_plans = plan_rep.len();
    if S::ENABLED {
        sink.count("sweep.plans", n_plans as u64);
    }

    // Decide each config's path. Replay-eligible configs of one plan share
    // a geometry request grid (deduplicated by geometry, classification
    // merged by OR so a Classifying and a plain SetAssoc config of the
    // same geometry share one evaluation slot).
    let mut requests: Vec<Vec<GeometryRequest>> = vec![Vec::new(); n_plans];
    let mut path_of: Vec<ConfigPath> = vec![ConfigPath::Direct; configs.len()];
    if options.replay {
        let mut eligible = vec![0usize; n_plans];
        for (ci, config) in configs.iter().enumerate() {
            if let Some((geometry, classify)) = replay_request(config) {
                let reqs = &mut requests[plan_of[ci]];
                let geom = match reqs.iter().position(|r| r.geometry == geometry) {
                    Some(gi) => {
                        reqs[gi].classify |= classify;
                        gi
                    }
                    None => {
                        reqs.push(GeometryRequest { geometry, classify });
                        reqs.len() - 1
                    }
                };
                path_of[ci] = ConfigPath::Replay { geom, classify };
                eligible[plan_of[ci]] += 1;
            }
        }
        // Too-small groups fall back: capturing and replaying a trace only
        // pays off when it serves several configs.
        for (pi, count) in eligible.iter().enumerate() {
            if *count < REPLAY_MIN_GROUP {
                requests[pi].clear();
            }
        }
        for (ci, path) in path_of.iter_mut().enumerate() {
            if requests[plan_of[ci]].is_empty() {
                *path = ConfigPath::Direct;
            }
        }
    }

    // Group the remaining direct configs by (plan, cache model): which
    // texel probes hit or miss depends only on the node access sequences,
    // so one pass of the model over the plan's fragment buckets serves
    // every bus/buffer/DRAM variant in the grid — each such config then
    // replays only its engine/FIFO timing against the recorded misses.
    // This covers the cache models the Mattson machinery cannot express
    // (perfect, two-level, victim, DRAM-backed) and the groups too small
    // for a stack-distance evaluation to pay off.
    let mut capture_keys: Vec<(usize, CacheKind)> = Vec::new();
    let mut capture_uses: Vec<usize> = Vec::new();
    for (ci, config) in configs.iter().enumerate() {
        if matches!(path_of[ci], ConfigPath::Direct) {
            let key = (plan_of[ci], config.cache);
            match capture_keys.iter().position(|k| *k == key) {
                Some(k) => capture_uses[k] += 1,
                None => {
                    capture_keys.push(key);
                    capture_uses.push(1);
                }
            }
        }
    }
    // A capture costs about one direct cache pass, so it only pays off
    // when at least two configs replay it.
    let mut capture_slot = vec![usize::MAX; capture_keys.len()];
    let mut slots = 0usize;
    for (k, &uses) in capture_uses.iter().enumerate() {
        if uses >= 2 {
            capture_slot[k] = slots;
            slots += 1;
        }
    }
    if slots > 0 {
        for (ci, config) in configs.iter().enumerate() {
            if matches!(path_of[ci], ConfigPath::Direct) {
                let key = (plan_of[ci], config.cache);
                let k = capture_keys
                    .iter()
                    .position(|kk| *kk == key)
                    .expect("key was registered in the first pass");
                if capture_slot[k] != usize::MAX {
                    path_of[ci] = ConfigPath::Captured { slot: capture_slot[k] };
                }
            }
        }
    }

    // Only groups with a config on a shared path need their plan: direct
    // configs route on the fly inside `Machine::run`.
    let mut needs_plan = vec![false; n_plans];
    for (ci, path) in path_of.iter().enumerate() {
        if !matches!(path, ConfigPath::Direct) {
            needs_plan[plan_of[ci]] = true;
        }
    }
    drop(path_span);
    if S::ENABLED {
        sink.count("sweep.captures", slots as u64);
        for path in &path_of {
            sink.count(
                match path {
                    ConfigPath::Direct => "sweep.path.direct",
                    ConfigPath::Captured { .. } => "sweep.path.captured",
                    ConfigPath::Replay { .. } => "sweep.path.replay",
                },
                1,
            );
        }
    }

    // The stream's footprint batch (the 8 line-id expansion plus dense
    // coordinate lanes, one pivot per sweep) feeds the plan builds, the
    // capture passes and the replay lane pivots.
    let frag_batch = needs_plan.contains(&true).then(|| {
        let _s = sink.span("batch-pivot");
        FragBatch::from_stream(stream)
    });
    let batch = || frag_batch.as_ref().expect("shared-path tasks run on a pivoted batch");

    // Every shared artefact gets a preassigned write-once slot. Tasks fill
    // them exactly once; the scheduler's dependency edges sequence every
    // fill before its reads, whatever worker runs what — which is what
    // keeps the reports byte-identical across schedules.
    let plans: Vec<OnceLock<RoutingPlan>> = (0..n_plans).map(|_| OnceLock::new()).collect();
    let captures: Vec<OnceLock<DirectCapture>> = (0..slots).map(|_| OnceLock::new()).collect();
    let evals: Vec<OnceLock<TraceEvaluation>> = (0..n_plans).map(|_| OnceLock::new()).collect();
    let out: Vec<OnceLock<RunReport>> = (0..configs.len()).map(|_| OnceLock::new()).collect();
    let plan = |pi: usize| plans[pi].get().expect("a plan is built before its readers run");

    // Tasks enter in pipeline order (plans, captures, evals, runs) so every
    // dependency edge points backward — the DAG the scheduler requires
    // holds by construction.
    let model = CostModel::for_stream(stream.fragments().len() as u64);
    let mut graph = TaskGraph::with_capacity(2 * n_plans + slots + configs.len());
    let mut kinds: Vec<SweepTask> = Vec::with_capacity(2 * n_plans + slots + configs.len());
    let mut plan_task = vec![usize::MAX; n_plans];
    for (pi, &needed) in needs_plan.iter().enumerate() {
        if needed {
            kinds.push(SweepTask::Plan(pi));
            plan_task[pi] = graph.add(model.plan_build());
        }
    }
    let mut capture_task = vec![usize::MAX; slots];
    for (key, &(pi, _)) in capture_keys.iter().enumerate() {
        let slot = capture_slot[key];
        if slot == usize::MAX {
            continue;
        }
        kinds.push(SweepTask::Capture { key, slot });
        let t = graph.add(model.capture());
        graph.depend(t, plan_task[pi]);
        capture_task[slot] = t;
    }
    let mut eval_task = vec![usize::MAX; n_plans];
    for (pi, reqs) in requests.iter().enumerate() {
        if reqs.is_empty() {
            continue;
        }
        kinds.push(SweepTask::Eval(pi));
        // The evaluation first pivots its plan's line trace out of the
        // batch.
        let t = graph.add(model.lane_pivot().saturating_add(model.trace_eval(reqs.len())));
        graph.depend(t, plan_task[pi]);
        eval_task[pi] = t;
    }
    let mut run_cost = vec![0u64; configs.len()];
    for (ci, &path) in path_of.iter().enumerate() {
        let (cost, dep) = match path {
            ConfigPath::Direct => (model.run_direct(), None),
            ConfigPath::Captured { slot } => (model.run_captured(), Some(capture_task[slot])),
            ConfigPath::Replay { .. } => (model.run_replay(), Some(eval_task[plan_of[ci]])),
        };
        run_cost[ci] = cost;
        kinds.push(SweepTask::Run(ci));
        let t = graph.add(cost);
        if let Some(dep) = dep {
            graph.depend(t, dep);
        }
    }

    // One report per config. The profiled run times each config into a
    // per-path histogram: the replay-speedup evidence in
    // METRICS_sweep.json.
    let run_one = |ci: usize| {
        let config = &configs[ci];
        let t0 = S::ENABLED.then(Instant::now);
        let report = match path_of[ci] {
            ConfigPath::Direct => Machine::new(config.clone()).run(stream),
            ConfigPath::Captured { slot } => {
                let capture = captures[slot].get().expect("captured path has a capture");
                run_direct_captured(config, stream, plan(plan_of[ci]), capture)
            }
            ConfigPath::Replay { geom, classify } => {
                let eval = evals[plan_of[ci]].get().expect("replay path has an evaluation");
                run_replayed(config, stream, plan(plan_of[ci]), eval, geom, classify)
            }
        };
        if let Some(t0) = t0 {
            let metric = match path_of[ci] {
                ConfigPath::Direct => "host.run_ns.direct",
                ConfigPath::Captured { .. } => "host.run_ns.captured",
                ConfigPath::Replay { .. } => "host.run_ns.replay",
            };
            sink.observe(metric, t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        report
    };

    // Per-worker accounting for the run-configs stage, over a *shared*
    // window (first config started → last config finished), so a worker
    // that runs out of configs early reads as idle, not as a shorter wall.
    let workers = options.threads.min(configs.len());
    let t_origin = Instant::now();
    let rc_busy: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let rc_items: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let window_start = AtomicU64::new(u64::MAX);
    let window_end = AtomicU64::new(0);

    let elapsed_ns = |origin: &Instant| origin.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let exec = |t: usize, widx: usize| match kinds[t] {
        SweepTask::Plan(pi) => {
            let _s = sink.span("plan-build");
            let rep = &configs[plan_rep[pi]];
            let built =
                RoutingPlan::build_from_batch(stream, batch(), &rep.distribution, rep.processors);
            assert!(plans[pi].set(built).is_ok(), "one build per plan group");
        }
        SweepTask::Capture { key, slot } => {
            let _s = sink.span("capture");
            let (pi, kind) = capture_keys[key];
            assert!(
                captures[slot].set(capture_direct(kind, batch(), stream, plan(pi))).is_ok(),
                "one capture per slot"
            );
        }
        SweepTask::Eval(pi) => {
            let _s = sink.span("trace-eval");
            let trace = {
                let _p = sink.span("lane-pivot");
                line_trace(batch(), stream, plan(pi))
            };
            assert!(
                evals[pi]
                    .set(evaluate_trace_auto_profiled(&trace, &requests[pi], sink))
                    .is_ok(),
                "one evaluation per plan"
            );
        }
        SweepTask::Run(ci) => {
            let _s = sink.span("run-configs");
            let start = S::ENABLED.then(|| elapsed_ns(&t_origin));
            assert!(out[ci].set(run_one(ci)).is_ok(), "each config runs once");
            if let Some(start) = start {
                let end = elapsed_ns(&t_origin);
                window_start.fetch_min(start, Ordering::Relaxed);
                window_end.fetch_max(end, Ordering::Relaxed);
                rc_busy[widx].fetch_add(end.saturating_sub(start), Ordering::Relaxed);
                rc_items[widx].fetch_add(1, Ordering::Relaxed);
                // Cost-model feedback: per-config |predicted − actual| as a
                // percentage of predicted, kept as a log2 histogram so the
                // LPT estimates stay honest as the simulator evolves.
                let predicted = run_cost[ci].max(1);
                let err_pct = end.saturating_sub(start).abs_diff(predicted) * 100 / predicted;
                sink.observe("sweep.cost_err_pct", err_pct);
            }
        }
    };
    run_graph(graph, workers, sink, &exec);

    if S::ENABLED {
        let start = window_start.load(Ordering::Relaxed);
        let end = window_end.load(Ordering::Relaxed);
        let wall = if start == u64::MAX { 0 } else { end.saturating_sub(start) };
        for w in 0..workers {
            sink.worker(
                "run-configs",
                w as u32,
                wall,
                rc_busy[w].load(Ordering::Relaxed),
                rc_items[w].load(Ordering::Relaxed),
            );
        }
    }
    out.into_iter()
        .map(|slot| slot.into_inner().expect("every config ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheKind;
    use crate::distribution::Distribution;
    use sortmid_scene::{Benchmark, SceneBuilder};

    #[test]
    fn sweep_matches_sequential_runs() {
        let stream = SceneBuilder::benchmark(Benchmark::Quake)
            .scale(0.1)
            .build()
            .rasterize();
        let configs: Vec<MachineConfig> = [1u32, 2, 4, 8]
            .iter()
            .map(|&p| {
                MachineConfig::builder()
                    .processors(p)
                    .distribution(Distribution::block(16))
                    .cache(CacheKind::PaperL1)
                    .build()
                    .unwrap()
            })
            .collect();
        let parallel = run_sweep(&stream, &configs);
        for (config, report) in configs.iter().zip(&parallel) {
            let sequential = Machine::new(config.clone()).run(&stream);
            assert_eq!(report.total_cycles(), sequential.total_cycles());
            assert_eq!(report.texel_to_fragment(), sequential.texel_to_fragment());
        }
    }

    #[test]
    fn grouped_plans_match_direct_runs_on_a_mixed_grid() {
        // A grid varying every axis: plan grouping must not change a
        // single report relative to a direct run.
        let stream = SceneBuilder::benchmark(Benchmark::Quake)
            .scale(0.1)
            .build()
            .rasterize();
        let configs = SweepGrid::new()
            .processors([3, 8])
            .distributions([Distribution::block(8), Distribution::sli(4)])
            .caches([CacheKind::Perfect, CacheKind::PaperL1])
            .buffers([4, 10_000])
            .build();
        assert_eq!(configs.len(), 16);
        let swept = run_sweep_with_threads(&stream, &configs, 3);
        for (config, report) in configs.iter().zip(&swept) {
            let direct = Machine::new(config.clone()).run(&stream);
            assert_eq!(report, &direct, "{}", config.summary());
        }
    }

    #[test]
    fn replay_and_direct_paths_emit_identical_reports() {
        // The --no-replay escape hatch must be an observational no-op: a
        // grid dense in cache geometries gets byte-identical reports from
        // the stack-distance replay and the direct simulator.
        let stream = SceneBuilder::benchmark(Benchmark::Quake)
            .scale(0.1)
            .build()
            .rasterize();
        let geometries = [
            sortmid_cache::CacheGeometry::new(4096, 2, 64).unwrap(),
            sortmid_cache::CacheGeometry::new(16384, 4, 64).unwrap(),
            sortmid_cache::CacheGeometry::new(65536, 8, 64).unwrap(),
        ];
        let mut caches = vec![CacheKind::Perfect, CacheKind::PaperL1];
        caches.extend(geometries.iter().map(|&g| CacheKind::SetAssoc(g)));
        caches.extend(geometries.iter().map(|&g| CacheKind::Classifying(g)));
        let configs = SweepGrid::new()
            .processors([4])
            .distributions([Distribution::block(16), Distribution::sli(2)])
            .caches(caches)
            .buffers([8, 10_000])
            .build();
        let replayed = run_sweep_with_options(
            &stream,
            &configs,
            SweepOptions { threads: 3, replay: true },
        );
        let direct = run_sweep_with_options(
            &stream,
            &configs,
            SweepOptions { threads: 3, replay: false },
        );
        assert_eq!(replayed, direct);
    }

    #[test]
    fn captured_path_matches_direct_runs_for_unreplayable_kinds() {
        // The (plan, cache-model) capture path serves exactly the kinds the
        // stack-distance machinery cannot express: perfect, two-level,
        // victim, and DRAM-backed machines. Pairs of configs differing only
        // in buffer depth share one capture; every synthesized report must
        // equal the direct engine's.
        let stream = SceneBuilder::benchmark(Benchmark::Quake)
            .scale(0.1)
            .build()
            .rasterize();
        let g = sortmid_cache::CacheGeometry::paper_l1();
        let l2 = sortmid_cache::CacheGeometry::new(65536, 8, 64).unwrap();
        let mut configs = SweepGrid::new()
            .processors([4])
            .distributions([Distribution::block(16)])
            .caches([CacheKind::TwoLevel(g, l2), CacheKind::Victim(g, 8)])
            .buffers([8, 10_000])
            .build();
        for buffer in [8usize, 10_000] {
            let mut b = MachineConfig::builder();
            b.processors(4)
                .distribution(Distribution::block(16))
                .triangle_buffer(buffer)
                .dram(Some(sortmid_memsys::DramConfig::sdram_like(
                    sortmid_memsys::BusConfig::ratio(1.0),
                )));
            configs.push(b.build().unwrap());
        }
        let swept = run_sweep_with_threads(&stream, &configs, 2);
        for (config, report) in configs.iter().zip(&swept) {
            let direct = Machine::new(config.clone()).run(&stream);
            assert_eq!(report, &direct, "{}", config.summary());
        }
    }

    #[test]
    fn grid_is_the_cartesian_product() {
        let configs = SweepGrid::new()
            .processors([4, 16])
            .distributions([Distribution::block(8), Distribution::block(16), Distribution::sli(2)])
            .buffers([100, 10_000])
            .build();
        assert_eq!(configs.len(), 12);
        // Row-major: processors outermost.
        assert_eq!(configs[0].processors, 4);
        assert_eq!(configs[11].processors, 16);
        assert_eq!(configs[0].triangle_buffer, 100);
        assert_eq!(configs[1].triangle_buffer, 10_000);
    }

    #[test]
    fn grid_defaults_are_the_paper_machine() {
        let configs = SweepGrid::default().build();
        assert_eq!(configs.len(), 1);
        assert_eq!(configs[0].processors, 1);
        assert_eq!(configs[0].bus.line_cost(), 16);
    }

    #[test]
    fn grid_infinite_bus_axis() {
        let configs = SweepGrid::new().bus_ratios([Some(2.0), None]).build();
        assert_eq!(configs.len(), 2);
        assert_eq!(configs[0].bus.line_cost(), 8);
        assert!(configs[1].bus.is_infinite());
    }

    #[test]
    fn empty_sweep_is_empty() {
        let stream = SceneBuilder::benchmark(Benchmark::Quake)
            .scale(0.1)
            .build()
            .rasterize();
        assert!(run_sweep(&stream, &[]).is_empty());
    }

    #[test]
    fn single_config_sweep() {
        let stream = SceneBuilder::benchmark(Benchmark::Quake)
            .scale(0.1)
            .build()
            .rasterize();
        let configs = vec![MachineConfig::uniprocessor()];
        assert_eq!(run_sweep(&stream, &configs).len(), 1);
    }

    #[test]
    fn grid_hash_pins_content_and_order() {
        let grid = SweepGrid::new().processors([4, 16]).build();
        assert_eq!(grid_hash(&grid), grid_hash(&grid), "deterministic");
        let smaller = SweepGrid::new().processors([4]).build();
        assert_ne!(grid_hash(&grid), grid_hash(&smaller), "content-sensitive");
        let mut reversed = grid.clone();
        reversed.reverse();
        assert_ne!(grid_hash(&grid), grid_hash(&reversed), "order-sensitive");
        assert_ne!(grid_hash(&[]), 0, "empty grid hashes to the FNV offset");
    }
}
