//! Parallel parameter sweeps over fragment streams.
//!
//! The experiment harness evaluates dozens of machine configurations per
//! scene. Each run only *reads* its stream, so sweeps parallelise trivially
//! across host threads (the simulated machines stay deterministic — host
//! parallelism only reorders independent runs). [`run_sweeps`] schedules
//! the sweeps of several scenes as one task graph; [`run_sweep`] and its
//! variants are its one-scene case.
//!
//! Routing — which nodes a triangle overlaps, which node owns each
//! fragment — depends only on the `(distribution, processors)` axes, never
//! on cache, bus or buffer parameters. The sweep therefore groups its
//! config grid by those two axes and shares one [`RoutingPlan`] per group
//! between the configs that can reuse work:
//!
//! * a plan's set-associative configs take the **Mattson walk** iff they
//!   request at least [`STACKDIST_MIN_REQUESTS`] distinct geometries: one
//!   [`LineAccessTrace`](sortmid_cache::LineAccessTrace) per plan, one
//!   [stack-distance evaluation](sortmid_cache::stackdist) pricing every
//!   geometry, and per-config reports synthesized from the replayed miss
//!   counts ([`crate::replay`]);
//! * every other config joins its `(plan, cache model)` group: groups of
//!   two or more replay one shared cache **capture** and re-run only their
//!   engine/FIFO timing, and a lone config runs [`Machine::run`]
//!   directly.
//!
//! All three paths emit byte-identical reports — [`SweepOptions::replay`]
//! is the escape hatch that turns the Mattson walk off.

use crate::config::{CacheKind, MachineConfig};
use crate::distribution::Distribution;
use crate::machine::Machine;
use crate::plan::RoutingPlan;
use crate::replay::{
    capture_direct, line_trace, replay_request, replay_timing, walk_misses, DirectCapture,
};
use crate::report::RunReport;
use crate::sched::{run_graph, CostModel, TaskGraph};
use sortmid_cache::{evaluate_trace, GeometryRequest, TraceEvaluation, STACKDIST_MIN_REQUESTS};
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
    /// Price plans requesting [`STACKDIST_MIN_REQUESTS`] or more
    /// set-associative geometries with one Mattson walk of the plan's line
    /// trace (`true`, the default). `false` is the escape hatch sending
    /// those configs down the capture and direct paths instead — reports
    /// are byte-identical either way.
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

/// [`run_sweep_with_options`] with host profiling: the one-job case of
/// [`run_sweeps`], whose docs describe the pipeline and its spans.
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
    run_sweeps(&[(stream, configs)], options, sink)
        .pop()
        .expect("one job in, one report list out")
}

/// One unit of pipeline work on the shared scheduler pool, within one
/// job: build a plan group's routing plan, capture a `(plan, cache
/// model)` pass, evaluate a plan's trace, or run one config.
#[derive(Debug, Clone, Copy)]
enum SweepTask {
    Plan(usize),
    Capture(usize),
    Eval(usize),
    Run(usize),
}

/// One `(stream, configs)` job of [`run_sweeps`]: its plan groups, each
/// config's path and its shared-artefact slots — all decided from the
/// configs alone, before any plan is built — plus the write-once slots
/// its tasks fill.
struct Job<'a> {
    stream: &'a FragmentStream,
    configs: &'a [MachineConfig],
    /// A representative config of each plan group.
    plan_rep: Vec<usize>,
    /// Each config's plan group.
    plan_of: Vec<usize>,
    path_of: Vec<ConfigPath>,
    /// Each plan's stack-distance geometry requests (empty: no evaluation).
    requests: Vec<Vec<GeometryRequest>>,
    /// The `(plan, cache model)` each capture slot records.
    captured: Vec<(usize, CacheKind)>,
    /// Whether a plan group has a config on a shared path.
    needs_plan: Vec<bool>,
    /// The stream's footprint batch, pivoted when some plan is needed.
    batch: Option<FragBatch>,
    plans: Vec<OnceLock<RoutingPlan>>,
    captures: Vec<OnceLock<DirectCapture>>,
    evals: Vec<OnceLock<TraceEvaluation>>,
    out: Vec<OnceLock<RunReport>>,
    /// Each config's estimated run cost (for the cost-model feedback).
    run_cost: Vec<u64>,
}

impl<'a> Job<'a> {
    /// Groups `configs` into plans, picks every config's path and
    /// reserves every shared artefact's slot.
    fn analyse(stream: &'a FragmentStream, configs: &'a [MachineConfig], replay: bool) -> Self {
        // Group the grid by (distribution, processors): one routing plan
        // per group serves every cache/bus/buffer variation. Grids are
        // small, so a linear key scan beats hashing Distribution (which
        // holds an Arc axis).
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

        // Decide each config's path. Set-associative configs of one plan
        // share a geometry request grid (deduplicated by geometry,
        // classification merged by OR so a Classifying and a plain
        // SetAssoc config of the same geometry share one evaluation slot).
        let mut requests: Vec<Vec<GeometryRequest>> = vec![Vec::new(); n_plans];
        let mut path_of: Vec<ConfigPath> = vec![ConfigPath::Direct; configs.len()];
        if replay {
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
                }
            }
            // The walk pays off only on dense geometry grids; every other
            // plan's configs share captures below.
            for reqs in &mut requests {
                if reqs.len() < STACKDIST_MIN_REQUESTS {
                    reqs.clear();
                }
            }
            for (ci, path) in path_of.iter_mut().enumerate() {
                if requests[plan_of[ci]].is_empty() {
                    *path = ConfigPath::Direct;
                }
            }
        }

        // Group the remaining direct configs by (plan, cache model): which
        // texel probes hit or miss depends only on the node access
        // sequences, so one pass of the model over the plan's fragment
        // buckets serves every bus/buffer/DRAM variant in the grid — each
        // such config then replays only its engine/FIFO timing against the
        // recorded misses. This covers the cache models the Mattson
        // machinery cannot express (perfect, two-level, victim,
        // DRAM-backed) and every plan below the walk's threshold.
        let mut keys: Vec<(usize, CacheKind)> = Vec::new();
        let mut uses: Vec<usize> = Vec::new();
        let mut key_of = vec![usize::MAX; configs.len()];
        for (ci, config) in configs.iter().enumerate() {
            if matches!(path_of[ci], ConfigPath::Direct) {
                let key = (plan_of[ci], config.cache);
                key_of[ci] = keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                    keys.push(key);
                    uses.push(0);
                    keys.len() - 1
                });
                uses[key_of[ci]] += 1;
            }
        }
        // A capture costs about one direct cache pass, so it only pays off
        // when at least two configs replay it.
        let mut slot_of_key = vec![usize::MAX; keys.len()];
        let mut captured: Vec<(usize, CacheKind)> = Vec::new();
        for (k, &n) in uses.iter().enumerate() {
            if n >= 2 {
                slot_of_key[k] = captured.len();
                captured.push(keys[k]);
            }
        }
        for (ci, path) in path_of.iter_mut().enumerate() {
            if key_of[ci] != usize::MAX && slot_of_key[key_of[ci]] != usize::MAX {
                *path = ConfigPath::Captured { slot: slot_of_key[key_of[ci]] };
            }
        }

        // Only groups with a config on a shared path need their plan:
        // direct configs route on the fly inside `Machine::run`.
        let mut needs_plan = vec![false; n_plans];
        for (ci, path) in path_of.iter().enumerate() {
            if !matches!(path, ConfigPath::Direct) {
                needs_plan[plan_of[ci]] = true;
            }
        }

        // Every shared artefact gets a preassigned write-once slot. Tasks
        // fill them exactly once; the scheduler's dependency edges
        // sequence every fill before its reads, whatever worker runs what
        // — which is what keeps the reports byte-identical across
        // schedules.
        let slots = captured.len();
        Job {
            stream,
            configs,
            plan_rep,
            plan_of,
            path_of,
            requests,
            captured,
            needs_plan,
            batch: None,
            plans: (0..n_plans).map(|_| OnceLock::new()).collect(),
            captures: (0..slots).map(|_| OnceLock::new()).collect(),
            evals: (0..n_plans).map(|_| OnceLock::new()).collect(),
            out: (0..configs.len()).map(|_| OnceLock::new()).collect(),
            run_cost: vec![0; configs.len()],
        }
    }

    /// Adds this job's tasks to `graph` in pipeline order (plans,
    /// captures, evals, runs), so every dependency edge points backward —
    /// the DAG the scheduler requires holds by construction. Tasks are
    /// costed by a model scaled to this job's stream.
    fn add_tasks(
        &mut self,
        job: usize,
        graph: &mut TaskGraph,
        tasks: &mut Vec<(usize, SweepTask)>,
    ) {
        let model = CostModel::for_stream(self.stream.fragments().len() as u64);
        let mut plan_task = vec![usize::MAX; self.plans.len()];
        for (pi, &needed) in self.needs_plan.iter().enumerate() {
            if needed {
                tasks.push((job, SweepTask::Plan(pi)));
                plan_task[pi] = graph.add(model.plan_build());
            }
        }
        let mut capture_task = vec![usize::MAX; self.captured.len()];
        for (slot, &(pi, _)) in self.captured.iter().enumerate() {
            tasks.push((job, SweepTask::Capture(slot)));
            capture_task[slot] = graph.add(model.capture());
            graph.depend(capture_task[slot], plan_task[pi]);
        }
        let mut eval_task = vec![usize::MAX; self.plans.len()];
        for (pi, reqs) in self.requests.iter().enumerate() {
            if reqs.is_empty() {
                continue;
            }
            tasks.push((job, SweepTask::Eval(pi)));
            // The evaluation first pivots its plan's line trace out of the
            // batch.
            let cost = model.lane_pivot().saturating_add(model.trace_eval(reqs.len()));
            eval_task[pi] = graph.add(cost);
            graph.depend(eval_task[pi], plan_task[pi]);
        }
        for (ci, &path) in self.path_of.iter().enumerate() {
            let (cost, dep) = match path {
                ConfigPath::Direct => (model.run_direct(), None),
                ConfigPath::Captured { slot } => (model.run_captured(), Some(capture_task[slot])),
                ConfigPath::Replay { .. } => {
                    (model.run_replay(), Some(eval_task[self.plan_of[ci]]))
                }
            };
            self.run_cost[ci] = cost;
            tasks.push((job, SweepTask::Run(ci)));
            let t = graph.add(cost);
            if let Some(dep) = dep {
                graph.depend(t, dep);
            }
        }
    }

    fn batch(&self) -> &FragBatch {
        self.batch.as_ref().expect("shared-path tasks run on a pivoted batch")
    }

    fn plan(&self, pi: usize) -> &RoutingPlan {
        self.plans[pi].get().expect("a plan is built before its readers run")
    }

    /// Config `ci`'s report, down its path.
    fn run(&self, ci: usize) -> RunReport {
        let (config, plan) = (&self.configs[ci], self.plan_of[ci]);
        match self.path_of[ci] {
            ConfigPath::Direct => Machine::new(config.clone()).run(self.stream),
            ConfigPath::Captured { slot } => {
                let capture = self.captures[slot].get().expect("captured path has a capture");
                replay_timing(config, self.stream, self.plan(plan), capture.nodes())
            }
            ConfigPath::Replay { geom, classify } => {
                let eval = self.evals[plan].get().expect("replay path has an evaluation");
                let nodes = walk_misses(eval, geom, classify);
                replay_timing(config, self.stream, self.plan(plan), nodes)
            }
        }
    }
}

/// Runs several sweeps — one `(stream, configs)` job each, typically one
/// per scene — as **one** task graph on the work-stealing pool, and
/// returns each job's reports in its config order.
///
/// Each job is analysed on its own, exactly as a single sweep: its grid
/// is grouped into routing plans by `(distribution, processors)`, each
/// config's path (direct, captured or stack-distance replay) is picked,
/// and its captures and trace evaluations get their slots. Each job's
/// tasks are costed by a [`CostModel`] scaled to *its* stream, so
/// longest-first dispatch ranks work across scenes of different sizes and
/// a small scene's configs fill the tail a big scene leaves idle.
///
/// Every pipeline stage (batch pivot, plan build, path selection,
/// captures, lane pivots, stack-distance evaluation, per-config runs)
/// runs under a named [`HostSink`] span, per-config run times land in
/// `host.run_ns.{direct,captured,replay}` histograms, and every worker
/// thread reports `busy`/`wall` utilization for the `run-configs` stage.
///
/// The pipeline runs on the work-stealing pool in [`crate::sched`]: plan
/// builds, captures, trace evaluations and per-config runs of every job
/// become one dependency-ordered task batch, dispatched longest-first, so
/// the capture of plan A overlaps the evaluation of plan B and no phase
/// barrier serializes the tail. Every task writes one preassigned
/// [`OnceLock`] slot, so the reports are byte-identical to one
/// [`run_sweep`] per job, across thread counts and steal interleavings.
///
/// With [`NullHostSink`] (how [`run_sweep`] and friends call it) the
/// instrumentation monomorphizes to nothing — the sweep bench's
/// regression gate pins the unprofiled pipeline against
/// `BENCH_baseline.json`.
///
/// # Examples
///
/// ```
/// use sortmid::{run_sweeps, NullHostSink, SweepGrid, SweepOptions};
/// use sortmid_scene::{Benchmark, SceneBuilder};
///
/// let quake = SceneBuilder::benchmark(Benchmark::Quake).scale(0.1).build().rasterize();
/// let room = SceneBuilder::benchmark(Benchmark::Room3).scale(0.1).build().rasterize();
/// let grid = SweepGrid::new().processors([1, 4]).build();
/// let reports = run_sweeps(
///     &[(&quake, &grid), (&room, &grid[..1])],
///     SweepOptions::default(),
///     &NullHostSink,
/// );
/// assert_eq!(reports.iter().map(Vec::len).collect::<Vec<_>>(), [2, 1]);
/// ```
///
/// # Panics
///
/// Panics if `options.threads` is zero.
pub fn run_sweeps<S: HostSink>(
    jobs: &[(&FragmentStream, &[MachineConfig])],
    options: SweepOptions,
    sink: &S,
) -> Vec<Vec<RunReport>> {
    assert!(options.threads > 0, "need at least one host thread");
    let n_configs: usize = jobs.iter().map(|(_, configs)| configs.len()).sum();
    if n_configs == 0 {
        return jobs.iter().map(|_| Vec::new()).collect();
    }
    let _root = sink.span("run-sweep");

    // Front-end analysis: group every grid, pick each config's path and
    // reserve every shared artefact's slot — all from the configs alone,
    // before any plan is built, so the whole pipeline can be scheduled as
    // one task batch.
    let path_span = sink.span("path-select");
    let mut jobs: Vec<Job> = jobs
        .iter()
        .map(|&(stream, configs)| Job::analyse(stream, configs, options.replay))
        .collect();
    drop(path_span);
    if S::ENABLED {
        sink.count("sweep.configs", n_configs as u64);
        for job in &jobs {
            sink.count("sweep.plans", job.plans.len() as u64);
            sink.count("sweep.captures", job.captured.len() as u64);
            for path in &job.path_of {
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
    }

    // A job's footprint batch (the 8 line-id expansion plus dense
    // coordinate lanes, one pivot per stream) feeds its plan builds,
    // capture passes and replay lane pivots.
    for job in &mut jobs {
        if job.needs_plan.contains(&true) {
            let _s = sink.span("batch-pivot");
            job.batch = Some(FragBatch::from_stream(job.stream));
        }
    }

    let mut graph = TaskGraph::new();
    let mut tasks: Vec<(usize, SweepTask)> = Vec::new();
    for (j, job) in jobs.iter_mut().enumerate() {
        job.add_tasks(j, &mut graph, &mut tasks);
    }

    // Per-worker accounting for the run-configs stage, over a *shared*
    // window (first config started → last config finished), so a worker
    // that runs out of configs early reads as idle, not as a shorter wall.
    let workers = options.threads.min(n_configs);
    let t_origin = Instant::now();
    let rc_busy: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let rc_items: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let window_start = AtomicU64::new(u64::MAX);
    let window_end = AtomicU64::new(0);

    let elapsed_ns = |origin: &Instant| origin.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let exec = |t: usize, widx: usize| {
        let (j, task) = tasks[t];
        let job = &jobs[j];
        match task {
            SweepTask::Plan(pi) => {
                let _s = sink.span("plan-build");
                let rep = &job.configs[job.plan_rep[pi]];
                let built = RoutingPlan::build_from_batch(
                    job.stream,
                    job.batch(),
                    &rep.distribution,
                    rep.processors,
                );
                assert!(job.plans[pi].set(built).is_ok(), "one build per plan group");
            }
            SweepTask::Capture(slot) => {
                let _s = sink.span("capture");
                let (pi, kind) = job.captured[slot];
                let capture = capture_direct(kind, job.batch(), job.stream, job.plan(pi));
                assert!(job.captures[slot].set(capture).is_ok(), "one capture per slot");
            }
            SweepTask::Eval(pi) => {
                let _s = sink.span("trace-eval");
                let trace = {
                    let _p = sink.span("lane-pivot");
                    line_trace(job.batch(), job.stream, job.plan(pi))
                };
                let requests = &job.requests[pi];
                sink.observe("cache.eval_requests", requests.len() as u64);
                let eval = {
                    let _m = sink.span("mattson-walk");
                    evaluate_trace(&trace, requests)
                };
                assert!(job.evals[pi].set(eval).is_ok(), "one evaluation per plan");
            }
            SweepTask::Run(ci) => {
                let _s = sink.span("run-configs");
                let start = S::ENABLED.then(|| elapsed_ns(&t_origin));
                assert!(job.out[ci].set(job.run(ci)).is_ok(), "each config runs once");
                if let Some(start) = start {
                    let end = elapsed_ns(&t_origin);
                    let took = end.saturating_sub(start);
                    // One report per config, timed into a per-path
                    // histogram: the replay-speedup evidence in
                    // METRICS_sweep.json.
                    sink.observe(
                        match job.path_of[ci] {
                            ConfigPath::Direct => "host.run_ns.direct",
                            ConfigPath::Captured { .. } => "host.run_ns.captured",
                            ConfigPath::Replay { .. } => "host.run_ns.replay",
                        },
                        took,
                    );
                    window_start.fetch_min(start, Ordering::Relaxed);
                    window_end.fetch_max(end, Ordering::Relaxed);
                    rc_busy[widx].fetch_add(took, Ordering::Relaxed);
                    rc_items[widx].fetch_add(1, Ordering::Relaxed);
                    // Cost-model feedback: per-config |predicted − actual|
                    // as a percentage of predicted, kept as a log2
                    // histogram so the LPT estimates stay honest as the
                    // simulator evolves.
                    let predicted = job.run_cost[ci].max(1);
                    sink.observe("sweep.cost_err_pct", took.abs_diff(predicted) * 100 / predicted);
                }
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
    jobs.into_iter()
        .map(|job| {
            job.out
                .into_iter()
                .map(|slot| slot.into_inner().expect("every config ran"))
                .collect()
        })
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
        // grid dense in cache geometries (every size 512 B–64 KB × ways
        // 1–8, enough for the Mattson walk) gets byte-identical reports
        // from the stack-distance replay and the capture/direct paths.
        let stream = SceneBuilder::benchmark(Benchmark::Quake)
            .scale(0.1)
            .build()
            .rasterize();
        let geometries: Vec<sortmid_cache::CacheGeometry> = (9..=16)
            .flat_map(|log| {
                [1, 2, 4, 8].map(|ways| sortmid_cache::CacheGeometry::new(1 << log, ways, 64).unwrap())
            })
            .collect();
        assert_eq!(geometries.len(), STACKDIST_MIN_REQUESTS);
        let mut caches = vec![CacheKind::Perfect, CacheKind::PaperL1];
        caches.extend(geometries.iter().map(|&g| CacheKind::SetAssoc(g)));
        caches.extend(geometries[..3].iter().map(|&g| CacheKind::Classifying(g)));
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
