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
//! config grid by those two axes, and each plan group's configs share work
//! one of two ways:
//!
//! * a plan's set-associative configs take the **Mattson walk** iff they
//!   request at least [`STACKDIST_MIN_REQUESTS`] distinct geometries: one
//!   whole-frame [`RoutingPlan`] and
//!   [`LineAccessTrace`](sortmid_cache::LineAccessTrace) per plan, one
//!   [stack-distance evaluation](sortmid_cache::stackdist) pricing every
//!   geometry, and per-config reports synthesized from the replayed miss
//!   counts ([`crate::replay`]);
//! * every other config of the plan group joins its **frame group**, which
//!   runs [`Machine::run`]'s own windowed frame loop for all its configs at
//!   once: each window is routed once, each distinct cache model's node
//!   caches probe it once, and each distinct timing advances one walk.
//!
//! Both paths emit reports byte-identical to [`Machine::run`], which is
//! the frame loop's one-config case.
//!
//! [`Machine::run`]: crate::Machine::run

use crate::config::{CacheKind, MachineConfig};
use crate::distribution::Distribution;
use crate::machine::{walk_owners, FrameGroup};
use crate::plan::RoutingPlan;
use crate::replay::{capture_line_trace, replay_request, replay_timing, walk_misses, Timing};
use crate::report::{CacheCounters, RunReport};
use crate::sched::{run_graph, CostModel, TaskGraph};
use sortmid_cache::{evaluate_trace, GeometryRequest, TraceEvaluation, STACKDIST_MIN_REQUESTS};
use sortmid_observe::{HostSink, NullHostSink, NullSink};
use sortmid_raster::FragmentStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
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
/// Configs sharing a `(distribution, processors)` pair share their
/// routing: one frame group routes each window once for all of them, and
/// a Mattson-walk plan is built once and read by every config it prices.
///
/// # Determinism
///
/// The reports are **byte-identical** to running
/// [`Machine::run`](crate::Machine::run) on each config sequentially,
/// whatever the host-thread count: plans precompute *where* fragments go,
/// not *how long* they take, and host parallelism only reorders
/// independent runs. Tests pin this with
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
    run_sweep_profiled(stream, configs, SweepOptions::default(), &NullHostSink)
}

/// A stable fingerprint of a config grid: FNV-1a 64 over one line per
/// config, newline-separated. A line is the config's
/// [`summary`](MachineConfig::summary) (processors, distribution, cache
/// geometry, buffer depth) followed by every field the summary omits
/// (bus, prefetch window, DRAM model, setup floor, geometry-bus rate), so
/// two grids hash equal exactly when they measure the same thing. The
/// bench bins stamp it into each artefact's provenance block so the
/// differ can refuse to compare runs of different grids. Order matters:
/// the grid is part of the artefact's config ordering.
pub fn grid_hash(configs: &[MachineConfig]) -> u64 {
    sortmid_observe::provenance::fnv1a_64(configs.iter().flat_map(|c| {
        format!(
            "{} bus={:?} window={:?} dram={:?} setup={} geometry={}\n",
            c.summary(),
            c.bus,
            c.prefetch_window,
            c.dram,
            c.setup_cycles,
            c.geometry_cycles_per_triangle
        )
        .into_bytes()
    }))
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
    run_sweep_profiled(stream, configs, SweepOptions { threads }, &NullHostSink)
}

/// Knobs of [`run_sweep_profiled`] and [`run_sweeps`].
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Host threads to spread the pipeline's tasks over.
    pub threads: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }
}

/// How one sweep config gets its report: from its frame group's run, or
/// synthesized from its plan's stack-distance evaluation (geometry index +
/// whether the report carries the three-C breakdown).
#[derive(Debug, Clone, Copy)]
enum ConfigPath {
    Frame { group: usize },
    Replay { geom: usize, classify: bool },
}

/// [`run_sweep`] with host profiling: the one-job case of [`run_sweeps`],
/// whose docs describe the pipeline and its spans.
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
/// job: build a Mattson-walk plan, evaluate its trace, run a frame group,
/// or make one config's report.
#[derive(Debug, Clone, Copy)]
enum SweepTask {
    Plan(usize),
    Eval(usize),
    Frame(usize),
    Run(usize),
}

/// A frame-group config's timing and per-node cache counters.
type FrameOutcome = (Timing, Vec<CacheCounters>);

/// One `(stream, configs)` job of [`run_sweeps`]: its plan groups, each
/// config's path and its frame groups — all decided from the configs
/// alone, before any plan is built — plus the write-once slots its tasks
/// fill.
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
    /// Each frame group's configs, in config order.
    groups: Vec<Vec<usize>>,
    plans: Vec<OnceLock<RoutingPlan>>,
    evals: Vec<OnceLock<TraceEvaluation>>,
    /// Each frame-group config's outcome, from its group's run until its
    /// report takes it: a deep FIFO's timing holds thousands of start
    /// times per node, so none outlives its report.
    outcomes: Vec<Mutex<Option<FrameOutcome>>>,
    out: Vec<OnceLock<RunReport>>,
}

impl<'a> Job<'a> {
    /// Groups `configs` into plans, picks every config's path and gathers
    /// the frame groups.
    fn analyse(stream: &'a FragmentStream, configs: &'a [MachineConfig]) -> Self {
        // Group the grid by (distribution, processors): one routing serves
        // every cache/bus/buffer variation. Grids are small, so a linear
        // key scan beats hashing Distribution (which holds an Arc axis).
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

        // Set-associative configs of one plan share a geometry request grid
        // (deduplicated by geometry, classification merged by OR so a
        // Classifying and a plain SetAssoc config of the same geometry
        // share one evaluation slot).
        let mut requests: Vec<Vec<GeometryRequest>> = vec![Vec::new(); n_plans];
        let replay: Vec<Option<ConfigPath>> = configs
            .iter()
            .zip(&plan_of)
            .map(|(config, &plan)| {
                let (geometry, classify) = replay_request(config)?;
                let reqs = &mut requests[plan];
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
                Some(ConfigPath::Replay { geom, classify })
            })
            .collect();
        // The walk pays off only on dense geometry grids.
        for reqs in &mut requests {
            if reqs.len() < STACKDIST_MIN_REQUESTS {
                reqs.clear();
            }
        }

        // Every other config joins its plan group's frame group: which
        // texel probes hit or miss depends only on the node access
        // sequences, so one cache pass per distinct model serves every
        // bus/buffer/DRAM variant in the group.
        let mut group_of_plan: Vec<Option<usize>> = vec![None; n_plans];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let path_of = replay
            .into_iter()
            .enumerate()
            .map(|(ci, replay)| match replay {
                Some(path) if !requests[plan_of[ci]].is_empty() => path,
                _ => {
                    let group = *group_of_plan[plan_of[ci]].get_or_insert_with(|| {
                        groups.push(Vec::new());
                        groups.len() - 1
                    });
                    groups[group].push(ci);
                    ConfigPath::Frame { group }
                }
            })
            .collect();

        // Every shared artefact gets a preassigned write-once slot. Tasks
        // fill them exactly once; the scheduler's dependency edges
        // sequence every fill before its reads, whatever worker runs what
        // — which is what keeps the reports byte-identical across
        // schedules.
        Job {
            stream,
            configs,
            plan_rep,
            plan_of,
            path_of,
            requests,
            groups,
            plans: (0..n_plans).map(|_| OnceLock::new()).collect(),
            evals: (0..n_plans).map(|_| OnceLock::new()).collect(),
            outcomes: (0..configs.len()).map(|_| Mutex::new(None)).collect(),
            out: (0..configs.len()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Adds this job's tasks to `graph` in pipeline order (plans, evals,
    /// frame groups, reports), so every dependency edge points backward —
    /// the DAG the scheduler requires holds by construction. Each task is
    /// listed with its cost, from a model scaled to this job's stream.
    fn add_tasks(
        &self,
        job: usize,
        graph: &mut TaskGraph,
        tasks: &mut Vec<(usize, SweepTask, u64)>,
    ) {
        let model = CostModel::for_stream(self.stream.fragments().len() as u64);
        let mut add = |task, cost, dep: Option<usize>| {
            tasks.push((job, task, cost));
            let t = graph.add(cost);
            if let Some(dep) = dep {
                graph.depend(t, dep);
            }
            t
        };
        let mut eval_task = vec![usize::MAX; self.plans.len()];
        for (pi, reqs) in self.requests.iter().enumerate() {
            if !reqs.is_empty() {
                let plan = add(SweepTask::Plan(pi), model.plan_build(), None);
                // The evaluation first pivots its plan's line trace.
                let cost = model.lane_pivot().saturating_add(model.trace_eval(reqs.len()));
                eval_task[pi] = add(SweepTask::Eval(pi), cost, Some(plan));
            }
        }
        let mut frame_task = Vec::with_capacity(self.groups.len());
        for g in 0..self.groups.len() {
            // A perfect model's cache pass only counts hits, and a shared
            // timing walk runs once.
            let probing = self.models(g).iter().filter(|(m, _)| *m != CacheKind::Perfect).count();
            let cost = model.plan_build()
                + probing as u64 * model.capture()
                + self.walks(g) as u64 * model.run_captured();
            frame_task.push(add(SweepTask::Frame(g), cost, None));
        }
        for (ci, &path) in self.path_of.iter().enumerate() {
            match path {
                // Reading a report out of its group's timing costs next to
                // nothing.
                ConfigPath::Frame { group } => {
                    add(SweepTask::Run(ci), 1, Some(frame_task[group]))
                }
                ConfigPath::Replay { .. } => {
                    add(SweepTask::Run(ci), model.run_replay(), Some(eval_task[self.plan_of[ci]]))
                }
            };
        }
    }

    fn plan(&self, pi: usize) -> &RoutingPlan {
        self.plans[pi].get().expect("a plan is built before its readers run")
    }

    /// Runs frame group `g` over the stream, leaving each member's timing
    /// and cache counters for its report; `host` times each window's
    /// route and cache pass.
    fn run_frame<H: HostSink>(&self, g: usize, host: &H) {
        let members = &self.groups[g];
        let mut group = FrameGroup::new(members.iter().map(|&ci| &self.configs[ci]).collect());
        let timings = group.run_frame(self.stream, &mut NullSink, host);
        for (k, (&ci, timing)) in members.iter().zip(timings).enumerate() {
            let slot = &mut *self.outcomes[ci].lock().expect("outcome slot poisoned");
            let outcome = (timing, group.counters(k).collect());
            assert!(slot.replace(outcome).is_none(), "each frame group runs once");
        }
    }

    /// Config `ci`'s report, down its path.
    fn run(&self, ci: usize) -> RunReport {
        let config = &self.configs[ci];
        match self.path_of[ci] {
            ConfigPath::Frame { .. } => {
                let taken = self.outcomes[ci].lock().expect("outcome slot poisoned").take();
                let (timing, counters) = taken.expect("a frame group runs before its reports");
                timing.report(config.summary(), self.stream, counters)
            }
            ConfigPath::Replay { geom, classify } => {
                let plan = self.plan_of[ci];
                let eval = self.evals[plan].get().expect("replay path has an evaluation");
                let (nodes, counters) = walk_misses(eval, geom, classify);
                replay_timing(config, self.stream, self.plan(plan), nodes, counters)
            }
        }
    }

    /// The number of distinct timing walks frame group `g` runs untraced.
    fn walks(&self, g: usize) -> usize {
        let members: Vec<_> = self.groups[g].iter().map(|&ci| &self.configs[ci]).collect();
        walk_owners(&members).into_iter().enumerate().filter(|&(k, owner)| owner == k).count()
    }

    /// Frame group `g`'s distinct cache models, each with the number of
    /// its configs that mount it.
    fn models(&self, g: usize) -> Vec<(CacheKind, u64)> {
        let mut models: Vec<(CacheKind, u64)> = Vec::new();
        for &ci in &self.groups[g] {
            let cache = self.configs[ci].cache;
            match models.iter_mut().find(|(model, _)| *model == cache) {
                Some((_, uses)) => *uses += 1,
                None => models.push((cache, 1)),
            }
        }
        models
    }
}

/// Runs several sweeps — one `(stream, configs)` job each, typically one
/// per scene — as **one** task graph on the work-stealing pool, and
/// returns each job's reports in its config order.
///
/// Each job is analysed on its own, exactly as a single sweep: its grid
/// is grouped into routing plans by `(distribution, processors)`, each
/// config's path (frame group or stack-distance replay) is picked, and its
/// frame groups and trace evaluations get their slots. Each job's tasks
/// are costed by a [`CostModel`] scaled to *its* stream, so
/// longest-first dispatch ranks work across scenes of different sizes and
/// a small scene's configs fill the tail a big scene leaves idle.
///
/// Every pipeline stage (path selection, plan build, lane pivots,
/// stack-distance evaluation, frame groups and per-config reports) runs
/// under a named [`HostSink`] span. A frame group runs under a
/// `run-configs` span, with each window's route and cache pass under
/// `plan-build` and `capture` child spans; its time lands in the
/// `host.run_ns.frame` histogram, a replayed config's in
/// `host.run_ns.replay`, and every worker thread reports `busy`/`wall`
/// utilization for the `run-configs` stage.
///
/// The pipeline runs on the work-stealing pool in [`crate::sched`]:
/// Mattson-walk plan builds, trace evaluations, frame groups and
/// per-config reports of every job become one dependency-ordered task
/// batch, dispatched longest-first, so the frame group of plan A overlaps
/// the evaluation of plan B and no phase barrier serializes the tail.
/// Every task writes one preassigned [`OnceLock`] slot, so the reports are
/// byte-identical to one [`run_sweep`] per job, across thread counts and
/// steal interleavings.
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
    let jobs: Vec<Job> = jobs
        .iter()
        .map(|&(stream, configs)| Job::analyse(stream, configs))
        .collect();
    drop(path_span);
    if S::ENABLED {
        sink.count("sweep.configs", n_configs as u64);
        for job in &jobs {
            sink.count("sweep.plans", job.plans.len() as u64);
            // A frame-group config whose cache model another config of
            // its group shares counts as captured, any other as direct.
            let (mut captures, mut captured, mut direct) = (0, 0, 0);
            for g in 0..job.groups.len() {
                for (_, uses) in job.models(g) {
                    if uses >= 2 {
                        captures += 1;
                        captured += uses;
                    } else {
                        direct += 1;
                    }
                }
            }
            let replay = job.configs.len() as u64 - captured - direct;
            sink.count("sweep.captures", captures);
            for (path, n) in [
                ("sweep.path.direct", direct),
                ("sweep.path.captured", captured),
                ("sweep.path.replay", replay),
            ] {
                if n > 0 {
                    sink.count(path, n);
                }
            }
        }
    }

    let mut graph = TaskGraph::new();
    let mut tasks: Vec<(usize, SweepTask, u64)> = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        job.add_tasks(j, &mut graph, &mut tasks);
    }

    // Per-worker accounting for the run-configs stage, over a *shared*
    // window (first frame group or report started → last finished), so a
    // worker that runs out of work early reads as idle, not as a shorter
    // wall.
    let workers = options.threads.min(n_configs);
    let t_origin = Instant::now();
    let rc_busy: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let rc_items: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let window_start = AtomicU64::new(u64::MAX);
    let window_end = AtomicU64::new(0);

    let elapsed_ns = |origin: &Instant| origin.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    // Runs one run-configs task and accounts it to worker `widx`: its
    // time into histogram `ns`, if any, and its cost-model error when it
    // carries a `predicted` cost; `configs` counts the configs it reports.
    let run_configs =
        |widx: usize, ns: Option<&'static str>, predicted: u64, configs: u64, f: &dyn Fn()| {
            let _s = sink.span("run-configs");
            let start = S::ENABLED.then(|| elapsed_ns(&t_origin));
            f();
            if let Some(start) = start {
                let end = elapsed_ns(&t_origin);
                let took = end.saturating_sub(start);
                window_start.fetch_min(start, Ordering::Relaxed);
                window_end.fetch_max(end, Ordering::Relaxed);
                rc_busy[widx].fetch_add(took, Ordering::Relaxed);
                rc_items[widx].fetch_add(configs, Ordering::Relaxed);
                if let Some(ns) = ns {
                    sink.observe(ns, took);
                    // Cost-model feedback: per-task |predicted − actual| as a
                    // percentage of predicted, kept as a log2 histogram so the
                    // LPT estimates stay honest as the simulator evolves.
                    let err_pct = took.abs_diff(predicted) * 100 / predicted;
                    sink.observe("sweep.cost_err_pct", err_pct);
                }
            }
        };
    let exec = |t: usize, widx: usize| {
        let (j, task, cost) = tasks[t];
        let job = &jobs[j];
        match task {
            SweepTask::Plan(pi) => {
                let _s = sink.span("plan-build");
                let rep = &job.configs[job.plan_rep[pi]];
                let built = RoutingPlan::build(job.stream, &rep.distribution, rep.processors);
                assert!(job.plans[pi].set(built).is_ok(), "one build per plan group");
            }
            SweepTask::Eval(pi) => {
                let _s = sink.span("trace-eval");
                let trace = {
                    let _p = sink.span("lane-pivot");
                    capture_line_trace(job.stream, job.plan(pi))
                };
                let requests = &job.requests[pi];
                sink.observe("cache.eval_requests", requests.len() as u64);
                let eval = {
                    let _m = sink.span("mattson-walk");
                    evaluate_trace(&trace, requests)
                };
                assert!(job.evals[pi].set(eval).is_ok(), "one evaluation per plan");
            }
            SweepTask::Frame(g) => {
                run_configs(widx, Some("host.run_ns.frame"), cost, 0, &|| job.run_frame(g, sink));
            }
            SweepTask::Run(ci) => {
                let ns = match job.path_of[ci] {
                    ConfigPath::Frame { .. } => None,
                    ConfigPath::Replay { .. } => Some("host.run_ns.replay"),
                };
                run_configs(widx, ns, cost, 1, &|| {
                    assert!(job.out[ci].set(job.run(ci)).is_ok(), "each config runs once");
                });
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
    use crate::distribution::Distribution;
    use crate::machine::Machine;
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
    fn replay_path_matches_direct_runs() {
        // A grid dense in cache geometries (every size 512 B–64 KB × ways
        // 1–8, enough for the Mattson walk) next to frame-group configs:
        // every report, whichever path made it, must equal the config's
        // own `Machine::run`.
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
        let swept = run_sweep_with_threads(&stream, &configs, 3);
        for (config, report) in configs.iter().zip(&swept) {
            let direct = Machine::new(config.clone()).run(&stream);
            assert_eq!(report, &direct, "{}", config.summary());
        }
    }

    #[test]
    fn captured_path_matches_direct_runs_for_unreplayable_kinds() {
        // Frame groups serve the kinds the stack-distance machinery
        // cannot express: perfect, two-level, victim, and DRAM-backed
        // machines. Pairs of configs differing only in buffer depth share
        // one cache pass per window; every report must equal the config's
        // own `Machine::run`.
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
        let other_bus = SweepGrid::new().processors([4, 16]).bus_ratios([Some(2.0)]).build();
        let summaries =
            |g: &[MachineConfig]| g.iter().map(MachineConfig::summary).collect::<Vec<_>>();
        assert_eq!(summaries(&grid), summaries(&other_bus), "the summary omits the bus");
        assert_ne!(grid_hash(&grid), grid_hash(&other_bus), "bus-sensitive");
        let mut other_window = grid.clone();
        other_window[1].prefetch_window = None;
        assert_ne!(grid_hash(&grid), grid_hash(&other_window), "window-sensitive");
        assert_ne!(grid_hash(&[]), 0, "empty grid hashes to the FNV offset");
    }
}
