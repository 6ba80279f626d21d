//! Parallel parameter sweeps over fragment streams.
//!
//! The experiment harness evaluates dozens of machine configurations per
//! scene. Each run only *reads* its stream, so sweeps parallelise trivially
//! across host threads (the simulated machines stay deterministic — host
//! parallelism only reorders independent runs). [`run_sweeps`] schedules
//! the sweeps of several scenes on one pool; [`run_sweep`] and its
//! variants are its one-scene case.
//!
//! Routing — which nodes a triangle overlaps, which node owns each
//! fragment — depends only on the `(distribution, processors)` axes, never
//! on cache, bus or buffer parameters. The sweep therefore groups its
//! config grid by those two axes, and runs each plan group as one **frame
//! group**: [`Machine::run`]'s own windowed frame loop for all its configs
//! at once. Each window is routed once; each distinct cache model runs
//! over it once — the set-associative configs share one
//! [Mattson walk](sortmid_cache::MattsonWalk) when they request at least
//! [`STACKDIST_MIN_REQUESTS`](sortmid_cache::STACKDIST_MIN_REQUESTS)
//! distinct geometries, every other config the
//! per-node caches of its cache kind — and each distinct timing advances
//! one walk.
//!
//! Every report is byte-identical to [`Machine::run`], which is the frame
//! loop's one-config case.
//!
//! [`Machine::run`]: crate::Machine::run

use crate::config::{CacheKind, MachineConfig};
use crate::distribution::Distribution;
use crate::machine::{FrameGroup, Layout};
use crate::report::RunReport;
use crate::sched::{run_tasks, CostModel};
use sortmid_observe::{HostSink, NullHostSink, NullSink};
use sortmid_raster::FragmentStream;
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

/// One `(stream, configs)` job of [`run_sweeps`]: its plan groups, each
/// run as one frame group — decided from the configs alone, before any
/// cache is built — plus one write-once report slot per config.
struct Job<'a> {
    stream: &'a FragmentStream,
    configs: &'a [MachineConfig],
    /// Each plan group's configs, in config order.
    groups: Vec<Vec<usize>>,
    /// Each plan group's frame-group layout.
    layouts: Vec<Layout>,
    out: Vec<OnceLock<RunReport>>,
}

impl<'a> Job<'a> {
    /// Groups `configs` into plan groups and lays out each frame group.
    fn analyse(stream: &'a FragmentStream, configs: &'a [MachineConfig]) -> Self {
        // Group the grid by (distribution, processors): one routing serves
        // every cache/bus/buffer variation. Grids are small, so a linear
        // key scan beats hashing Distribution (which holds an Arc axis).
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (ci, config) in configs.iter().enumerate() {
            let same_plan = |group: &&mut Vec<usize>| {
                let rep = &configs[group[0]];
                rep.processors == config.processors && rep.distribution == config.distribution
            };
            match groups.iter_mut().find(same_plan) {
                Some(group) => group.push(ci),
                None => groups.push(vec![ci]),
            }
        }
        let layouts = groups.iter().map(|group| Layout::of(&members(configs, group))).collect();
        // Each report slot is written once, by its frame group's task —
        // which is what keeps the reports byte-identical across schedules.
        let out = (0..configs.len()).map(|_| OnceLock::new()).collect();
        Job { stream, configs, groups, layouts, out }
    }

    /// Frame group `g`'s estimated cost, from a model scaled to this job's
    /// stream: one route, one pass per probing cache model (a perfect
    /// model's pass only counts hits), the walk if the group has one, and
    /// one timing walk per distinct timing.
    fn cost(&self, g: usize) -> u64 {
        let model = CostModel::for_stream(self.stream.fragments().len() as u64);
        let layout = &self.layouts[g];
        let probing = layout.models.iter().flatten().filter(|&&m| m != CacheKind::Perfect).count();
        let mut cost = model.plan_build()
            + probing as u64 * model.capture()
            + layout.walks() as u64 * model.run_captured();
        if !layout.requests.is_empty() {
            cost = cost.saturating_add(model.trace_eval(layout.requests.len()));
        }
        cost
    }

    /// Runs frame group `g` over the stream and writes each member's
    /// report; `host` times each window's route and cache passes.
    fn run_frame<H: HostSink>(&self, g: usize, host: &H) {
        let mut group = FrameGroup::new(members(self.configs, &self.groups[g]));
        let timings = group.run_frame(self.stream, &mut NullSink, host);
        for (k, (&ci, timing)) in self.groups[g].iter().zip(timings).enumerate() {
            let report = timing.report(self.configs[ci].summary(), self.stream, group.counters(k));
            assert!(self.out[ci].set(report).is_ok(), "each config runs once");
        }
    }
}

/// The configs of a plan group, given as indices into `configs`.
fn members<'a>(configs: &'a [MachineConfig], group: &[usize]) -> Vec<&'a MachineConfig> {
    group.iter().map(|&ci| &configs[ci]).collect()
}

/// Runs several sweeps — one `(stream, configs)` job each, typically one
/// per scene — as **one** batch of tasks on the longest-first pool, and
/// returns each job's reports in its config order.
///
/// Each job is analysed on its own, exactly as a single sweep: its grid
/// is grouped into plan groups by `(distribution, processors)`, and each
/// plan group becomes one frame-group task that runs the frame and writes
/// its configs' reports. Each task is costed by a [`CostModel`] scaled to
/// *its* stream, so longest-first dispatch ranks work across scenes of
/// different sizes and a small scene's groups fill the tail a big scene
/// leaves idle.
///
/// Plan grouping runs under a `path-select` span and each frame group
/// under a `run-configs` span, with each window's route under
/// `plan-build` and its cache passes under `capture` (the Mattson walk
/// under `mattson-walk`) child spans. A group's time lands in the
/// `host.run_ns.frame` histogram, whose max is the batch's critical
/// path: its tasks have no edges. The pool's `sched-pool` records give
/// each worker's `busy`/`wall` utilization.
///
/// The tasks run on [`run_tasks`], claimed longest-first from one shared
/// queue. Every report goes to a preassigned [`OnceLock`] slot, so the
/// reports are byte-identical to one [`run_sweep`] per job, across thread
/// counts and claim interleavings.
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

    // Front-end analysis: group every grid and lay out each frame group,
    // from the configs alone, so every task is costed before any runs.
    let path_span = sink.span("path-select");
    let jobs: Vec<Job> = jobs
        .iter()
        .map(|&(stream, configs)| Job::analyse(stream, configs))
        .collect();
    drop(path_span);
    if S::ENABLED {
        sink.count("sweep.configs", n_configs as u64);
        for job in &jobs {
            sink.count("sweep.plans", job.groups.len() as u64);
            // A config the walk serves counts as replayed; any other whose
            // model another config of its group mounts as captured (a
            // shared perfect model included), the rest as direct. Only a
            // shared model whose pass probes fragments counts as a capture.
            let (mut captures, mut captured, mut direct, mut replay) = (0, 0, 0, 0);
            for layout in &job.layouts {
                for (kind, uses) in layout.models.iter().zip(layout.uses()) {
                    match kind {
                        None => replay += uses,
                        Some(_) if uses < 2 => direct += uses,
                        Some(kind) => {
                            captured += uses;
                            captures += u64::from(*kind != CacheKind::Perfect);
                        }
                    }
                }
            }
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

    // One task per frame group, each with its cost.
    let tasks: Vec<(usize, usize)> = jobs
        .iter()
        .enumerate()
        .flat_map(|(j, job)| (0..job.groups.len()).map(move |g| (j, g)))
        .collect();
    let costs: Vec<u64> = tasks.iter().map(|&(j, g)| jobs[j].cost(g)).collect();

    // Runs one frame group: its time into `host.run_ns.frame`, its
    // cost-model error into `sweep.cost_err_pct`.
    let exec = |t: usize| {
        let (j, g) = tasks[t];
        let job = &jobs[j];
        let _s = sink.span("run-configs");
        if S::ENABLED {
            let requests = job.layouts[g].requests.len();
            if requests > 0 {
                sink.observe("cache.eval_requests", requests as u64);
            }
            let start = Instant::now();
            job.run_frame(g, sink);
            let took = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            sink.observe("host.run_ns.frame", took);
            // Cost-model feedback: per-task |predicted − actual| as a
            // percentage of predicted, kept as a log2 histogram so the LPT
            // estimates stay honest as the simulator evolves.
            let predicted = costs[t];
            sink.observe("sweep.cost_err_pct", took.abs_diff(predicted) * 100 / predicted);
        } else {
            job.run_frame(g, sink);
        }
    };
    run_tasks(&costs, options.threads, sink, &exec);

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
    use sortmid_cache::STACKDIST_MIN_REQUESTS;
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
