//! The four workloads: what each sets up from the seed, the calls one
//! round makes into the library, and what the untimed checks verify.

use crate::recorder::Recorder;
use sortmid::{
    run_sweep_profiled, run_sweep_with_threads, CacheKind, Distribution, HostProfile, HostProfiler,
    Machine, MachineConfig, RunReport, SweepGrid, SweepOptions,
};
use sortmid_cache::CacheGeometry;
use sortmid_devharness::rng::mix64;
use sortmid_devharness::Json;
use sortmid_experiments::common::{
    machine, PreparedScene, BLOCK_WIDTHS, BLOCK_WIDTHS_FULL, PROC_CURVE, PROC_PANELS, SLI_LINES,
};
use sortmid_experiments::{fig5, fig6, fig7, fig8};
use sortmid_observe::provenance::fnv1a_64;
use sortmid_raster::FragmentStream;
use sortmid_scene::{Benchmark, SceneBuilder};
use sortmid_util::rng::Pcg32;
use sortmid_util::table::Table;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figures 5–8 regenerated through the experiment crate, one
    /// `Machine::run` per config: the reproduction's end-to-end number.
    PaperFigures,
    /// A designer's sweep: processors × distributions × {perfect, 16 KB}
    /// × bus × triangle buffer, so plans, lanes and captures are shared.
    DesignSweep,
    /// Processors × 2 distributions × 102 cache geometries: the Mattson
    /// walk prices every geometry of a plan, and dominates.
    CacheGeometry,
    /// Independent `Machine::new(cfg).run(&stream)` queries, nothing
    /// shared between them: the CLI's and the examples' use.
    SingleConfig,
}

impl Workload {
    /// Every workload, in the order `run.sh --workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperFigures,
        Workload::DesignSweep,
        Workload::CacheGeometry,
        Workload::SingleConfig,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFigures => "paper-figures",
            Workload::DesignSweep => "design-sweep",
            Workload::CacheGeometry => "cache-geometry",
            Workload::SingleConfig => "single-config",
        }
    }

    /// The workload a `--workload` name selects.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host threads a call runs on, given `sweep_threads` for sweeps: the
    /// figures and the queries run on the calling thread, as the CLI does.
    pub fn threads(self, sweep_threads: usize) -> usize {
        match self {
            Workload::DesignSweep | Workload::CacheGeometry => sweep_threads,
            Workload::PaperFigures | Workload::SingleConfig => 1,
        }
    }

    fn benchmarks(self) -> &'static [Benchmark] {
        match self {
            Workload::CacheGeometry => &[
                Benchmark::Quake,
                Benchmark::Massive32_11255,
                Benchmark::Truc640,
            ],
            _ => &Benchmark::ALL,
        }
    }
}

/// Scene scale of every workload. From 0.2 up, the seven presets' total
/// fragment count varies little across seeds (interquartile spread 0.9%
/// over twenty seeds); smaller scenes keep so few triangles that a seed
/// can drop a foreground object (5.2% at 0.1, where truc640 and the
/// massive scenes alone span about 30%), and the time of a round follows.
const SCALE: f64 = 0.2;

/// Smoke runs shrink every scene to this share of the scale.
const SMOKE_SCALE: f64 = 0.3;

/// Queries per single-config round: four of each scene × cache × bus
/// combination, so twelve lie beyond the 95th percentile. A smoke round
/// makes fewer.
const QUERIES: usize = 252;
const SMOKE_QUERIES: usize = 42;

/// The checks re-run one sweep report in this many directly.
const SAMPLE_ONE_IN: u32 = 64;

/// The generator seed of `benchmark` under benchmark seed `seed`: seed 0
/// keeps the preset's calibrated seed, any other seed perturbs it.
fn scene_seed(benchmark: Benchmark, seed: u64) -> u64 {
    let preset = benchmark.config().seed;
    if seed == 0 {
        preset
    } else {
        preset ^ mix64(seed)
    }
}

/// Everything a workload's calls read: the rasterized scenes, and the
/// figures, sweep grid or queries a round goes through.
#[derive(Debug)]
pub struct Inputs {
    /// The workload's scenes.
    pub scenes: Vec<PreparedScene>,
    figures: Vec<Figure>,
    grid: Vec<MachineConfig>,
    queries: Vec<(usize, MachineConfig)>,
}

impl Inputs {
    /// Fragments over every scene.
    pub fn fragments(&self) -> u64 {
        self.scenes.iter().map(|s| s.stream.fragment_count()).sum()
    }
}

/// Generates and rasterizes the workload's scenes from `seed`, and lists
/// its figures, grid or queries.
pub fn setup(workload: Workload, seed: u64, smoke: bool, rec: &mut Recorder) -> Inputs {
    let scale = SCALE * if smoke { SMOKE_SCALE } else { 1.0 };
    let scenes: Vec<PreparedScene> = workload
        .benchmarks()
        .iter()
        .map(|&benchmark| {
            let scene = rec.span("scene.generate", |_| {
                SceneBuilder::benchmark(benchmark)
                    .scale(scale)
                    .seed(scene_seed(benchmark, seed))
                    .build()
            });
            let stream = rec.span("raster.rasterize", |_| scene.rasterize());
            PreparedScene {
                benchmark,
                scene,
                stream,
                scale,
            }
        })
        .collect();
    let mut inputs = Inputs {
        scenes,
        figures: Vec::new(),
        grid: Vec::new(),
        queries: Vec::new(),
    };
    match workload {
        Workload::PaperFigures => inputs.figures = figures(),
        Workload::DesignSweep => inputs.grid = design_grid(),
        Workload::CacheGeometry => inputs.grid = geometry_grid(),
        Workload::SingleConfig => {
            let n = if smoke { SMOKE_QUERIES } else { QUERIES };
            inputs.queries = draw_queries(seed, n, inputs.scenes.len());
        }
    }
    inputs
}

/// 3 processor counts × 12 distributions × 2 caches × 2 buses × 3
/// buffers = 432 configs over 36 plans. Perfect configs share a capture
/// per plan; 16 KB configs share one geometry per plan, so they replay
/// without a Mattson walk.
fn design_grid() -> Vec<MachineConfig> {
    let distributions = BLOCK_WIDTHS
        .iter()
        .map(|&w| Distribution::block(w))
        .chain(SLI_LINES.iter().map(|&l| Distribution::sli(l)));
    SweepGrid::new()
        .processors([4, 16, 64])
        .distributions(distributions)
        .caches([CacheKind::Perfect, CacheKind::PaperL1])
        .bus_ratios([Some(1.0), Some(2.0)])
        .buffers([100, 500, 10_000])
        .build()
}

/// 2 processor counts × {block-16, SLI-4} × every power-of-two geometry
/// from 512 B to 4 MB with 1–128 ways (102, as in the sweep bench's dense
/// lane) = 408 configs over 4 plans.
fn geometry_grid() -> Vec<MachineConfig> {
    let mut geometries = Vec::new();
    for log_size in 9..=22 {
        for log_ways in 0..=7 {
            let (size, ways) = (1u32 << log_size, 1u32 << log_ways);
            if ways * 64 <= size {
                geometries
                    .push(CacheGeometry::new(size, ways, 64).expect("grid geometry is valid"));
            }
        }
    }
    SweepGrid::new()
        .processors([16, 64])
        .distributions([Distribution::block(16), Distribution::sli(4)])
        .caches(geometries.into_iter().map(CacheKind::SetAssoc))
        .build()
}

/// `n` queries as `(scene index, config)`. Scene, cache model and bus
/// cycle through every combination. Processors, distribution and buffer
/// follow a low-discrepancy (Kronecker) sequence from a seeded start, so
/// every seed draws an equally even spread of machine shapes and the
/// latency percentiles do not hinge on which heavy configs a seed draws.
fn draw_queries(seed: u64, n: usize, scenes: usize) -> Vec<(usize, MachineConfig)> {
    let caches = [
        CacheKind::Perfect,
        CacheKind::PaperL1,
        CacheKind::Classifying(CacheGeometry::paper_l1()),
    ];
    let buses = [Some(1.0), Some(2.0), None];
    let distributions: Vec<Distribution> = BLOCK_WIDTHS_FULL
        .iter()
        .map(|&w| Distribution::block(w))
        .chain(SLI_LINES.iter().map(|&l| Distribution::sli(l)))
        .collect();
    // Fractional parts of the golden ratio, √2 and √3.
    const STEPS: [f64; 3] = [
        0.618_033_988_749_895,
        0.414_213_562_373_095,
        0.732_050_807_568_877,
    ];
    let mut rng = Pcg32::seed_from_u64(mix64(seed));
    let start: [f64; 3] = std::array::from_fn(|_| rng.next_f64());
    (0..n)
        .map(|i| {
            let u = |d: usize| (start[d] + i as f64 * STEPS[d]).fract();
            let pick = |d: usize, len: usize| ((u(d) * len as f64) as usize).min(len - 1);
            let config = machine(
                1 + pick(0, 64) as u32,
                distributions[pick(1, distributions.len())].clone(),
                caches[i / scenes % 3],
                buses[i / (scenes * 3) % 3],
                10f64.powf(1.0 + 3.0 * u(2)).round() as usize,
            );
            (i % scenes, config)
        })
        .collect()
}

/// The untimed warm-up: one default 16-processor config per scene.
pub fn warm_up(inputs: &Inputs, rec: &mut Recorder) -> Vec<RunReport> {
    let config = machine(
        16,
        Distribution::block(16),
        CacheKind::PaperL1,
        Some(1.0),
        10_000,
    );
    inputs
        .scenes
        .iter()
        .map(|s| {
            rec.span("machine.run", |_| {
                Machine::new(config.clone()).run(&s.stream)
            })
        })
        .collect()
}

/// What one call returned.
#[derive(Debug)]
pub enum Output {
    /// One report per config or query, with the index of its scene.
    Reports(Vec<(usize, RunReport)>),
    /// One figure table and what its cells must hold.
    Table(Table, Cells),
}

/// What a figure table's cells must hold.
#[derive(Debug, Clone, Copy)]
pub enum Cells {
    /// Finite values: imbalance percentages, texel/fragment ratios.
    Finite,
    /// Positive finite speedups. With real caches a speedup can exceed the
    /// processor count (teapot.full reaches 4.76 on 4 processors under
    /// seed 37: each node's share of the texture fits its cache), so only
    /// perfect-cache speedups are bounded by it.
    Speedup,
    /// Perfect-cache speedups on this many processors.
    PerfectSpeedup(u32),
    /// Perfect-cache speedups, each row labelled with its processor count.
    PerfectSpeedupPerRow,
}

/// One figure call of paper-figures.
#[derive(Debug, Clone, Copy)]
enum Figure {
    /// Figure 5's imbalance table, 64 processors, every scene.
    Imbalance { sli: bool },
    /// Figure 5's speedup curves on 32massive11255.
    Speedup { sli: bool },
    /// Figure 6's locality table for one scene.
    Locality { scene: Benchmark, sli: bool },
    /// One of Figure 7's panels at a 1 texel/pixel bus.
    Panel { procs: u32, sli: bool },
    /// One of Figure 8's truc640 buffer panels, 64 processors.
    Buffer { cache: CacheKind },
}

/// The scenes Figure 6 plots; the paper notes the others behave like one
/// of the two. Every scene would double the round.
const LOCALITY_SCENES: [Benchmark; 2] = [Benchmark::Massive32_11255, Benchmark::TeapotFull];

/// Figures 5–8 as `sortmid-experiments` computes them: 16 calls.
fn figures() -> Vec<Figure> {
    let both = [false, true];
    let mut figures: Vec<Figure> = both.map(|sli| Figure::Imbalance { sli }).into();
    figures.extend(both.map(|sli| Figure::Speedup { sli }));
    for scene in LOCALITY_SCENES {
        figures.extend(both.map(|sli| Figure::Locality { scene, sli }));
    }
    for sli in both {
        figures.extend(PROC_PANELS.map(|procs| Figure::Panel { procs, sli }));
    }
    figures.extend([CacheKind::Perfect, CacheKind::PaperL1].map(|cache| Figure::Buffer { cache }));
    figures
}

impl Figure {
    fn span(self) -> &'static str {
        match self {
            Figure::Imbalance { .. } => "experiments.fig5_imbalance",
            Figure::Speedup { .. } => "experiments.fig5_speedup",
            Figure::Locality { .. } => "experiments.fig6",
            Figure::Panel { .. } => "experiments.fig7",
            Figure::Buffer { .. } => "experiments.fig8",
        }
    }

    fn cells(self) -> Cells {
        match self {
            Figure::Imbalance { .. } | Figure::Locality { .. } => Cells::Finite,
            Figure::Speedup { .. } => Cells::PerfectSpeedupPerRow,
            Figure::Panel { .. } => Cells::Speedup,
            Figure::Buffer { cache } => match cache {
                CacheKind::Perfect => Cells::PerfectSpeedup(64),
                _ => Cells::Speedup,
            },
        }
    }

    fn run(self, scenes: &[PreparedScene]) -> Table {
        match self {
            Figure::Imbalance { sli } => fig5::imbalance_table(scenes, 64, sli),
            Figure::Speedup { sli } => {
                fig5::speedup_curves(find(scenes, Benchmark::Massive32_11255), sli)
            }
            Figure::Locality { scene, sli } => fig6::locality_table(find(scenes, scene), sli),
            Figure::Panel { procs, sli } => fig7::speedup_panel(scenes, procs, sli, 1.0),
            Figure::Buffer { cache } => {
                fig8::buffer_panel(find(scenes, Benchmark::Truc640), 64, cache, 2.0)
            }
        }
    }
}

fn find(scenes: &[PreparedScene], benchmark: Benchmark) -> &PreparedScene {
    scenes
        .iter()
        .find(|s| s.benchmark == benchmark)
        .expect("paper-figures prepares every preset")
}

/// Counts the traced sweeps' profiles report, summed over a traced round.
#[derive(Debug, Default)]
pub struct SweepTotals {
    /// Σ fragments × configs over the traced sweeps.
    pub frag_configs: u64,
    /// Configs swept.
    pub configs: u64,
    /// Scheduler-pool worker busy time.
    pub pool_busy_ns: u64,
    /// Scheduler-pool worker wall time.
    pub pool_wall_ns: u64,
    /// Σ per-sweep pool imbalance × that sweep's pool wall.
    pub imbalance_weighted: f64,
    /// Σ per-sweep pool wall that weighs the imbalance.
    pub imbalance_weight: f64,
    /// Tasks stolen between workers.
    pub steals: u64,
    /// Configs on the direct path.
    pub path_direct: u64,
    /// Configs replaying a shared capture.
    pub path_captured: u64,
    /// Configs synthesized from a trace evaluation.
    pub path_replay: u64,
}

impl SweepTotals {
    fn absorb(&mut self, profile: &HostProfile, fragments: u64, configs: u64) {
        let counter = |name: &str| {
            profile
                .metrics
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        self.frag_configs += fragments * configs;
        self.configs += configs;
        let pool: Vec<_> = profile
            .workers
            .iter()
            .filter(|w| w.lane == "sched-pool")
            .collect();
        let wall = pool.iter().map(|w| w.wall_ns).max().unwrap_or(0);
        self.pool_busy_ns += pool.iter().map(|w| w.busy_ns).sum::<u64>();
        self.pool_wall_ns += pool.iter().map(|w| w.wall_ns).sum::<u64>();
        if let Some(imbalance) = profile.utilization_imbalance().get("sched-pool") {
            self.imbalance_weighted += imbalance * wall as f64;
            self.imbalance_weight += wall as f64;
        }
        self.steals += counter("sweep.steals");
        self.path_direct += counter("sweep.path.direct");
        self.path_captured += counter("sweep.path.captured");
        self.path_replay += counter("sweep.path.replay");
    }
}

/// One sweep on `threads` host threads. Traced, it runs under a host
/// profiler whose spans are grafted under the caller's span.
fn sweep(
    rec: &mut Recorder,
    stream: &FragmentStream,
    grid: &[MachineConfig],
    threads: usize,
) -> (Vec<RunReport>, Option<HostProfile>) {
    if !rec.enabled() {
        return (run_sweep_with_threads(stream, grid, threads), None);
    }
    let origin = rec.now_ns();
    let profiler = HostProfiler::new();
    let options = SweepOptions {
        threads,
        ..Default::default()
    };
    let reports = run_sweep_profiled(stream, grid, options, &profiler);
    let profile = profiler.finish();
    rec.graft(&profile, origin);
    (reports, Some(profile))
}

impl Workload {
    /// Calls one round makes: one per figure, per scene's sweep, or per
    /// query.
    pub fn calls(self, inputs: &Inputs) -> usize {
        match self {
            Workload::PaperFigures => inputs.figures.len(),
            Workload::DesignSweep | Workload::CacheGeometry => inputs.scenes.len(),
            Workload::SingleConfig => inputs.queries.len(),
        }
    }

    /// Makes call `k` of a round inside a span named after its layer.
    /// Sweeps run on `threads` host threads; a traced sweep adds its
    /// profile's counts to `sweeps`.
    pub fn call(
        self,
        k: usize,
        inputs: &Inputs,
        threads: usize,
        rec: &mut Recorder,
        sweeps: &mut SweepTotals,
    ) -> Output {
        match self {
            Workload::PaperFigures => {
                let figure = inputs.figures[k];
                let table = rec.span(figure.span(), |_| figure.run(&inputs.scenes));
                Output::Table(table, figure.cells())
            }
            Workload::DesignSweep | Workload::CacheGeometry => {
                let stream = &inputs.scenes[k].stream;
                let (reports, profile) =
                    rec.span("sweep.run", |rec| sweep(rec, stream, &inputs.grid, threads));
                if let Some(profile) = profile {
                    let configs = inputs.grid.len() as u64;
                    sweeps.absorb(&profile, stream.fragment_count(), configs);
                }
                Output::Reports(reports.into_iter().map(|r| (k, r)).collect())
            }
            Workload::SingleConfig => {
                let (scene, config) = &inputs.queries[k];
                let stream = &inputs.scenes[*scene].stream;
                let report = rec.span("machine.run", |_| Machine::new(config.clone()).run(stream));
                Output::Reports(vec![(*scene, report)])
            }
        }
    }

    /// The spans whose time is spent in the direct `Machine::run` loop.
    pub fn direct_spans(self) -> &'static [&'static str] {
        match self {
            Workload::PaperFigures => &[
                "experiments.fig5_speedup",
                "experiments.fig6",
                "experiments.fig7",
            ],
            Workload::SingleConfig => &["machine.run"],
            _ => &[],
        }
    }

    /// Σ fragments × configs one round simulates on the direct loop,
    /// inside [`direct_spans`](Self::direct_spans).
    pub fn direct_work(self, inputs: &Inputs) -> u64 {
        let frags = |s: &PreparedScene| s.stream.fragment_count();
        let len = |n: usize| n as u64;
        match self {
            Workload::PaperFigures => {
                let massive = find(&inputs.scenes, Benchmark::Massive32_11255);
                let plotted: u64 = LOCALITY_SCENES
                    .iter()
                    .map(|&b| frags(find(&inputs.scenes, b)))
                    .sum();
                let curves =
                    2 + len(PROC_CURVE.len()) * len(BLOCK_WIDTHS_FULL.len() + SLI_LINES.len());
                let locality = len(PROC_CURVE.len()) * len(BLOCK_WIDTHS.len() + SLI_LINES.len());
                let panels = len(PROC_PANELS.len()) * len(2 + BLOCK_WIDTHS.len() + SLI_LINES.len());
                let all: u64 = inputs.scenes.iter().map(frags).sum();
                curves * frags(massive) + locality * plotted + panels * all
            }
            Workload::SingleConfig => inputs
                .queries
                .iter()
                .map(|(i, _)| frags(&inputs.scenes[*i]))
                .sum(),
            _ => 0,
        }
    }
}

/// Failures described in full per run; the rest are only counted.
const MAX_PROBLEMS: usize = 8;

/// The outcome of checking calls.
#[derive(Debug, Default)]
pub struct Checked {
    /// Operations the calls completed: configs simulated, or table cells.
    pub ops: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// The first few failures, described.
    pub problems: Vec<String>,
}

impl Checked {
    /// Counts one failed operation and keeps the first few descriptions.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(problem);
        }
    }

    /// Adds another check's outcome to this one.
    pub fn merge(&mut self, other: Checked) {
        self.ops += other.ops;
        self.failed += other.failed;
        let room = MAX_PROBLEMS.saturating_sub(self.problems.len());
        self.problems.extend(other.problems.into_iter().take(room));
    }
}

/// The stream of one-in-64 draws that picks which sweep reports the
/// checks re-run, seeded from the benchmark seed apart from the queries.
pub fn sampler(seed: u64) -> Pcg32 {
    Pcg32::seed_from_u64(mix64(seed)).fork(1)
}

/// Checks one call's output. Every report must keep the cycle identity and
/// the three-C identity on every node and draw every fragment of its
/// stream; with `sampler`, each sweep report is also re-run directly with
/// probability 1/64 and must equal `Machine::run`. Every table cell must
/// be finite, every speedup positive, and every perfect-cache speedup at
/// most procs × 1.05.
pub fn check(inputs: &Inputs, output: &Output, mut sampler: Option<&mut Pcg32>) -> Checked {
    let mut out = Checked::default();
    match output {
        Output::Reports(reports) => {
            for (k, (scene, report)) in reports.iter().enumerate() {
                out.ops += 1;
                let stream = &inputs.scenes[*scene].stream;
                if let Err(problem) = check_report(report, stream.fragment_count()) {
                    out.fail(problem);
                    continue;
                }
                let sampled = !inputs.grid.is_empty()
                    && sampler
                        .as_deref_mut()
                        .is_some_and(|r| r.next_below(SAMPLE_ONE_IN) == 0);
                if sampled && Machine::new(inputs.grid[k].clone()).run(stream) != *report {
                    out.fail(format!(
                        "{}: sweep report differs from Machine::run",
                        report.summary()
                    ));
                }
            }
        }
        Output::Table(table, cells) => {
            let csv = table.to_csv();
            for line in csv.lines().skip(1) {
                let mut values = line.split(',');
                let label = values.next().unwrap_or_default();
                let limit = match cells {
                    Cells::Finite | Cells::Speedup => f64::INFINITY,
                    Cells::PerfectSpeedup(procs) => *procs as f64 * 1.05,
                    Cells::PerfectSpeedupPerRow => label.parse().unwrap_or(0.0) * 1.05,
                };
                let positive = !matches!(cells, Cells::Finite);
                for cell in values {
                    out.ops += 1;
                    let v: f64 = cell.parse().unwrap_or(f64::NAN);
                    if !(v.is_finite() && v <= limit && (v > 0.0 || !positive)) {
                        out.fail(format!("table cell '{cell}' in row '{label}' out of range"));
                    }
                }
            }
        }
    }
    out
}

fn check_report(report: &RunReport, fragments: u64) -> Result<(), String> {
    for (n, node) in report.nodes().iter().enumerate() {
        node.cycle_breakdown()
            .verify(node.finish)
            .map_err(|e| format!("{}: node {n}: {e}", report.summary()))?;
        node.verify_misses()
            .map_err(|e| format!("{}: node {n}: {e}", report.summary()))?;
    }
    let pixels: u64 = report.nodes().iter().map(|n| n.pixels).sum();
    if pixels != fragments {
        return Err(format!(
            "{}: nodes drew {pixels} of {fragments} fragments",
            report.summary()
        ));
    }
    Ok(())
}

/// FNV-1a 64 over the `Debug` text of every report of a call, or over its
/// table's CSV.
pub fn digest(output: &Output) -> u64 {
    match output {
        Output::Reports(reports) => fnv1a_64(
            reports
                .iter()
                .flat_map(|(_, r)| format!("{r:?}").into_bytes()),
        ),
        Output::Table(table, _) => fnv1a_64(table.to_csv().into_bytes()),
    }
}

/// Simulated-machine totals over a set of reports: host-independent, so a
/// change that only speeds up the simulator must leave them identical.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ModelTotals {
    /// Σ machine cycles.
    pub cycles: u64,
    /// Σ texels fetched from texture memory.
    pub texels: u64,
    /// Σ fragments drawn.
    pub fragments: u64,
    /// Σ cache hits.
    pub hits: u64,
    /// Σ cache accesses.
    pub accesses: u64,
    /// Σ node cycles attributed by the five-way breakdown.
    pub node_cycles: u64,
    /// … of which stalled on the bus.
    pub bus_stall: u64,
    /// … of which starved on an empty FIFO.
    pub starved: u64,
    /// … of which padded the setup floor.
    pub setup: u64,
}

impl ModelTotals {
    /// Adds one report's totals.
    pub fn add(&mut self, r: &RunReport) {
        let cache = r.cache_totals();
        let breakdown = r.aggregate_breakdown();
        self.cycles += r.total_cycles();
        self.texels += r
            .nodes()
            .iter()
            .map(|n| n.external_fetches * 16)
            .sum::<u64>();
        self.fragments += r.fragments();
        self.hits += cache.hits();
        self.accesses += cache.accesses();
        self.node_cycles += breakdown.total();
        self.bus_stall += breakdown.bus_stall;
        self.starved += breakdown.starved;
        self.setup += breakdown.setup;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fragments(seed: u64) -> Vec<u64> {
        let inputs = setup(
            Workload::CacheGeometry,
            seed,
            true,
            &mut Recorder::new(false),
        );
        inputs
            .scenes
            .iter()
            .map(|s| s.stream.fragment_count())
            .collect()
    }

    #[test]
    fn seed_zero_reproduces_the_presets_and_other_seeds_do_not() {
        let scale = SCALE * SMOKE_SCALE;
        let presets: Vec<u64> = Workload::CacheGeometry
            .benchmarks()
            .iter()
            .map(|&b| {
                SceneBuilder::benchmark(b)
                    .scale(scale)
                    .build()
                    .rasterize()
                    .fragment_count()
            })
            .collect();
        assert_eq!(fragments(0), presets);
        for seed in [1, 2] {
            assert_ne!(fragments(seed), presets, "seed {seed}");
        }
    }

    #[test]
    fn digest_is_stable_across_runs_in_one_process() {
        for workload in [Workload::SingleConfig, Workload::CacheGeometry] {
            let inputs = setup(workload, 3, true, &mut Recorder::new(false));
            let mut sampler = sampler(3);
            let digests: Vec<Vec<u64>> = (0..2)
                .map(|_| {
                    (0..workload.calls(&inputs))
                        .map(|k| {
                            let mut rec = Recorder::new(false);
                            let out =
                                workload.call(k, &inputs, 2, &mut rec, &mut SweepTotals::default());
                            let checked = check(&inputs, &out, Some(&mut sampler));
                            assert_eq!(checked.failed, 0, "{:?}", checked.problems);
                            digest(&out)
                        })
                        .collect()
                })
                .collect();
            assert_eq!(digests[0], digests[1], "{}", workload.name());
        }
    }

    #[test]
    fn grids_have_the_documented_shape() {
        assert_eq!(figures().len(), 16);
        assert_eq!(design_grid().len(), 432);
        assert_eq!(geometry_grid().len(), 408);
        let summaries = |seed| -> Vec<(usize, String)> {
            draw_queries(seed, 63, 7)
                .into_iter()
                .map(|(i, c)| (i, c.summary()))
                .collect()
        };
        assert_eq!(
            summaries(7),
            summaries(7),
            "the query list is a function of the seed"
        );
        assert_ne!(summaries(7), summaries(8));
        let scenes: Vec<usize> = summaries(7).into_iter().map(|(i, _)| i).collect();
        assert!(scenes.iter().enumerate().all(|(k, &i)| i == k % 7));
    }
}
