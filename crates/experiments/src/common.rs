//! Shared scaffolding for the experiment modules.

use sortmid::{CacheKind, Distribution, MachineConfig, RunReport};
use sortmid_raster::FragmentStream;
use sortmid_scene::{Benchmark, Scene, SceneBuilder};

/// The block widths the paper sweeps for the square-block distribution
/// (widths 1 and 2 are shown in Figure 5 but dropped from the locality
/// plots, "for they often have ratios bigger than 8").
pub const BLOCK_WIDTHS: [u32; 6] = [4, 8, 16, 32, 64, 128];

/// The full block sweep including the degenerate tiny widths (Figures 5
/// and 8 use them).
pub const BLOCK_WIDTHS_FULL: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// The SLI group sizes the paper sweeps.
pub const SLI_LINES: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// The processor counts of Figure 7's panels.
pub const PROC_PANELS: [u32; 3] = [4, 16, 64];

/// The processor counts of the speedup-vs-P curves.
pub const PROC_CURVE: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The triangle-buffer sizes of Figure 8.
pub const BUFFER_SIZES: [usize; 8] = [1, 5, 10, 20, 50, 100, 500, 10_000];

/// A benchmark scene generated at a given scale, with its rasterized
/// stream, ready for machine sweeps.
#[derive(Debug)]
pub struct PreparedScene {
    /// Which benchmark this is.
    pub benchmark: Benchmark,
    /// The generated scene.
    pub scene: Scene,
    /// Its rasterization.
    pub stream: FragmentStream,
    /// The scale it was generated at.
    pub scale: f64,
}

impl PreparedScene {
    /// Generates and rasterizes `benchmark` at `scale`.
    pub fn new(benchmark: Benchmark, scale: f64) -> Self {
        let scene = SceneBuilder::benchmark(benchmark).scale(scale).build();
        let stream = scene.rasterize();
        PreparedScene {
            benchmark,
            scene,
            stream,
            scale,
        }
    }

    /// Prepares every benchmark at `scale`.
    pub fn all(scale: f64) -> Vec<PreparedScene> {
        Benchmark::ALL
            .iter()
            .map(|&b| PreparedScene::new(b, scale))
            .collect()
    }
}

/// Short column label for a benchmark (the paper abbreviates in figure
/// axes: `32massiv`, `blowout7`, `teapot_f`, ...).
pub fn short_name(benchmark: Benchmark) -> &'static str {
    match benchmark {
        Benchmark::Room3 => "room3",
        Benchmark::TeapotFull => "teapot_f",
        Benchmark::Quake => "quake",
        Benchmark::Massive11255 => "massive1",
        Benchmark::Massive32_11255 => "32massiv",
        Benchmark::Blowout775 => "blowout7",
        Benchmark::Truc640 => "truc640",
    }
}

/// Builds the paper's standard machine configuration.
///
/// # Panics
///
/// Panics on invalid parameter combinations (the sweeps only use valid
/// ones).
pub fn machine(
    procs: u32,
    dist: Distribution,
    cache: CacheKind,
    bus_ratio: Option<f64>,
    buffer: usize,
) -> MachineConfig {
    let mut b = MachineConfig::builder();
    b.processors(procs)
        .distribution(dist)
        .cache(cache)
        .triangle_buffer(buffer);
    match bus_ratio {
        Some(r) => b.bus_ratio(r),
        None => b.infinite_bus(),
    };
    b.build().expect("sweep configs are valid")
}

/// The distribution a figure column stands for: an SLI group size when
/// `sli`, else a block width.
pub fn distribution(param: u32, sli: bool) -> Distribution {
    if sli {
        Distribution::sli(param)
    } else {
        Distribution::block(param)
    }
}

/// The single-processor reference machine a figure's speedups are
/// measured against: block-16, the figure's cache and bus, the ideal
/// triangle buffer.
pub fn baseline_config(cache: CacheKind, bus_ratio: Option<f64>) -> MachineConfig {
    machine(1, Distribution::block(16), cache, bus_ratio, 10_000)
}

/// A speedup grid as one sweep job: the grid's configs plus the baseline
/// they are measured against.
///
/// When the grid already holds a config equal to the baseline, that cell
/// doubles as the baseline rather than being simulated twice (a duplicate
/// would also pull its plan group onto the sweep's captured path);
/// otherwise the baseline runs as the job's first config.
#[derive(Debug, Clone)]
pub struct SpeedupJob {
    configs: Vec<MachineConfig>,
    baseline: usize,
    grid_start: usize,
}

impl SpeedupJob {
    /// The job measuring every config of `grid` against `baseline`.
    pub fn new(baseline: MachineConfig, grid: Vec<MachineConfig>) -> Self {
        match grid.iter().position(|c| *c == baseline) {
            Some(index) => SpeedupJob {
                configs: grid,
                baseline: index,
                grid_start: 0,
            },
            None => {
                let mut configs = Vec::with_capacity(grid.len() + 1);
                configs.push(baseline);
                configs.extend(grid);
                SpeedupJob {
                    configs,
                    baseline: 0,
                    grid_start: 1,
                }
            }
        }
    }

    /// The configs to sweep.
    pub fn configs(&self) -> &[MachineConfig] {
        &self.configs
    }

    /// Every grid config's speedup over the baseline, in grid order, given
    /// the sweep's reports for [`SpeedupJob::configs`].
    pub fn speedups(&self, reports: &[RunReport]) -> Vec<f64> {
        let baseline = &reports[self.baseline];
        reports[self.grid_start..]
            .iter()
            .map(|r| r.speedup_vs(baseline))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_scene_has_fragments() {
        let p = PreparedScene::new(Benchmark::Quake, 0.1);
        assert!(p.stream.fragment_count() > 1000);
        assert_eq!(p.scene.name(), "quake");
    }

    #[test]
    fn short_names_are_unique() {
        let names: std::collections::HashSet<_> =
            Benchmark::ALL.iter().map(|&b| short_name(b)).collect();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn machine_helper_builds_infinite_bus() {
        let c = machine(4, Distribution::sli(2), CacheKind::PaperL1, None, 100);
        assert!(c.bus.is_infinite());
        assert_eq!(c.triangle_buffer, 100);
        let c2 = machine(4, Distribution::block(16), CacheKind::Perfect, Some(2.0), 10);
        assert_eq!(c2.bus.line_cost(), 8);
    }

    #[test]
    fn speedup_job_reuses_an_identical_grid_cell_as_baseline() {
        let base = baseline_config(CacheKind::Perfect, Some(1.0));
        let grid: Vec<MachineConfig> = [1u32, 4]
            .iter()
            .map(|&p| machine(p, Distribution::block(16), CacheKind::Perfect, Some(1.0), 10_000))
            .collect();
        let job = SpeedupJob::new(base.clone(), grid.clone());
        assert_eq!(job.configs(), &grid[..], "no duplicate baseline run");

        let other = vec![machine(4, Distribution::sli(2), CacheKind::Perfect, Some(1.0), 10_000)];
        let job = SpeedupJob::new(base.clone(), other.clone());
        assert_eq!(job.configs().len(), 2);
        assert_eq!(job.configs()[0], base, "the baseline runs first");
        assert_eq!(job.configs()[1], other[0]);
    }
}
