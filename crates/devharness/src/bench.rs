//! Criterion-style bench runner with machine-readable output.
//!
//! A [`Suite`] groups named benchmarks; each benchmark runs a warmup, then N
//! timed iterations, and reports median/min/MAD plus the p10/p50/p90/p99
//! percentile ladder of wall time, with optional throughput, printing one
//! line per benchmark. The `BENCH_<name>.json` document a suite becomes is
//! declared and written by `sortmid-bench`.
//!
//! Environment knobs:
//!
//! * `SORTMID_BENCH_SAMPLES` — timed iterations per benchmark (default 10);
//! * `SORTMID_BENCH_WARMUP` — warmup iterations (default 2).

use std::hint::black_box;
use std::time::Instant;

/// Per-suite run parameters.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Untimed warmup iterations before sampling.
    pub warmup_iters: u32,
    /// Timed iterations per benchmark.
    pub samples: u32,
}

impl BenchConfig {
    /// Defaults (2 warmup, 10 samples) overridden by the environment.
    pub fn from_env() -> Self {
        let get = |key: &str, default: u32| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .filter(|&v| v > 0)
                .unwrap_or(default)
        };
        BenchConfig {
            warmup_iters: get("SORTMID_BENCH_WARMUP", 2),
            samples: get("SORTMID_BENCH_SAMPLES", 10),
        }
    }
}

/// One benchmark's measurements, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark id within the suite (e.g. `"imbalance/block-16/64p"`).
    pub id: String,
    /// Raw per-iteration wall times, in sample order.
    pub samples_ns: Vec<u64>,
    /// Median of `samples_ns`.
    pub median_ns: u64,
    /// 10th percentile (nearest-rank).
    pub p10_ns: u64,
    /// 90th percentile (nearest-rank).
    pub p90_ns: u64,
    /// 99th percentile (nearest-rank) — the tail-latency figure; with
    /// fewer than 100 samples this is the slowest sample.
    pub p99_ns: u64,
    /// Fastest sample — the least-perturbed iteration on a noisy host.
    pub min_ns: u64,
    /// Median absolute deviation from the median: a robust spread measure
    /// (outlier samples cannot inflate it the way a standard deviation
    /// would).
    pub mad_ns: u64,
    /// Elements processed per iteration, when declared.
    pub elements: Option<u64>,
}

impl BenchResult {
    /// Median throughput in elements per second, when declared.
    ///
    /// For fragment-processing benches this is the *fragments/sec* figure
    /// the perf trajectory tracks.
    pub fn throughput_per_sec(&self) -> Option<f64> {
        let elements = self.elements?;
        if self.median_ns == 0 {
            return None;
        }
        Some(elements as f64 * 1e9 / self.median_ns as f64)
    }
}

/// Nearest-rank percentile of an unsorted sample set.
fn percentile(sorted: &[u64], pct: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A named collection of benchmarks, one `BENCH_<name>.json` suite.
///
/// # Examples
///
/// ```
/// use sortmid_devharness::bench::Suite;
///
/// let mut suite = Suite::new("doc-example");
/// suite.bench("sum-1k", || (0..1000u64).sum::<u64>());
/// let result = suite.results().last().unwrap();
/// assert!(result.median_ns > 0 || result.samples_ns.iter().all(|&s| s == 0));
/// ```
#[derive(Debug)]
pub struct Suite {
    name: String,
    config: BenchConfig,
    results: Vec<BenchResult>,
}

impl Suite {
    /// A suite named `name` with [`BenchConfig::from_env`] parameters.
    pub fn new(name: &str) -> Self {
        Suite {
            name: name.to_string(),
            config: BenchConfig::from_env(),
            results: Vec::new(),
        }
    }

    /// A suite with explicit parameters (tests use this).
    pub fn with_config(name: &str, config: BenchConfig) -> Self {
        Suite {
            name: name.to_string(),
            config,
            results: Vec::new(),
        }
    }

    /// The suite's name (`BENCH_<name>.json`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The suite's run parameters.
    pub fn config(&self) -> &BenchConfig {
        &self.config
    }

    /// Results measured so far, in registration order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Measures `f` (warmup, then N timed iterations) under `id`.
    pub fn bench<R>(&mut self, id: &str, f: impl FnMut() -> R) -> &BenchResult {
        self.run(id, None, 1, f)
    }

    /// Like [`Suite::bench`] with a declared per-iteration element count,
    /// enabling the throughput (elements/sec) column.
    pub fn bench_with_elements<R>(
        &mut self,
        id: &str,
        elements: u64,
        f: impl FnMut() -> R,
    ) -> &BenchResult {
        self.run(id, Some(elements), 1, f)
    }

    /// Like [`Suite::bench_with_elements`] with the suite's sample count
    /// multiplied by `scale` (0 behaves as 1). For lanes noisier than the
    /// rest of the suite: extra samples tighten their median/MAD estimate
    /// without slowing every other lane down.
    pub fn bench_with_elements_scaled<R>(
        &mut self,
        id: &str,
        elements: u64,
        scale: u32,
        f: impl FnMut() -> R,
    ) -> &BenchResult {
        self.run(id, Some(elements), scale.max(1), f)
    }

    fn run<R>(
        &mut self,
        id: &str,
        elements: Option<u64>,
        scale: u32,
        mut f: impl FnMut() -> R,
    ) -> &BenchResult {
        for _ in 0..self.config.warmup_iters {
            black_box(f());
        }
        let samples = self.config.samples.saturating_mul(scale);
        let mut samples_ns = Vec::with_capacity(samples as usize);
        for _ in 0..samples {
            let start = Instant::now();
            black_box(f());
            samples_ns.push(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        let mut sorted = samples_ns.clone();
        sorted.sort_unstable();
        let median_ns = percentile(&sorted, 50.0);
        let mut deviations: Vec<u64> = sorted.iter().map(|&s| s.abs_diff(median_ns)).collect();
        deviations.sort_unstable();
        let result = BenchResult {
            id: id.to_string(),
            median_ns,
            p10_ns: percentile(&sorted, 10.0),
            p90_ns: percentile(&sorted, 90.0),
            p99_ns: percentile(&sorted, 99.0),
            min_ns: sorted[0],
            mad_ns: percentile(&deviations, 50.0),
            samples_ns,
            elements,
        };
        eprintln!(
            "bench {}/{id}: median {} (min {}, mad {}, p10 {}, p90 {}, p99 {}){}",
            self.name,
            fmt_ns(result.median_ns),
            fmt_ns(result.min_ns),
            fmt_ns(result.mad_ns),
            fmt_ns(result.p10_ns),
            fmt_ns(result.p90_ns),
            fmt_ns(result.p99_ns),
            result
                .throughput_per_sec()
                .map(|t| format!(", {:.3e} elem/s", t))
                .unwrap_or_default(),
        );
        self.results.push(result);
        self.results.last().expect("just pushed")
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_config() -> BenchConfig {
        BenchConfig {
            warmup_iters: 1,
            samples: 5,
        }
    }

    #[test]
    fn measures_and_orders_percentiles() {
        let mut suite = Suite::with_config("unit", quiet_config());
        let r = suite.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        assert_eq!(r.samples_ns.len(), 5);
        assert!(r.min_ns <= r.p10_ns);
        assert!(r.p10_ns <= r.median_ns);
        assert!(r.median_ns <= r.p90_ns);
        assert!(r.p90_ns <= r.p99_ns);
        assert_eq!(r.p99_ns, *r.samples_ns.iter().max().unwrap(), "p99 of 5 samples is the max");
        assert!(r.mad_ns <= r.p90_ns.saturating_sub(r.p10_ns).max(r.median_ns));
    }

    #[test]
    fn min_and_mad_are_robust_to_one_outlier() {
        // Hand-check the spread stats on a known sample set: the single
        // outlier moves neither the median nor the MAD.
        let sorted = [10u64, 11, 12, 13, 1000];
        let median = percentile(&sorted, 50.0);
        assert_eq!(median, 12);
        let mut dev: Vec<u64> = sorted.iter().map(|&s| s.abs_diff(median)).collect();
        dev.sort_unstable();
        assert_eq!(percentile(&dev, 50.0), 1);
        assert_eq!(sorted[0], 10);
    }

    #[test]
    fn scaled_lanes_take_multiplied_samples() {
        let mut suite = Suite::with_config("scaled", quiet_config());
        let r = suite.bench_with_elements_scaled("noisy", 10, 3, || 1 + 1);
        assert_eq!(r.samples_ns.len(), 15, "scale multiplies the suite sample count");
        let r = suite.bench_with_elements_scaled("degenerate", 10, 0, || 1 + 1);
        assert_eq!(r.samples_ns.len(), 5, "scale 0 behaves as 1");
        let r = suite.bench_with_elements("plain", 10, || 1 + 1);
        assert_eq!(r.samples_ns.len(), 5, "unscaled lanes are untouched");
    }

    #[test]
    fn throughput_uses_median() {
        let r = BenchResult {
            id: "x".into(),
            samples_ns: vec![2_000_000; 3],
            median_ns: 2_000_000,
            p10_ns: 2_000_000,
            p90_ns: 2_000_000,
            p99_ns: 2_000_000,
            min_ns: 2_000_000,
            mad_ns: 0,
            elements: Some(1_000),
        };
        let tput = r.throughput_per_sec().unwrap();
        assert!((tput - 500_000.0).abs() < 1e-6, "{tput}");
    }

    #[test]
    fn percentile_nearest_rank() {
        let s = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&s, 10.0), 10);
        assert_eq!(percentile(&s, 50.0), 30);
        assert_eq!(percentile(&s, 90.0), 50);
        assert_eq!(percentile(&s, 99.0), 50);
        assert_eq!(percentile(&[7], 50.0), 7);
    }
}
