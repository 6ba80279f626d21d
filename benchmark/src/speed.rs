//! Host-speed calibration.
//!
//! A shared host's speed drifts: on a 2-vCPU Xeon VM a fixed loop took
//! between its best time and 1.7 times that, changing within seconds and
//! over minutes. The benchmark therefore times a fixed kernel between its
//! calls, on as many threads as the calls use, and divides every time it
//! reports by the run's slowdown: the median kernel time over
//! [`REFERENCE_NS`]. Reported times read as seconds on a host that runs
//! the kernel in 1 ms. A change to the simulator moves them; a change in
//! the host's speed moves the kernel too, and mostly cancels.

use crate::elapsed_ns;
use crate::stats::median;
use std::time::Instant;

/// The kernel time at which reported times equal measured ones.
pub const REFERENCE_NS: f64 = 1_000_000.0;

/// The kernel samples at most once per this many nanoseconds of wall
/// time, and then runs for about this share of the time since the last
/// sample, so every second of a run gets the same number of kernel runs
/// however long its calls are.
const INTERVAL_NS: u64 = 50_000_000;
const SHARE: f64 = 0.02;
const MAX_RUNS: u64 = 32;

/// Dependent steps of one kernel run; each is a load from a 64 KB table
/// (the L2 cache), a multiply and an add.
const STEPS: u64 = 150_000;
const TABLE_LEN: usize = 8192;

/// Kernel times sampled over one run.
#[derive(Debug)]
pub struct HostSpeed {
    threads: usize,
    table: Vec<u64>,
    samples: Vec<u64>,
    last: Option<Instant>,
}

impl HostSpeed {
    /// A sampler whose kernel runs on `threads` threads at once.
    pub fn new(threads: usize) -> Self {
        HostSpeed {
            threads: threads.max(1),
            table: (0..TABLE_LEN as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
            samples: Vec::new(),
            last: None,
        }
    }

    /// Times the kernel, unless it ran within the last 50 ms: once, or
    /// as often as fills 2% of the time since the last sample. Each run's
    /// time is the mean over the threads.
    pub fn sample(&mut self) {
        let since = self.last.map_or(0, elapsed_ns);
        if self.last.is_some() && since < INTERVAL_NS {
            return;
        }
        let last_ns = self.samples.last().copied().unwrap_or(u64::MAX);
        let runs = (since as f64 * SHARE / last_ns as f64).clamp(1.0, MAX_RUNS as f64) as u64;
        for _ in 0..runs {
            let table = &self.table;
            let total: u64 = std::thread::scope(|s| {
                let others: Vec<_> = (1..self.threads)
                    .map(|_| s.spawn(|| kernel(table)))
                    .collect();
                let own = kernel(table);
                own + others
                    .into_iter()
                    .map(|h| h.join().expect("the kernel does not panic"))
                    .sum::<u64>()
            });
            self.samples.push(total / self.threads as u64);
        }
        self.last = Some(Instant::now());
    }

    /// The median kernel time over [`REFERENCE_NS`]: 1.5 means the host
    /// ran the kernel at two thirds of the reference speed. 1 before the
    /// first sample.
    pub fn slowdown(&self) -> f64 {
        median(&self.samples).map_or(1.0, |ns| ns / REFERENCE_NS)
    }
}

/// One kernel run: its wall time in nanoseconds.
fn kernel(table: &[u64]) -> u64 {
    let start = Instant::now();
    let mask = table.len() - 1;
    let mut x = 1u64;
    for i in 0..STEPS {
        x = (x ^ table[(x >> 7) as usize & mask])
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(i);
    }
    std::hint::black_box(x);
    elapsed_ns(start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_rate_limited_and_the_slowdown_is_their_median() {
        let mut speed = HostSpeed::new(2);
        assert_eq!(speed.slowdown(), 1.0);
        speed.sample();
        speed.sample();
        assert_eq!(
            speed.samples.len(),
            1,
            "a second sample within 50 ms is skipped"
        );
        speed.samples = vec![3_000_000, 1_000_000, 2_000_000];
        assert_eq!(speed.slowdown(), 2.0);
    }
}
