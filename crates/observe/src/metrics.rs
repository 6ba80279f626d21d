//! Host-side metrics primitives: atomic counters, gauges and log2
//! histograms behind a name-keyed registry.
//!
//! The *simulated* machine already has exact cycle accounting
//! ([`crate::breakdown`]); this module is the equivalent substrate for the
//! *host* pipeline that runs the sweeps. Everything here is update-cheap
//! (one atomic RMW per event) and aggregation-lazy: percentiles and means
//! are derived at export time, never on the hot path.
//!
//! * [`Counter`] — monotonically increasing event count.
//! * [`Gauge`] — last-value / high-water mark (e.g. peak queue depth).
//! * [`Log2Histogram`] — fixed 65-bucket power-of-two histogram; bucket
//!   `k` holds values in `[2^(k-1), 2^k)` (bucket 0 holds zero). Exact
//!   count/sum/min/max ride along, so means are exact and percentiles are
//!   bucket-resolution approximations clamped into `[min, max]`.
//! * [`MetricsRegistry`] — `name -> metric` map. Registration takes a
//!   lock; updates through a held [`std::sync::Arc`] handle are lock-free,
//!   and the convenience `add`/`observe`/`gauge_set_max` entry points keep
//!   coarse-grained instrumentation sites to one line.
//!
//! # Examples
//!
//! ```
//! use sortmid_observe::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! reg.add("sweep.configs", 60);
//! reg.observe("host.run_ns", 1500);
//! reg.observe("host.run_ns", 90_000);
//! let hist = reg.histogram("host.run_ns");
//! assert_eq!(hist.count(), 2);
//! assert_eq!(hist.sum(), 91_500);
//! assert_eq!(reg.counter("sweep.configs").get(), 60);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::artifact::Schema;
use crate::record;
use sortmid_devharness::json::Json;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the count.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value / high-water gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Raises the value to `value` if it is higher (high-water semantics).
    #[inline]
    pub fn set_max(&self, value: u64) {
        self.value.fetch_max(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Bucket count of [`Log2Histogram`]: one per bit width of a `u64`, plus
/// the zero bucket.
pub const LOG2_BUCKETS: usize = 65;

/// A fixed-bucket power-of-two histogram with exact count/sum/min/max.
///
/// Values land in bucket `64 - leading_zeros(v)` (zero in bucket 0), so
/// recording is one shift-free classify plus one atomic add — cheap enough
/// to observe every per-config run of a sweep. Percentiles are answered at
/// bucket resolution (the upper edge of the rank's bucket, clamped to the
/// observed `[min, max]`), which is what a wall-time profile needs: "p99
/// is ~2x p50" survives the rounding, exact nanoseconds do not matter.
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; LOG2_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [const { AtomicU64::new(0) }; LOG2_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket a value lands in: 0 for zero, else `floor(log2(v)) + 1`.
#[inline]
pub fn log2_bucket(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.buckets[log2_bucket(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        match self.min.load(Ordering::Relaxed) {
            u64::MAX if self.count() == 0 => None,
            v => Some(v),
        }
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.max.load(Ordering::Relaxed))
        }
    }

    /// Exact mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        match self.count() {
            0 => None,
            n => Some(self.sum() as f64 / n as f64),
        }
    }

    /// Bucket-resolution percentile (`0.0 < pct <= 100.0`): the upper edge
    /// of the bucket holding the nearest-rank sample, clamped into the
    /// observed `[min, max]`. `None` when empty.
    pub fn percentile(&self, pct: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((pct / 100.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (k, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                // Upper edge of bucket k: 2^k - 1 (bucket 0 holds zero).
                // Wrapping on purpose: bucket 64 (values above 2^63) has
                // upper edge 2^64 - 1, which wraps exactly to u64::MAX.
                let edge =
                    if k == 0 { 0 } else { (1u64 << (k - 1)).wrapping_mul(2).wrapping_sub(1) };
                let lo = self.min().unwrap_or(0);
                let hi = self.max().unwrap_or(edge);
                return Some(edge.clamp(lo, hi));
            }
        }
        self.max()
    }

    /// Non-empty `(bucket index, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(k, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((k, n))
            })
            .collect()
    }

    /// Snapshot: exact stats, bucket-resolution p50/p90/p99, and the
    /// sparse bucket list.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let [p50, p90, p99] = [50.0, 90.0, 99.0].map(|p| self.percentile(p).unwrap_or(0));
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            p50,
            p90,
            p99,
            buckets: self
                .nonzero_buckets()
                .into_iter()
                .map(|(k, n)| (k as u64, n))
                .collect(),
        }
    }
}

record! {
    /// One histogram as a METRICS document records it: the exact stats,
    /// bucket-resolution percentiles and non-empty `[bucket, count]`
    /// pairs of a [`Log2Histogram`] (all zeros when empty).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct HistogramSnapshot {
        pub count: u64,
        pub sum: u64,
        pub min: u64,
        pub max: u64,
        pub p50: u64,
        pub p90: u64,
        pub p99: u64,
        pub buckets: Vec<(u64, u64)>,
    }
}

record! {
    /// A [`MetricsRegistry`] snapshot — counter values, gauge values and
    /// histogram snapshots, each name-sorted: the `metrics` object of a
    /// METRICS document.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct MetricsSnapshot {
        pub counters: BTreeMap<String, u64>,
        pub gauges: BTreeMap<String, u64>,
        pub histograms: BTreeMap<String, HistogramSnapshot>,
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Log2Histogram>),
}

/// A name-keyed registry of [`Counter`]s, [`Gauge`]s and
/// [`Log2Histogram`]s.
///
/// Names are registered on first use; asking for an existing name with a
/// different metric kind panics — a silent kind clash would split one
/// logical metric across two series.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registered on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric '{name}' is registered as a non-counter"),
        }
    }

    /// The gauge named `name`, registered on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric '{name}' is registered as a non-gauge"),
        }
    }

    /// The histogram named `name`, registered on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Arc<Log2Histogram> {
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Log2Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric '{name}' is registered as a non-histogram"),
        }
    }

    /// Adds `delta` to counter `name` (one-line instrumentation site).
    pub fn add(&self, name: &str, delta: u64) {
        self.counter(name).add(delta);
    }

    /// Records `value` into histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        self.histogram(name).observe(value);
    }

    /// Raises gauge `name` to `value` if higher.
    pub fn gauge_set_max(&self, name: &str, value: u64) {
        self.gauge(name).set_max(value);
    }

    /// Snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.inner.lock().expect("metrics registry poisoned");
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in map.iter() {
            let name = name.clone();
            match metric {
                Metric::Counter(c) => _ = snap.counters.insert(name, c.get()),
                Metric::Gauge(g) => _ = snap.gauges.insert(name, g.get()),
                Metric::Histogram(h) => _ = snap.histograms.insert(name, h.snapshot()),
            }
        }
        snap
    }

    /// [`snapshot`](Self::snapshot) as JSON.
    pub fn to_json(&self) -> Json {
        Schema::to_json(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_bucket_edges() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(1023), 10);
        assert_eq!(log2_bucket(1024), 11);
        assert_eq!(log2_bucket(u64::MAX), 64);
    }

    #[test]
    fn histogram_tracks_exact_stats() {
        let h = Log2Histogram::new();
        assert_eq!(h.percentile(50.0), None);
        for v in [0u64, 1, 100, 1000, 100_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 101_101);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(100_000));
        assert_eq!(h.mean(), Some(101_101.0 / 5.0));
    }

    #[test]
    fn percentiles_are_bucket_resolution_and_clamped() {
        let h = Log2Histogram::new();
        for _ in 0..99 {
            h.observe(1000); // bucket 10, upper edge 1023
        }
        h.observe(1_000_000); // bucket 20
        let p50 = h.percentile(50.0).unwrap();
        assert!((1000..=1023).contains(&p50), "{p50}");
        // p99 rank (ceil(0.99*100)=99) still lands in the 1000s bucket;
        // p100 would reach the outlier.
        let p99 = h.percentile(99.0).unwrap();
        assert!(p99 <= 1023, "{p99}");
        assert_eq!(h.percentile(100.0), Some(1_000_000));
        // A one-value histogram clamps every percentile to that value.
        let one = Log2Histogram::new();
        one.observe(777);
        assert_eq!(one.percentile(1.0), Some(777));
        assert_eq!(one.percentile(99.0), Some(777));
    }

    #[test]
    fn registry_registers_on_first_use_and_snapshots() {
        let reg = MetricsRegistry::new();
        reg.add("a.count", 2);
        reg.add("a.count", 3);
        reg.gauge_set_max("b.peak", 10);
        reg.gauge_set_max("b.peak", 7);
        reg.observe("c.ns", 128);
        assert_eq!(reg.counter("a.count").get(), 5);
        assert_eq!(reg.gauge("b.peak").get(), 10);
        let doc = reg.to_json();
        assert_eq!(
            doc.get("counters").and_then(|c| c.get("a.count")).and_then(Json::as_u64),
            Some(5)
        );
        assert_eq!(
            doc.get("gauges").and_then(|g| g.get("b.peak")).and_then(Json::as_u64),
            Some(10)
        );
        assert_eq!(
            doc.get("histograms")
                .and_then(|h| h.get("c.ns"))
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64),
            Some(1)
        );
        // The snapshot renders and parses through the devharness reader.
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn kind_clash_panics() {
        let reg = MetricsRegistry::new();
        reg.observe("x", 1);
        reg.add("x", 1);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let reg = MetricsRegistry::new();
        let counter = reg.counter("hits");
        let hist = reg.histogram("ns");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1000u64 {
                        counter.inc();
                        hist.observe(i);
                    }
                });
            }
        });
        assert_eq!(counter.get(), 4000);
        assert_eq!(hist.count(), 4000);
        assert_eq!(hist.sum(), 4 * (999 * 1000 / 2));
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = Log2Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        for pct in [0.001, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(h.percentile(pct), None, "p{pct} of nothing");
        }
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn single_sample_pins_every_percentile_to_it() {
        let h = Log2Histogram::new();
        h.observe(37);
        assert_eq!((h.count(), h.sum()), (1, 37));
        assert_eq!((h.min(), h.max()), (Some(37), Some(37)));
        // The bucket edge (63) clamps into the observed range [37, 37].
        for pct in [0.001, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(pct), Some(37), "p{pct} of a singleton");
        }
    }

    #[test]
    fn all_samples_in_one_bucket_clamp_to_the_observed_range() {
        let h = Log2Histogram::new();
        // 1000..=1023 all land in bucket 10 (edge 1023).
        for v in 1000..=1023 {
            h.observe(v);
        }
        assert_eq!(h.nonzero_buckets(), vec![(10, 24)]);
        // Every percentile resolves to the bucket edge, clamped by max.
        assert_eq!(h.percentile(1.0), Some(1023));
        assert_eq!(h.percentile(50.0), Some(1023));
        assert_eq!(h.percentile(100.0), Some(1023));
    }

    #[test]
    fn u64_max_lands_in_the_last_bucket_without_overflow() {
        let h = Log2Histogram::new();
        h.observe(u64::MAX);
        h.observe(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), u64::MAX); // MAX + 0, no wrap
        assert_eq!((h.min(), h.max()), (Some(0), Some(u64::MAX)));
        // Bucket 0 holds the zero; bucket 64's upper edge is u64::MAX
        // and the edge arithmetic must not overflow computing it.
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (64, 1)]);
        assert_eq!(h.percentile(50.0), Some(0));
        assert_eq!(h.percentile(100.0), Some(u64::MAX));
    }
}
