//! Host-side profiling: hierarchical phase spans, per-worker utilization
//! and a merged [`HostProfile`] artefact.
//!
//! PRs 3–4 made the *simulated* machine observable; this module does the
//! same for the *host* pipeline that runs the sweeps (plan build, batch
//! pivot, lane construction, trace capture, stack-distance evaluation,
//! per-config timing synthesis). It mirrors the established patterns:
//!
//! * the **NullSink pattern** — instrumented code is generic over
//!   [`HostSink`]; [`NullHostSink`] has `ENABLED == false`, every call
//!   site guards on the constant, and the unprofiled pipeline
//!   monomorphizes to exactly the pre-instrumentation code (the sweep
//!   bench's regression gate keeps this honest);
//! * the **accounting identity** — each worker thread reports
//!   `busy + idle == wall` *exactly* (idle is derived, the invariant is
//!   enforced by construction and re-checked by `bench_check`), mirroring
//!   PR 3's five-way cycle identity;
//! * the **artefact contract** — [`HostProfile::document`] emits the
//!   [`MetricsDoc`] behind `METRICS_sweep.json`, and
//!   [`chrome_trace_with_host`](crate::perfetto::chrome_trace_with_host)
//!   renders the same spans as wall-time tracks next to the simulated
//!   cycle tracks in one Perfetto document.
//!
//! Spans are coarse (pipeline phases, not per-fragment events): a profiled
//! sweep records tens of spans, so the mutex-guarded span table is nowhere
//! near any hot path.
//!
//! # Examples
//!
//! ```
//! use sortmid_observe::{HostProfiler, HostSink};
//!
//! let prof = HostProfiler::new();
//! {
//!     let _outer = prof.span("plan-build");
//!     let _inner = prof.span("owner-lut");
//! } // guards close in reverse order
//! prof.worker("run-configs", 0, 1_000, 600, 4);
//! let profile = prof.finish();
//! profile.verify().unwrap();
//! assert_eq!(profile.spans.len(), 2);
//! assert_eq!(profile.workers[0].idle_ns(), 400);
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use crate::artifact::{Artifact, Schema};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::provenance::Provenance;
use crate::record;
use sortmid_devharness::json::Json;

/// A consumer of host-profiling events. Instrumented pipelines are generic
/// over this; [`NullHostSink`] folds every call away.
pub trait HostSink: Sync {
    /// Whether this sink observes anything. Call sites guard timing and
    /// event construction on this constant, so it folds at
    /// monomorphization time.
    const ENABLED: bool = true;

    /// Opens a span named `name` on the calling thread; returns a token
    /// for [`span_end`](Self::span_end).
    fn span_begin(&self, name: &'static str) -> usize;

    /// Closes the span `token` (must be the innermost open span of the
    /// calling thread).
    fn span_end(&self, token: usize);

    /// Adds `delta` to the counter metric `name`.
    fn count(&self, name: &'static str, delta: u64);

    /// Records `value` into the histogram metric `name`.
    fn observe(&self, name: &'static str, value: u64);

    /// Raises the gauge metric `name` to at least `value` (a high-water
    /// mark — the sweep scheduler reports per-worker queue depths this
    /// way).
    fn gauge_max(&self, name: &'static str, value: u64);

    /// Reports one worker thread's utilization for pipeline stage `lane`:
    /// `busy_ns` of item work inside a `wall_ns` window over `items`
    /// items. Implementations must preserve `busy <= wall` so the
    /// `busy + idle == wall` identity holds exactly.
    fn worker(&self, lane: &'static str, worker: u32, wall_ns: u64, busy_ns: u64, items: u64);

    /// RAII span guard: opens now, closes on drop. With a disabled sink
    /// this constructs nothing and compiles to nothing.
    fn span(&self, name: &'static str) -> HostSpan<'_, Self>
    where
        Self: Sized,
    {
        HostSpan::enter(self, name)
    }
}

/// The no-op host sink: unprofiled pipelines monomorphize through this.
///
/// # Examples
///
/// ```
/// use sortmid_observe::{HostSink, NullHostSink};
///
/// assert!(!NullHostSink::ENABLED);
/// let _span = NullHostSink.span("anything"); // compiles to nothing
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NullHostSink;

impl HostSink for NullHostSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn span_begin(&self, _name: &'static str) -> usize {
        0
    }

    #[inline(always)]
    fn span_end(&self, _token: usize) {}

    #[inline(always)]
    fn count(&self, _name: &'static str, _delta: u64) {}

    #[inline(always)]
    fn observe(&self, _name: &'static str, _value: u64) {}

    #[inline(always)]
    fn gauge_max(&self, _name: &'static str, _value: u64) {}

    #[inline(always)]
    fn worker(&self, _lane: &'static str, _worker: u32, _wall_ns: u64, _busy_ns: u64, _items: u64) {
    }
}

/// RAII guard of one open phase span (see [`HostSink::span`]).
#[must_use = "dropping the guard immediately closes the span"]
pub struct HostSpan<'a, S: HostSink> {
    sink: &'a S,
    token: usize,
}

impl<'a, S: HostSink> HostSpan<'a, S> {
    /// Opens a span on `sink` (no-op when `S::ENABLED` is false).
    pub fn enter(sink: &'a S, name: &'static str) -> Self {
        let token = if S::ENABLED { sink.span_begin(name) } else { 0 };
        HostSpan { sink, token }
    }
}

impl<S: HostSink> Drop for HostSpan<'_, S> {
    fn drop(&mut self) {
        if S::ENABLED {
            self.sink.span_end(self.token);
        }
    }
}

/// One closed phase span: where, when, and how deep in its thread's stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name (static: spans name pipeline stages, not data).
    pub name: &'static str,
    /// Dense host-thread lane (0 = first thread the profiler saw).
    pub thread: u32,
    /// Nesting depth on that thread (0 = thread root).
    pub depth: u32,
    /// Index of the enclosing span in the profile, when nested.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the profiler was created.
    pub start_ns: u64,
    /// End, nanoseconds since the profiler was created.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One worker thread's utilization in a parallel pipeline stage, with the
/// exact identity `busy + idle == wall` (idle is derived, never measured).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// The pipeline stage the worker served (e.g. `"run-configs"`).
    pub lane: &'static str,
    /// Worker index within the stage.
    pub worker: u32,
    /// Wall time of the worker's whole window, nanoseconds.
    pub wall_ns: u64,
    /// Time inside item work, nanoseconds (`<= wall_ns`).
    pub busy_ns: u64,
    /// Items the worker processed.
    pub items: u64,
}

impl WorkerStats {
    /// Wall time outside item work: `wall - busy`, so
    /// `busy + idle == wall` holds exactly by construction.
    pub fn idle_ns(&self) -> u64 {
        self.wall_ns - self.busy_ns
    }

    /// Busy fraction of the wall window (1.0 for an empty window).
    pub fn utilization(&self) -> f64 {
        if self.wall_ns == 0 {
            1.0
        } else {
            self.busy_ns as f64 / self.wall_ns as f64
        }
    }
}

/// Per-thread open-span bookkeeping.
#[derive(Debug, Default)]
struct ProfState {
    spans: Vec<SpanRecord>,
    threads: Vec<ThreadId>,
    stacks: Vec<Vec<usize>>,
    workers: Vec<WorkerStats>,
}

impl ProfState {
    fn lane(&mut self, id: ThreadId) -> usize {
        match self.threads.iter().position(|&t| t == id) {
            Some(lane) => lane,
            None => {
                self.threads.push(id);
                self.stacks.push(Vec::new());
                self.threads.len() - 1
            }
        }
    }
}

/// The recording [`HostSink`]: hierarchical spans with per-thread stacks,
/// worker utilization, and a [`MetricsRegistry`] for counters/histograms.
///
/// Threads need no registration — the first span or metric from a thread
/// assigns it a dense lane id. [`finish`](Self::finish) seals the profile.
#[derive(Debug)]
pub struct HostProfiler {
    origin: Instant,
    state: Mutex<ProfState>,
    metrics: MetricsRegistry,
}

impl Default for HostProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProfiler {
    /// An empty profiler; the clock starts now.
    pub fn new() -> Self {
        HostProfiler {
            origin: Instant::now(),
            state: Mutex::new(ProfState::default()),
            metrics: MetricsRegistry::new(),
        }
    }

    /// The profiler's metrics registry (counters, gauges, histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Seals the profile: snapshots metrics, captures the peak resident
    /// set, and returns the merged [`HostProfile`].
    ///
    /// # Panics
    ///
    /// Panics if any span is still open — a leaked guard is an
    /// instrumentation bug, and an open span would break the nesting
    /// invariants `bench_check` enforces.
    pub fn finish(self) -> HostProfile {
        let state = self.state.into_inner().expect("host profiler poisoned");
        for (lane, stack) in state.stacks.iter().enumerate() {
            assert!(
                stack.is_empty(),
                "host profiler finished with {} open span(s) on thread lane {lane} \
                 (innermost: '{}')",
                stack.len(),
                state.spans[*stack.last().unwrap()].name,
            );
        }
        HostProfile {
            spans: state.spans,
            workers: state.workers,
            metrics: self.metrics.to_json(),
            peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
        }
    }
}

impl HostSink for HostProfiler {
    fn span_begin(&self, name: &'static str) -> usize {
        let mut state = self.state.lock().expect("host profiler poisoned");
        // Timestamp under the lock so a sibling can never observe this
        // span starting before the previous one ended.
        let now = self.now_ns();
        let lane = state.lane(std::thread::current().id());
        let parent = state.stacks[lane].last().map(|&i| i as u32);
        let depth = state.stacks[lane].len() as u32;
        let token = state.spans.len();
        state.spans.push(SpanRecord {
            name,
            thread: lane as u32,
            depth,
            parent,
            start_ns: now,
            end_ns: u64::MAX,
        });
        state.stacks[lane].push(token);
        token
    }

    fn span_end(&self, token: usize) {
        let mut state = self.state.lock().expect("host profiler poisoned");
        let now = self.now_ns();
        let lane = state.spans[token].thread as usize;
        let top = state.stacks[lane].pop();
        assert_eq!(
            top,
            Some(token),
            "span '{}' closed out of nesting order",
            state.spans[token].name,
        );
        state.spans[token].end_ns = now.max(state.spans[token].start_ns);
    }

    fn count(&self, name: &'static str, delta: u64) {
        self.metrics.add(name, delta);
    }

    fn observe(&self, name: &'static str, value: u64) {
        self.metrics.observe(name, value);
    }

    fn gauge_max(&self, name: &'static str, value: u64) {
        self.metrics.gauge_set_max(name, value);
    }

    fn worker(&self, lane: &'static str, worker: u32, wall_ns: u64, busy_ns: u64, items: u64) {
        let mut state = self.state.lock().expect("host profiler poisoned");
        state.workers.push(WorkerStats {
            lane,
            worker,
            // Clamp so the derived idle can never underflow: busy is a sum
            // of disjoint sub-intervals of the wall window, but we defend
            // against caller timing mistakes rather than corrupt the
            // identity.
            wall_ns: wall_ns.max(busy_ns),
            busy_ns,
            items,
        });
    }
}

/// A sealed host profile: spans, worker utilization, metrics snapshot and
/// peak resident memory — what `METRICS_sweep.json` serializes.
#[derive(Debug, Clone)]
pub struct HostProfile {
    /// Every closed span, in open order.
    pub spans: Vec<SpanRecord>,
    /// Worker utilization records, in report order.
    pub workers: Vec<WorkerStats>,
    /// Metrics snapshot ([`MetricsRegistry::to_json`] shape).
    pub metrics: Json,
    /// Peak resident set size in bytes (0 when the platform offers none).
    pub peak_rss_bytes: u64,
}

impl HostProfile {
    /// Inclusive/self durations aggregated by phase name, name-sorted.
    pub fn phase_totals(&self) -> Vec<PhaseRow> {
        let mut child_ns: Vec<u64> = vec![0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.dur_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, PhaseRow> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let t = totals.entry(span.name).or_insert_with(|| PhaseRow {
                name: span.name.to_string(),
                ..PhaseRow::default()
            });
            t.count += 1;
            t.total_ns += span.dur_ns();
            t.self_ns += span.dur_ns().saturating_sub(child_ns[i]);
        }
        totals.into_values().collect()
    }

    /// The distinct phase names, name-sorted.
    pub fn phase_names(&self) -> Vec<&'static str> {
        let names: BTreeSet<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.into_iter().collect()
    }

    /// Per-lane worker-utilization imbalance: `(max − min busy) / max
    /// wall` across the lane's workers (records of one worker summed
    /// first), in `[0, 1]` by the `busy <= wall` identity.
    ///
    /// `0` means every worker carried the same load; a static chunked
    /// schedule over heterogeneous work shows up as a large value (the
    /// fast chunks idle while the slow chunk sets the wall), which is
    /// exactly what the sweep's work-stealing scheduler is measured
    /// against in `METRICS_sweep.json`.
    pub fn utilization_imbalance(&self) -> BTreeMap<String, f64> {
        let mut lanes: BTreeMap<&'static str, BTreeMap<u32, (u64, u64)>> = BTreeMap::new();
        for w in &self.workers {
            let (busy, wall) = lanes.entry(w.lane).or_default().entry(w.worker).or_default();
            *busy += w.busy_ns;
            *wall += w.wall_ns;
        }
        lanes
            .into_iter()
            .map(|(lane, workers)| {
                let max_wall = workers.values().map(|&(_, wall)| wall).max().unwrap_or(0);
                let max_busy = workers.values().map(|&(busy, _)| busy).max().unwrap_or(0);
                let min_busy = workers.values().map(|&(busy, _)| busy).min().unwrap_or(0);
                let imbalance = if max_wall == 0 {
                    0.0
                } else {
                    (max_busy - min_busy) as f64 / max_wall as f64
                };
                (lane.to_string(), imbalance)
            })
            .collect()
    }

    /// Checks every structural invariant the artefact schema promises:
    ///
    /// * every span closed, with `end >= start`;
    /// * children open and close inside their parent, on its thread;
    /// * siblings (same thread, same parent) never overlap;
    /// * every worker satisfies `busy <= wall` (so `busy + idle == wall`).
    ///
    /// # Errors
    ///
    /// Returns every violated invariant, `; `-joined.
    pub fn verify(&self) -> Result<(), String> {
        for (i, span) in self.spans.iter().enumerate() {
            if span.end_ns == u64::MAX {
                return Err(format!("span #{i} '{}' was never closed", span.name));
            }
            if span.end_ns < span.start_ns {
                return Err(format!("span #{i} '{}' ends before it starts", span.name));
            }
        }
        let (spans, workers) = self.rows();
        let problems = check_rows(&spans, &workers);
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }

    /// The spans and workers as METRICS document rows.
    fn rows(&self) -> (Vec<SpanRow>, Vec<WorkerRow>) {
        let spans = self.spans.iter().map(|s| SpanRow {
            name: s.name.to_string(),
            thread: s.thread.into(),
            depth: s.depth.into(),
            parent: s.parent.map(u64::from),
            start_ns: s.start_ns,
            dur_ns: s.dur_ns(),
        });
        let workers = self.workers.iter().map(|w| WorkerRow {
            lane: w.lane.to_string(),
            worker: w.worker.into(),
            wall_ns: w.wall_ns,
            busy_ns: w.busy_ns,
            // Saturating, so a record with busy > wall fails the identity
            // check instead of panicking here.
            idle_ns: w.wall_ns.saturating_sub(w.busy_ns),
            items: w.items,
        });
        (spans.collect(), workers.collect())
    }

    /// The profile as the `METRICS_<name>.json` document `name`.
    ///
    /// # Panics
    ///
    /// Panics if [`metrics`](Self::metrics) is not a
    /// [`MetricsRegistry`] snapshot.
    pub fn document(&self, name: &str, provenance: Provenance) -> MetricsDoc {
        let (spans, workers) = self.rows();
        MetricsDoc {
            profile: name.to_string(),
            peak_rss_bytes: self.peak_rss_bytes,
            spans,
            workers,
            utilization_imbalance: self.utilization_imbalance(),
            phases: self.phase_totals(),
            metrics: MetricsSnapshot::from_json(&self.metrics)
                .expect("a host profile's metrics are a registry snapshot"),
            provenance,
        }
    }

    /// A compact terminal summary: top phases by self time, worker
    /// utilization, peak RSS.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let mut phases = self.phase_totals();
        phases.sort_by_key(|t| std::cmp::Reverse(t.self_ns));
        out.push_str("host phases (by self time):\n");
        for t in phases.iter().take(12) {
            out.push_str(&format!(
                "  {:16} x{:<4} total {:>10.3} ms, self {:>10.3} ms\n",
                t.name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
            ));
        }
        if !self.workers.is_empty() {
            let busy: u64 = self.workers.iter().map(|w| w.busy_ns).sum();
            let wall: u64 = self.workers.iter().map(|w| w.wall_ns).sum();
            out.push_str(&format!(
                "workers: {} records, {:.0}% mean utilization ({:.3} ms busy / {:.3} ms wall)\n",
                self.workers.len(),
                if wall == 0 { 100.0 } else { busy as f64 * 100.0 / wall as f64 },
                busy as f64 / 1e6,
                wall as f64 / 1e6,
            ));
        }
        if self.peak_rss_bytes > 0 {
            out.push_str(&format!(
                "peak rss: {:.1} MiB\n",
                self.peak_rss_bytes as f64 / (1024.0 * 1024.0)
            ));
        }
        out
    }
}

/// The span-tree and worker invariants shared by [`HostProfile::verify`]
/// and [`MetricsDoc`]'s `verify`: spans nest inside their parent on its
/// thread, siblings never overlap, and every worker satisfies
/// `busy + idle == wall` exactly.
fn check_rows(spans: &[SpanRow], workers: &[WorkerRow]) -> Vec<String> {
    let mut problems = Vec::new();
    // The decoder rejects spans whose end overflows.
    let end = |s: &SpanRow| s.start_ns.saturating_add(s.dur_ns);
    for (i, span) in spans.iter().enumerate() {
        let Some(p) = span.parent else { continue };
        let name = &span.name;
        let Some(parent) = spans.get(p as usize) else {
            problems.push(format!("spans[{i}] '{name}': parent index {p} out of range"));
            continue;
        };
        if parent.thread != span.thread {
            let parent = &parent.name;
            problems.push(format!("spans[{i}] '{name}': crosses threads (parent '{parent}')"));
        }
        if span.start_ns < parent.start_ns || end(span) > end(parent) {
            problems.push(format!(
                "spans[{i}] '{name}': [{}, {}] escapes parent '{}' [{}, {}]",
                span.start_ns,
                end(span),
                parent.name,
                parent.start_ns,
                end(parent)
            ));
        }
    }
    // Siblings (same thread, same parent) must not overlap.
    type Siblings<'a> = Vec<(u64, u64, &'a str)>;
    let mut groups: BTreeMap<(u64, Option<u64>), Siblings> = BTreeMap::new();
    for span in spans {
        groups
            .entry((span.thread, span.parent))
            .or_default()
            .push((span.start_ns, end(span), &span.name));
    }
    for ((thread, _), mut siblings) in groups {
        siblings.sort_unstable();
        for pair in siblings.windows(2) {
            if pair[1].0 < pair[0].1 {
                problems.push(format!(
                    "spans '{}' and '{}' overlap on thread {thread}",
                    pair[0].2, pair[1].2
                ));
            }
        }
    }
    for (i, w) in workers.iter().enumerate() {
        if w.busy_ns.checked_add(w.idle_ns) != Some(w.wall_ns) {
            problems.push(format!(
                "workers[{i}] ({}/{}): utilization identity broken: \
                 busy {} + idle {} != wall {}",
                w.lane, w.worker, w.busy_ns, w.idle_ns, w.wall_ns
            ));
        }
    }
    problems
}

record! {
    /// One span row of a METRICS document: a [`SpanRecord`] with its
    /// duration in place of its end.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SpanRow {
        pub name: String,
        pub thread: u64,
        pub depth: u64,
        pub parent: Option<u64>,
        pub start_ns: u64,
        pub dur_ns: u64,
    }
    check |s: &SpanRow| match s.start_ns.checked_add(s.dur_ns) {
        Some(_) => Ok(()),
        None => Err(format!("start_ns {} + dur_ns {} overflows u64", s.start_ns, s.dur_ns)),
    };
}

record! {
    /// One worker row of a METRICS document: a [`WorkerStats`] with its
    /// recorded `idle_ns`, so `busy + idle == wall` can be checked.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WorkerRow {
        pub lane: String,
        pub worker: u64,
        pub wall_ns: u64,
        pub busy_ns: u64,
        pub idle_ns: u64,
        pub items: u64,
    }
}

record! {
    /// One phase aggregated across a profile: the spans carrying its
    /// name, their total inclusive duration, and that total minus their
    /// direct children (self time).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct PhaseRow {
        pub name: String,
        pub count: u64,
        pub total_ns: u64,
        pub self_ns: u64,
    }
}

record! {
    /// A `METRICS_<name>.json` document: one host profile, emitted from a
    /// [`HostProfile`] — its name (`sweep` for the sweep bench's), peak
    /// resident set in bytes, spans in open order, worker rows in report
    /// order, per-lane utilization imbalance in `[0, 1]`, name-sorted
    /// phase totals, and the metrics snapshot.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MetricsDoc {
        pub profile: String,
        pub peak_rss_bytes: u64,
        pub spans: Vec<SpanRow>,
        pub workers: Vec<WorkerRow>,
        pub utilization_imbalance: BTreeMap<String, f64>,
        pub phases: Vec<PhaseRow>,
        pub metrics: MetricsSnapshot,
        pub provenance: Provenance,
    }
}

impl Artifact for MetricsDoc {
    /// The span and worker invariants of [`HostProfile::verify`], plus:
    /// spans and workers are non-empty, every phase is backed by a span,
    /// and every lane's imbalance lies in `[0, 1]`.
    fn verify(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.spans.is_empty() {
            problems.push("'spans' is empty".to_string());
        }
        if self.workers.is_empty() {
            problems.push("'workers' is empty".to_string());
        }
        problems.extend(check_rows(&self.spans, &self.workers));
        for phase in &self.phases {
            if !self.spans.iter().any(|s| s.name == phase.name) {
                problems.push(format!("phase '{}' has no backing span", phase.name));
            }
        }
        for (lane, v) in &self.utilization_imbalance {
            if !(0.0..=1.0).contains(v) {
                let what = format!("utilization_imbalance['{lane}']");
                problems.push(format!("{what} must be a number in [0, 1]"));
            }
        }
        problems
    }
}

/// The process's peak resident set size in bytes, from Linux's
/// `/proc/self/status` `VmHWM` line; `None` where that interface does not
/// exist (non-Linux hosts) — zero-dependency by design, mirroring the
/// offline constraint everywhere else in the workspace.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kib * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        const { assert!(!NullHostSink::ENABLED) };
        const { assert!(HostProfiler::ENABLED) };
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let prof = HostProfiler::new();
        {
            let _a = prof.span("outer");
            {
                let _b = prof.span("inner");
            }
            let _c = prof.span("inner");
        }
        let profile = prof.finish();
        profile.verify().unwrap();
        assert_eq!(profile.spans.len(), 3);
        let outer = &profile.spans[0];
        assert_eq!((outer.name, outer.depth, outer.parent), ("outer", 0, None));
        for inner in &profile.spans[1..] {
            assert_eq!((inner.name, inner.depth, inner.parent), ("inner", 1, Some(0)));
            assert!(inner.start_ns >= outer.start_ns);
            assert!(inner.end_ns <= outer.end_ns);
        }
        // The two "inner" siblings must not overlap.
        assert!(profile.spans[2].start_ns >= profile.spans[1].end_ns);
        let totals = profile.phase_totals();
        let phase = |name: &str| totals.iter().find(|t| t.name == name).unwrap();
        assert_eq!(phase("inner").count, 2);
        assert_eq!(phase("outer").count, 1);
        assert!(phase("outer").self_ns <= phase("outer").total_ns);
    }

    #[test]
    fn spans_on_spawned_threads_get_their_own_lanes() {
        let prof = HostProfiler::new();
        {
            let _root = prof.span("main");
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        let _w = prof.span("worker");
                    });
                }
            });
        }
        let profile = prof.finish();
        profile.verify().unwrap();
        let workers: Vec<_> = profile.spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 2);
        for w in &workers {
            assert_eq!(w.depth, 0, "spawned threads root their own stacks");
            assert_eq!(w.parent, None);
            assert_ne!(w.thread, 0, "main thread owns lane 0");
        }
        assert_ne!(workers[0].thread, workers[1].thread);
    }

    #[test]
    fn worker_identity_holds_by_construction() {
        let prof = HostProfiler::new();
        prof.worker("run-configs", 0, 100, 60, 3);
        prof.worker("run-configs", 1, 50, 70, 2); // busy > wall: clamped
        let profile = prof.finish();
        profile.verify().unwrap();
        let w0 = &profile.workers[0];
        assert_eq!(w0.busy_ns + w0.idle_ns(), w0.wall_ns);
        assert_eq!(w0.idle_ns(), 40);
        let w1 = &profile.workers[1];
        assert_eq!(w1.wall_ns, 70, "wall clamped up to busy");
        assert_eq!(w1.idle_ns(), 0);
        assert!((w0.utilization() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn utilization_imbalance_is_the_per_lane_busy_spread() {
        let prof = HostProfiler::new();
        // A perfectly balanced lane and a lopsided one: imbalance is the
        // busy spread over the longest wall, per lane.
        prof.worker("balanced", 0, 100, 80, 4);
        prof.worker("balanced", 1, 100, 80, 4);
        prof.worker("lopsided", 0, 200, 200, 8);
        prof.worker("lopsided", 1, 200, 40, 1);
        // Repeated records of one worker aggregate before comparing:
        // worker 1 sums to busy 50 over wall 210 (this record's wall is
        // clamped up to its busy), so the spread is (200-50)/210.
        prof.worker("lopsided", 1, 0, 10, 1);
        let profile = prof.finish();
        let imbalance = profile.utilization_imbalance();
        assert_eq!(imbalance["balanced"], 0.0);
        assert!((imbalance["lopsided"] - 150.0 / 210.0).abs() < 1e-12, "{imbalance:?}");
        for v in imbalance.values() {
            assert!((0.0..=1.0).contains(v));
        }
    }

    #[test]
    fn gauge_max_keeps_the_high_water_mark() {
        let prof = HostProfiler::new();
        prof.gauge_max("sweep.queue_depth.w00", 3);
        prof.gauge_max("sweep.queue_depth.w00", 7);
        prof.gauge_max("sweep.queue_depth.w00", 5);
        let profile = prof.finish();
        let depth = profile
            .metrics
            .get("gauges")
            .and_then(|g| g.get("sweep.queue_depth.w00"))
            .and_then(Json::as_u64);
        assert_eq!(depth, Some(7));
    }

    #[test]
    #[should_panic(expected = "open span")]
    fn finishing_with_an_open_span_panics() {
        let prof = HostProfiler::new();
        let guard = prof.span("leaked");
        std::mem::forget(guard);
        let _ = prof.finish();
    }

    #[test]
    fn profile_json_round_trips_and_carries_the_schema() {
        let prof = HostProfiler::new();
        {
            let _a = prof.span("plan-build");
        }
        prof.count("sweep.configs", 60);
        prof.observe("host.run_ns.direct", 1234);
        prof.worker("run-configs", 0, 10, 5, 1);
        let profile = prof.finish();
        let doc = profile.document("unit", Provenance::collect(0, 0)).to_json();
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.render(), text);
        assert_eq!(back.get("profile").and_then(Json::as_str), Some("unit"));
        assert!(back.get("peak_rss_bytes").and_then(Json::as_u64).is_some());
        let spans = back.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        let workers = back.get("workers").and_then(Json::as_arr).unwrap();
        let w = &workers[0];
        let (wall, busy, idle) = (
            w.get("wall_ns").and_then(Json::as_u64).unwrap(),
            w.get("busy_ns").and_then(Json::as_u64).unwrap(),
            w.get("idle_ns").and_then(Json::as_u64).unwrap(),
        );
        assert_eq!(busy + idle, wall);
        assert!(back.get("phases").and_then(Json::as_arr).is_some());
        assert!(back.get("metrics").and_then(|m| m.get("counters")).is_some());
        let imbalance = back
            .get("utilization_imbalance")
            .and_then(|i| i.get("run-configs"))
            .expect("per-lane imbalance is serialized");
        assert!(matches!(imbalance, Json::F64(v) if (0.0..=1.0).contains(v)));
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_bytes().expect("/proc/self/status has VmHWM on Linux");
            assert!(rss > 0);
        }
    }

    #[test]
    fn verify_rejects_overlapping_siblings() {
        let profile = HostProfile {
            spans: vec![
                SpanRecord {
                    name: "a",
                    thread: 0,
                    depth: 0,
                    parent: None,
                    start_ns: 0,
                    end_ns: 100,
                },
                SpanRecord {
                    name: "b",
                    thread: 0,
                    depth: 0,
                    parent: None,
                    start_ns: 50,
                    end_ns: 150,
                },
            ],
            workers: Vec::new(),
            metrics: Json::obj::<&str>([]),
            peak_rss_bytes: 0,
        };
        let err = profile.verify().unwrap_err();
        assert!(err.contains("overlap"), "{err}");
    }

    #[test]
    fn verify_rejects_a_child_escaping_its_parent() {
        let profile = HostProfile {
            spans: vec![
                SpanRecord {
                    name: "parent",
                    thread: 0,
                    depth: 0,
                    parent: None,
                    start_ns: 10,
                    end_ns: 20,
                },
                SpanRecord {
                    name: "child",
                    thread: 0,
                    depth: 1,
                    parent: Some(0),
                    start_ns: 15,
                    end_ns: 25,
                },
            ],
            workers: Vec::new(),
            metrics: Json::obj::<&str>([]),
            peak_rss_bytes: 0,
        };
        let err = profile.verify().unwrap_err();
        assert!(err.contains("escapes parent"), "{err}");
    }
}
