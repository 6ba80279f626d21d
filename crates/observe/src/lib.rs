//! `sortmid-observe` — cycle-attributed tracing and metrics for the
//! `sortmid` machine.
//!
//! The paper's central claims are *time-domain* phenomena: triangle-FIFO
//! starvation (Figure 8), bus-saturation bursts (Section 6) and setup
//! overhead (Figure 5). End-of-run totals can say *that* a configuration
//! loses; only a timeline can say *why* and *when*. This crate is the
//! observability layer the simulator threads through its hot path:
//!
//! * [`sink::TraceSink`] — a generic event sink parameter. The machine,
//!   nodes and engine are generic over it; the [`sink::NullSink`]
//!   monomorphizes every `record` call to nothing, so untraced runs pay
//!   zero cost (a bench guard in `sortmid-bench` pins this).
//! * [`event::TraceEvent`] — the event vocabulary: triangle start/retire/
//!   discard, FIFO push/pop, and bus line-fill transactions (one per cache
//!   miss).
//! * [`breakdown::CycleBreakdown`] — per-node cycle accounting. Every
//!   cycle from 0 to a node's finish time is attributed to exactly one of
//!   {triangle-setup, shading-busy, bus-stall, fifo-starved,
//!   idle-after-finish}, with the identity `setup + busy + bus_stall +
//!   starved + idle == finish` enforced by construction and checked by
//!   property tests and `bench_check`. [`breakdown::SweepBreakdowns`]
//!   owns the sweep artefact's `cycle_breakdowns` section.
//! * [`series::TimeSeries`] — cadence-bucketed sampling of FIFO occupancy
//!   and bus utilization, rendered as terminal charts/tables through
//!   `sortmid-util`.
//! * [`perfetto`] — a Chrome-trace-event exporter: a recorded run becomes
//!   a `TRACE_<config>.json` (owned by [`perfetto::ChromeTrace`]) that
//!   opens directly in `ui.perfetto.dev`.
//! * [`heatmap::ScreenGrid`] + [`attribution::SpatialCollector`] — the
//!   *spatial* metrics layer: per-tile depth complexity, owner-node
//!   fragment load, setup cycles and three-C-classified cache misses,
//!   exported as false-color PPM heatmaps, `HEATMAP_<preset>.json`
//!   artefacts (owned by [`attribution::HeatmapDoc`]), and terminal
//!   summaries.
//! * [`host::HostSink`] + [`metrics::MetricsRegistry`] — the *host*
//!   profiling layer: hierarchical RAII phase spans over the sweep
//!   pipeline (plan build, batch pivot, capture, stack-distance replay,
//!   timing synthesis), atomic counters and log2 histograms, and
//!   per-worker utilization with the exact identity
//!   `busy + idle == wall`. [`host::NullHostSink`] monomorphizes it all
//!   away, exactly like [`sink::NullSink`] does for cycle tracing; a
//!   sealed [`host::HostProfile`] exports as `METRICS_<name>.json` (owned
//!   by [`host::MetricsDoc`]) and as wall-time tracks in the Perfetto document
//!   ([`perfetto::chrome_trace`]).
//! * [`provenance::Provenance`] — the run-identity block every artefact
//!   emitter stamps (schema version, scene seed, FNV hash of the config
//!   grid, build profile, host fingerprint). Schema/seed/grid must match
//!   for two artefacts to be comparable; build/host differences are
//!   reported as informational drift.
//! * [`artifact`] — the artefact contract: each document kind — BENCH,
//!   TRACE, HEATMAP, METRICS and DIFF — has one owner type (one field
//!   table behind its emitter and decoder, plus a `verify` returning
//!   every broken identity); [`artifact::ArtifactKind::of`] names a
//!   file's kind.
//! * [`diff`] — the *differential* layer: [`diff::SweepDiff`],
//!   [`diff::HeatmapDiff`] and [`diff::MetricsDiff`] compute exact signed
//!   deltas between two comparable decoded artefacts at every level the
//!   instrumentation records (per-config cycles split by the five-way
//!   breakdown, tile-plane delta grids with owner flips and three-C
//!   miss-class movement, host phase/counter/histogram shifts) and rank
//!   them into a printable explanation; each differ is also the owner of
//!   its `DIFF_*.json` document. The `sortmid-diff` bin and
//!   `bench_check --explain` drive it.
//! * [`palette`] — the shared color maps: the heat ramp, the
//!   golden-angle owner palette, and the diverging blue-white-red delta
//!   palette the diff PPMs use.
//!
//! # Examples
//!
//! Recording and summarising events (the machine does the recording in a
//! real run):
//!
//! ```
//! use sortmid_observe::{TraceEvent, TraceRecorder, TraceSink};
//!
//! let mut rec = TraceRecorder::new();
//! rec.record(TraceEvent::FifoPush { node: 0, at: 10 });
//! rec.record(TraceEvent::FifoPop { node: 0, at: 35 });
//! assert_eq!(rec.events().len(), 2);
//! assert_eq!(rec.fifo_steps(0), vec![(10, 1), (35, -1)]);
//! ```

pub mod artifact;
pub mod attribution;
pub mod breakdown;
pub mod diff;
pub mod event;
pub mod heatmap;
pub mod host;
pub mod metrics;
pub mod palette;
pub mod perfetto;
pub mod provenance;
pub mod series;
pub mod sink;

pub use artifact::{Artifact, ArtifactKind, Merged, Schema};
pub use attribution::{HeatmapDoc, MissClass, MissClassCounts, SpatialCollector, TileStats};
pub use breakdown::{
    breakdown_table, BreakdownDelta, CycleBreakdown, CycleIdentityError, SweepBreakdowns,
};
pub use diff::{HeatmapDiff, MetricsDiff, SweepDiff};
pub use event::TraceEvent;
pub use heatmap::{GridSummary, ScreenGrid};
pub use palette::{diverging_color, heat_color, owner_color, sqrt_channel};
pub use provenance::{Provenance, SCHEMA_VERSION};
pub use host::{
    peak_rss_bytes, HostProfile, HostProfiler, HostSink, HostSpan, MetricsDoc, NullHostSink,
    SpanRecord, WorkerStats,
};
pub use metrics::{log2_bucket, Counter, Log2Histogram, MetricsRegistry, LOG2_BUCKETS};
pub use perfetto::{chrome_trace, ChromeEvent, ChromeTrace, HOST_PID};
pub use series::TimeSeries;
pub use sink::{NullSink, TraceRecorder, TraceSink};

/// Simulation time in engine cycles, mirroring `sortmid_memsys::Cycle`
/// (redeclared here so the substrate can depend on this crate without a
/// cycle).
pub type Cycle = u64;
