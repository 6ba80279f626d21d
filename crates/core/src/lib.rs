//! `sortmid` — a cycle-level simulator of parallel sort-middle texture
//! mapping with per-node texture caches.
//!
//! This crate is the primary contribution of the reproduction of
//! *“The Best Distribution for a Parallel OpenGL 3D Engine with Texture
//! Caches”* (Vartanian, Béchennec, Drach-Temam; HPCA 2000): a machine of
//! `P` texture-mapping nodes, each owning a statically interleaved part of
//! the screen, fed in strict stream order by an ideal geometry stage through
//! bounded triangle FIFOs.
//!
//! The machine reproduces the paper's four interacting effects:
//!
//! 1. **global load balance** — who owns the hot pixels
//!    ([`work::pixel_work`], Figure 5);
//! 2. **triangle setup overhead** — 25 cycles per triangle per overlapped
//!    node (Figure 5's speedup collapse at tiny tiles);
//! 3. **texture locality** — per-node caches see fewer reuses when tiles
//!    shrink ([`report::RunReport::texel_to_fragment`], Figure 6);
//! 4. **local load imbalance** — bounded FIFOs with head-of-line blocking
//!    (Figure 8).
//!
//! # Quickstart
//!
//! ```
//! use sortmid::{CacheKind, Distribution, Machine, MachineConfig};
//! use sortmid_scene::{Benchmark, SceneBuilder};
//!
//! let scene = SceneBuilder::benchmark(Benchmark::TeapotFull).scale(0.1).build();
//! let stream = scene.rasterize();
//!
//! let baseline = Machine::new(MachineConfig::uniprocessor()).run(&stream);
//! let config = MachineConfig::builder()
//!     .processors(4)
//!     .distribution(Distribution::block(16))
//!     .cache(CacheKind::PaperL1)
//!     .build()
//!     .expect("valid config");
//! let report = Machine::new(config).run(&stream);
//!
//! let speedup = report.speedup_vs(&baseline);
//! assert!(speedup > 1.0 && speedup <= 4.0);
//! ```

pub mod analysis;
pub mod config;
pub mod distribution;
pub mod dynamic;
pub mod machine;
pub mod plan;
#[doc(hidden)]
pub mod reference;
pub mod replay;
pub mod report;
pub mod sched;
pub mod sortlast;
pub mod sweep;
pub mod work;

pub use config::{CacheKind, ConfigError, MachineConfig, MachineConfigBuilder};
pub use distribution::Distribution;
pub use machine::Machine;
pub use plan::{OwnerLut, RoutingPlan};
pub use report::{NodeReport, RunReport};
pub use sortmid_cache::{MissBreakdown, MissIdentityError};
pub use sortmid_observe::{
    CycleBreakdown, HostProfile, HostProfiler, HostSink, MetricsRegistry, MissClass,
    MissClassCounts, NullHostSink, NullSink, ScreenGrid, SpatialCollector, TileStats, TraceEvent,
    TraceRecorder, TraceSink,
};
pub use replay::capture_line_trace;
pub use sched::{lpt_order, run_graph, CostModel, TaskGraph};
pub use sweep::{
    grid_hash, run_sweep, run_sweep_profiled, run_sweep_with_threads, run_sweeps, SweepGrid,
    SweepOptions,
};

/// Maximum processor count the machine supports (the paper evaluates up to
/// 64; the overlap masks are 128-bit).
pub const MAX_PROCESSORS: u32 = 128;
