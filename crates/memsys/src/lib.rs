//! Cycle-level memory-system substrate for the `sortmid` machine.
//!
//! The paper's results come from "detailed cache and memory system
//! simulations" built on ASF, the authors' C++ event-driven framework. This
//! crate is our equivalent substrate:
//!
//! * [`event::EventQueue`] — a deterministic discrete-event queue (time
//!   order, FIFO among simultaneous events).
//! * [`engine::EngineTiming`] — the per-node timing model: a 1-pixel/cycle
//!   scan engine, a bandwidth-occupancy texture bus and an Igehy-style
//!   prefetch window that hides latency until the bus saturates.
//! * [`fifo::TriangleFifo`] — the bounded triangle FIFO between the
//!   geometry stage and the nodes, whose head-of-line blocking produces the
//!   paper's *local load imbalance* (Section 8).
//! * [`bus::BusConfig`] — the paper's bus characterisation: a maximum
//!   *texel-to-fragment ratio* the memory may deliver, rather than absolute
//!   MHz (Section 3.1).
//!
//! Time is measured in engine cycles (`u64`); one cycle is the time the
//! engine needs to scan one pixel.
//!
//! # Examples
//!
//! ```
//! use sortmid_memsys::bus::BusConfig;
//! use sortmid_memsys::engine::EngineTiming;
//!
//! // A node with a 1-texel/pixel bus and a 32-fragment prefetch window.
//! let mut node = EngineTiming::new(BusConfig::ratio(1.0), Some(32));
//! node.start_triangle(0);
//! node.fragment(0); // all-hit fragment: one cycle
//! node.fragment(2); // two line fills queue on the bus
//! let done = node.finish_triangle(25);
//! assert!(done >= 25);
//! ```

pub mod bus;
pub mod dram;
pub mod engine;
pub mod event;
pub mod fifo;

pub use bus::BusConfig;
pub use dram::{DramConfig, DramState};
pub use engine::EngineTiming;
pub use event::EventQueue;
pub use fifo::TriangleFifo;

/// Simulation time in engine cycles (1 cycle = 1 pixel scanned).
pub type Cycle = u64;

/// The paper's triangle-setup occupancy: a node spends at least 25 cycles
/// per triangle it receives ("an engine able to setup a triangle each 25
/// pixels", after Chen et al.).
pub const SETUP_CYCLES: Cycle = 25;
