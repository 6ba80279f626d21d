//! Regeneration harness for every table and figure of the paper.
//!
//! Each module reproduces one artefact of the evaluation and returns
//! [`sortmid_util::table::Table`]s that print the same rows/series the paper
//! reports:
//!
//! | module | paper artefact |
//! |---|---|
//! | [`table1`] | Table 1 — benchmark scene characteristics |
//! | [`fig5`] | Figure 5 — load balancing (imbalance % and perfect-cache speedups) |
//! | [`fig6`] | Figure 6 — texel-to-fragment ratio vs processors |
//! | [`fig7`] | Figure 7 — speedups with a 1 (or 2) texel/pixel bus |
//! | [`fig8`] | Figure 8 — speedup vs block width × triangle-buffer size |
//! | [`fig9`] | Figure 9 — benchmark images (PPM files) |
//! | [`ablations`] | prefetch-window, cache-geometry, dynamic-SLI and L2 studies |
//!
//! The binary (`sortmid-experiments`) exposes each as a subcommand; the
//! bench binaries in `sortmid-bench` time representative configurations
//! of the same figures.
//!
//! Scenes are generated at a reduced `--scale` (default 0.25–0.35 per
//! experiment) because the machine is simulated on one host core;
//! scale-dependent columns are extrapolated back to paper scale where the
//! table calls for it. Shapes — who wins, where the optimum sits, where
//! curves cross — are scale-stable, which is what the reproduction targets.

pub mod ablations;
pub mod common;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod seeds;
pub mod table1;
