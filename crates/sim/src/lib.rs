//! Shared simulation primitives — the reproduction's analogue of the
//! NeuraSim building blocks.
//!
//! The paper's NeuraSim is a cycle-accurate, modular simulator inspired by
//! the Structural Simulation Toolkit. In this reproduction each model
//! drives its own loop (the accelerator ticks its cores, NeuraMems, torus
//! and memory controllers directly), and this crate holds the pieces they
//! share:
//!
//! * [`Cycle`] — a strongly-typed cycle counter plus frequency conversions,
//! * [`stats`] — the fixed-bin [`Histogram`] behind the paper's CPI and
//!   work-distribution figures,
//! * [`LatencyHistogram`] — mergeable log-bucketed percentile state shared
//!   by the serving telemetry and the chip-level profiler,
//! * [`rng`] — a small deterministic RNG so simulations are reproducible
//!   without depending on global random state.
//!
//! Everything here is synchronous and deterministic: given the same
//! workload and configuration, every run produces bit-identical statistics.
//!
//! # Example
//!
//! ```
//! use neura_sim::{Cycle, Histogram};
//!
//! // Cycles-per-instruction samples binned as in Figures 14/15.
//! let mut cpi = Histogram::new(25, 4);
//! for (issued, retired) in [(0, 10), (3, 40), (5, 130)] {
//!     cpi.record(Cycle(retired) - Cycle(issued));
//! }
//! assert_eq!(cpi.bins(), &[1, 1, 0, 1]);
//! assert_eq!(cpi.bin_labels()[3], "75-100+");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cycle;
pub mod latency;
pub mod rng;
pub mod stats;

pub use cycle::Cycle;
pub use latency::{LatencyHistogram, RELATIVE_ERROR_BOUND, SUB_BUCKET_BITS};
pub use rng::DeterministicRng;
pub use stats::Histogram;
