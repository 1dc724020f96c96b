//! # ptf-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§IV). Each `benches/tableN_*.rs` / `benches/figN_*.rs`
//! target is a standalone binary (`harness = false`) that prints the
//! paper-formatted rows and writes machine-readable JSON next to the
//! workspace root under `experiments/`.
//!
//! Scale is controlled by `PTF_SCALE` (`small` default, `paper` for
//! Table II sized runs, either in any case) and the master seed by
//! `PTF_SEED` (default 2024). [`harness::scale`] and [`harness::seed`]
//! are the only readers of the environment; a value that does not parse
//! stops the run with a panic that names it.

pub mod harness;

pub use harness::*;
