//! # ptf-tape
//!
//! A plain define-by-run reverse-mode autograd tape ([`graph::Graph`]).
//! No model trains on it: MF, NeuMF, NGCF and LightGCN all write their
//! forward and backward passes by hand in `ptf-models`. The tape is what
//! those hand-derived steps are checked against — each model's
//! `hand_derived_step_matches_the_tape` proptest rebuilds the model's
//! loss here and compares losses, parameters after several Adam steps,
//! and scores. So this crate is `publish = false` and only ever a
//! dev-dependency; no production build links it, and it keeps only the
//! ops those oracles call.
//!
//! Its own tests (a finite-difference check of every op) are what make
//! it an oracle.

pub mod graph;
pub mod sparse;

pub use graph::{Graph, Var};

/// The tensor prelude plus the tape.
pub mod prelude {
    pub use crate::graph::{Graph, Var};
    pub use crate::sparse::transpose;
    pub use ptf_tensor::prelude::*;
}
