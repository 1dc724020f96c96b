//! # ptf-tape
//!
//! The arena-backed reverse-mode autograd tape ([`graph::Graph`] over a
//! reusable [`graph::GraphArena`]). No model trains on it: MF, NeuMF,
//! NGCF and LightGCN all write their forward and backward passes by hand
//! in `ptf-models`. The tape is what those hand-derived steps are checked
//! against — each model's `hand_derived_step_matches_the_tape` proptest
//! rebuilds the model's loss here and compares losses, parameters after
//! several Adam steps, and scores. So this crate is `publish = false`
//! and only ever a dev-dependency; no production build links it.
//!
//! Its own tests (finite differences for every op, arena reuse) are what
//! make it an oracle.

pub mod graph;
pub mod sparse;

pub use graph::{Graph, GraphArena, Var};

/// The tensor prelude plus the tape.
pub mod prelude {
    pub use crate::graph::{Graph, GraphArena, Var};
    pub use crate::sparse::transpose;
    pub use ptf_tensor::prelude::*;
}
