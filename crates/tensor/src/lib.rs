//! # ptf-tensor
//!
//! A small, dependency-light numeric substrate for the PTF-FedRec
//! reproduction: dense row-major [`Matrix`] values, CSR [`sparse::Csr`]
//! matrices for graph propagation, an arena-backed reverse-mode autograd
//! tape ([`graph::Graph`] over a reusable [`graph::GraphArena`]), the
//! env-selectable [`kernels`] (chunked 8-lane vector backend vs the
//! scalar reference, `PTF_KERNEL`), the [`optim`] optimizers (Adam with
//! lazy row-sparse embedding updates, plain SGD), the [`par`] fork/join
//! primitives (plus the [`par::Pool`] worker-scratch pool) behind
//! deterministic parallel client execution, the [`packed`] raw-bits text
//! form every `f32` buffer takes in a state envelope, and the [`alloc`]
//! counting-allocator shim behind heap accounting in the perf harness.
//!
//! The design is deliberately "define-by-run": every training batch builds a
//! fresh [`graph::Graph`] over a shared [`params::Params`] store, computes a
//! scalar loss, and calls [`graph::Graph::backward`] to obtain per-parameter
//! gradients. Embedding lookups produce *row-sparse* gradients so that a
//! client holding a 10k-item embedding table only pays for the rows its
//! batch touched.
//!
//! ```
//! use ptf_tensor::prelude::*;
//!
//! let mut rng = ptf_tensor::test_rng(7);
//! let mut params = Params::new();
//! let w = params.push("w", Matrix::randn(3, 1, 0.1, &mut rng));
//!
//! // one gradient step of least squares via the autograd graph
//! let x = Matrix::from_vec(2, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
//! let mut adam = Adam::with_defaults(&params, 0.05);
//! let mut g = Graph::new(&params);
//! let xv = g.leaf(x);
//! let wv = g.param(w);
//! let pred = g.matmul(xv, wv);
//! let loss = g.bce_with_logits(pred, &[1.0, 0.0]);
//! let grads = g.backward(loss);
//! drop(g);
//! adam.step(&mut params, &grads);
//! ```

pub mod alloc;
pub mod grad;
pub mod graph;
pub mod init;
pub mod kernels;
pub mod matrix;
pub mod optim;
pub mod packed;
pub mod par;
pub mod params;
pub mod rowtable;
pub mod sparse;

pub use grad::{GradBuf, Grads, RowSparse};
pub use graph::{Graph, GraphArena, Var};
pub use matrix::Matrix;
pub use optim::{Adam, Sgd};
pub use packed::PackedF32s;
pub use params::{ParamId, Params};
pub use rowtable::{derive_seed, ItemScope, RowTable, ScopeIndex};
pub use sparse::{Csr, PropagationMatrix};

/// Convenience prelude that re-exports the types almost every user needs.
pub mod prelude {
    pub use crate::grad::{GradBuf, Grads};
    pub use crate::graph::{Graph, GraphArena, Var};
    pub use crate::matrix::Matrix;
    pub use crate::optim::{Adam, Sgd};
    pub use crate::params::{ParamId, Params};
    pub use crate::sparse::{Csr, PropagationMatrix};
}

/// A deterministic RNG for examples and tests.
pub fn test_rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}
