//! # ptf-tensor
//!
//! A small, dependency-light numeric substrate for the PTF-FedRec
//! reproduction: dense row-major [`Matrix`] values and the fixed-width
//! [`matrix`] products over row-major slices, CSR [`sparse::Csr`]
//! matrices with a register-resident spmm for graph propagation, the
//! [`kernels`] (8-lane chunked reductions, plain element-wise loops),
//! the [`isa`] runtime AVX2 dispatch
//! the NeuMF and NGCF steps run under, the [`optim`] Adam optimizer (with
//! lazy row-sparse embedding updates) over a [`Params`] store and its
//! [`Grads`], the [`par`] fork/join primitives (plus the
//! [`par::Pool`] worker-scratch pool) behind deterministic parallel client
//! execution, the seed-derived row [`init`], the [`packed`] raw-bits text
//! form every `f32` buffer takes in a state envelope, and the [`alloc`]
//! counting-allocator shim behind heap accounting in the perf harness.
//!
//! There is no autograd here. Every model writes its forward and
//! backward pass by hand over buffers it owns, fills a reused [`Grads`]
//! — dense for weights, row-sparse ([`RowSparse`]) for embedding tables,
//! so a client holding a 10k-item table only pays for the rows its batch
//! touched — and steps an optimizer with it. The reverse-mode tape those
//! passes are checked against lives in the dev-only `ptf-tape` crate.
//!
//! ```
//! use ptf_tensor::prelude::*;
//!
//! let mut rng = ptf_tensor::test_rng(7);
//! let mut params = Params::new();
//! let w = params.push("w", Matrix::randn(3, 1, 0.1, &mut rng));
//!
//! // one Adam step of least squares `‖x·w − y‖²`, gradient by hand:
//! // d/dw = 2·xᵀ·(x·w − y)
//! let x = Matrix::from_vec(2, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
//! let y = Matrix::from_vec(2, 1, vec![1.0, -1.0]);
//! let mut residual = x.matmul(params.get(w));
//! residual.scaled_add_assign(-1.0, &y);
//! let mut dw = Matrix::zeros(3, 1);
//! x.matmul_tn_acc(&residual.map(|r| 2.0 * r), &mut dw);
//!
//! let mut grads = Grads::new_for(&params);
//! *grads.slot_mut(w) = Some(GradBuf::Dense(dw));
//! let mut adam = Adam::with_defaults(&params, 0.05);
//! adam.step(&mut params, &grads);
//! ```

pub mod alloc;
pub mod grad;
pub mod init;
pub mod isa;
pub mod kernels;
pub mod matrix;
pub mod optim;
pub mod packed;
pub mod par;
pub mod params;
pub mod rowtable;
pub mod sparse;

pub use grad::{GradBuf, Grads, RowSparse};
pub use matrix::Matrix;
pub use optim::Adam;
pub use packed::PackedF32s;
pub use params::{ParamId, Params};
pub use rowtable::{derive_seed, RowTable, ScopeIndex, ScopeView};
pub use sparse::{Csr, PropagationMatrix};

/// Convenience prelude that re-exports the types almost every user needs.
pub mod prelude {
    pub use crate::grad::{GradBuf, Grads};
    pub use crate::matrix::Matrix;
    pub use crate::optim::Adam;
    pub use crate::params::{ParamId, Params};
    pub use crate::sparse::{Csr, PropagationMatrix};
}

/// A deterministic RNG for examples and tests.
pub fn test_rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}
