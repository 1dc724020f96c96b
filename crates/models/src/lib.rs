//! # ptf-models
//!
//! The recommendation models of the PTF-FedRec paper, built from scratch on
//! the `ptf-tensor` kernels. Every model's training step is written out by
//! hand over buffers the model owns — MF as a fused per-sample SGD step,
//! NeuMF, NGCF and LightGCN as per-batch forward and backward passes whose
//! derivations are their module docs. The autograd tape they replaced
//! lives on in the dev-only `ptf-tape` crate as their test oracle: each
//! model's `hand_derived_step_matches_the_tape` proptest rebuilds it there.
//!
//! * [`neumf::NeuMf`] — MLP-over-concatenated-embeddings (Eq. 1), the
//!   default *client* model;
//! * [`ngcf::Ngcf`] — Neural Graph Collaborative Filtering with the full
//!   message-passing rule (Eq. 2), the strongest *server* model;
//! * [`lightgcn::LightGcn`] — simplified propagation-only GCN;
//! * [`mf`] — matrix factorization with exposed per-sample gradients, the
//!   substrate the parameter-transmission baselines (FCF/FedMF) decompose.
//!
//! All models implement [`traits::Recommender`] and are constructible by
//! name through [`registry`], which is how the protocol layers stay
//! model-agnostic (the heart of the paper's "hide your model" property).
//!
//! An architecture is its forward pass. Each has one constructor — the
//! seed-derived `new_scoped(num_users, cfg, &ItemScope, seed)`, which
//! servers reach through [`registry::build_model`] with a `Full` scope —
//! and everything around the forward pass is shared: `scoped::ScopedParams`
//! owns an Adam-trained model's parameters, moments, item scope and seed
//! (lazy rows, eviction, the Adam step, the full-state envelope), and
//! `backbone::GraphBackbone` adds what NGCF and LightGCN have in common
//! (propagation operator, global edge list, where a batch sits in the
//! node space, the final-embedding cache and the allocation-free scoring
//! loop over it).

mod backbone;
pub mod eval;
pub mod graph;
pub mod lightgcn;
pub mod mf;
pub mod neumf;
pub mod ngcf;
pub mod registry;
mod scoped;
pub mod traits;

pub use eval::{evaluate_model, evaluate_model_with_threads};
pub use lightgcn::{LightGcn, LightGcnConfig};
pub use mf::MfModel;
pub use neumf::{NeuMf, NeuMfConfig};
pub use ngcf::{Ngcf, NgcfConfig};
pub use registry::{build_model, build_model_scoped, ModelHyper, ModelKind};
pub use traits::{cached_id_range, stable_sigmoid, train_on_samples, Recommender, ScopeView};

pub use ptf_tensor::ItemScope;

#[cfg(test)]
mod test_util {
    /// Whether `ptf_tensor::isa::dispatch` takes its AVX2 path on this
    /// CPU. Without it a model's dispatched entry and its baseline body
    /// are the same code, so a test comparing them skips and says so.
    pub(crate) fn avx2_path() -> bool {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return true;
        }
        eprintln!("skipped: this CPU lacks AVX2+FMA, so isa::dispatch runs the baseline path");
        false
    }

    pub(crate) fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }
}
