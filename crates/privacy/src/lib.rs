//! # ptf-privacy
//!
//! The privacy machinery of PTF-FedRec (§III-B2, §IV-G):
//!
//! * [`sampling`] — the noise-free-DP *sampling* defense: each round the
//!   client draws βᵗᵢ (fraction of positives uploaded) and γᵗᵢ (negatives
//!   per positive) at random, hiding the positive/negative ratio of the
//!   upload.
//! * [`swapping`] — the *swap* mechanism: a λ fraction of high-scoring
//!   positives exchange their prediction scores with negatives, perturbing
//!   the order information that LDP noise cannot hide.
//! * [`ldp`] — the Laplace-noise baseline the paper compares against.
//! * [`attack`] — the honest-but-curious server's *Top Guess Attack*:
//!   treat the top `γ·|upload|` scores as positives.

pub mod attack;
pub mod ldp;
pub mod sampling;
pub mod swapping;

pub use attack::TopGuessAttack;
pub use ldp::Ldp;
pub use sampling::{sample_upload, sample_upload_into, SampledUpload, SamplingConfig};
pub use swapping::{swap_scores, swap_scores_with};

/// One scored item inside an upload: `(item id, predicted score)`.
pub type ScoredItem = (u32, f32);

/// A deterministic RNG for examples and tests.
pub fn test_rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}
