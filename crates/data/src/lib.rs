//! # ptf-data
//!
//! Implicit-feedback recommendation datasets for the PTF-FedRec
//! reproduction:
//!
//! * [`dataset::Dataset`] — a compact per-user interaction store shared by
//!   every model and protocol in the workspace.
//! * [`synthetic`] — a latent-factor interaction generator whose presets
//!   ([`presets`]) are calibrated to the Table II statistics of
//!   MovieLens-100K, Steam-200K and Gowalla. They stand in for the raw
//!   dumps, which are not redistributable: they match user/item counts,
//!   interaction volume, profile-length skew and density, which are the
//!   properties the paper's experiments actually exercise.
//! * [`split`] — the paper's 8:2 per-user train/test split.
//! * [`negative`] — negative sampling at the paper's 1:4 ratio.
//! * [`loader`] — parsers for the real MovieLens/CSV formats, for users who
//!   do have the original files on disk.
//! * [`stats`] — Table II style dataset statistics.

pub mod arena;
pub mod dataset;
pub mod loader;
pub mod negative;
pub mod presets;
pub mod scale;
pub mod split;
pub mod stats;
pub mod synthetic;

pub use arena::{ArenaError, ArenaWriter, CsrArena};
pub use dataset::{Dataset, DatasetBuilder, UserId};
pub use presets::{DatasetPreset, Scale};
pub use scale::{ScaleConfig, SCALE_STREAM};
pub use split::TrainTestSplit;
pub use stats::DatasetStats;
pub use synthetic::SyntheticConfig;

/// Fisher–Yates shuffle: one `gen_range(0..=i)` draw per position, from
/// the last down. Every shuffle in the workspace is this one loop, so a
/// list shuffled anywhere consumes its stream in the same order.
pub fn shuffle<T>(xs: &mut [T], rng: &mut impl rand::Rng) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

/// A deterministic RNG for examples and tests.
pub fn test_rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}
