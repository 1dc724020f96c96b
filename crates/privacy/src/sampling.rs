//! The sampling defense (noise-free differential privacy).
//!
//! §III-B2: "in round t, the client uᵢ randomly initializes two values βᵗᵢ
//! and γᵗᵢ. βᵗᵢ is used to control the proportion of positive items that
//! client uᵢ will upload, while γᵗᵢ controls the positive and negative
//! item ratio." Because both are redrawn every round and never revealed,
//! the curious server cannot pick the "right" cut-off for its Top Guess
//! Attack.

use rand::Rng;

/// Per-round sampling ranges (§IV-D defaults: β ∈ [0.1, 1], γ ∈ [1, 4]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SamplingConfig {
    pub beta_range: (f64, f64),
    pub gamma_range: (f64, f64),
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self { beta_range: (0.1, 1.0), gamma_range: (1.0, 4.0) }
    }
}

impl SamplingConfig {
    /// "Upload everything" — the No Defense row of Table V.
    pub fn no_defense() -> Self {
        Self { beta_range: (1.0, 1.0), gamma_range: (4.0, 4.0) }
    }
}

/// The result of the sampling step.
#[derive(Clone, Debug, PartialEq)]
pub struct SampledUpload {
    /// Selected positive item indices (into the caller's positive pool).
    pub positives: Vec<usize>,
    /// Selected negative item indices (into the caller's negative pool).
    pub negatives: Vec<usize>,
    /// The β drawn this round.
    pub beta: f64,
    /// The γ drawn this round.
    pub gamma: f64,
}

/// Draws βᵗᵢ and γᵗᵢ and subsamples the trained pools.
///
/// `num_positives`/`num_negatives` are the sizes of the client's trained
/// positive/negative pools this round; returned indices point into those
/// pools. At least one positive is kept whenever any exists (an upload of
/// zero predictions carries no knowledge), and the negative request is
/// capped by availability.
pub fn sample_upload(
    num_positives: usize,
    num_negatives: usize,
    cfg: &SamplingConfig,
    rng: &mut impl Rng,
) -> SampledUpload {
    let (mut positives, mut negatives) = (Vec::new(), Vec::new());
    let (beta, gamma) =
        sample_upload_into(num_positives, num_negatives, cfg, rng, &mut positives, &mut negatives);
    SampledUpload { positives, negatives, beta, gamma }
}

/// [`sample_upload`] into caller-owned index buffers (cleared on entry),
/// returning `(β, γ)`: the same draws in the same order, so a caller that
/// keeps the buffers between rounds allocates nothing once they have
/// grown to its pools.
pub fn sample_upload_into(
    num_positives: usize,
    num_negatives: usize,
    cfg: &SamplingConfig,
    rng: &mut impl Rng,
    positives: &mut Vec<usize>,
    negatives: &mut Vec<usize>,
) -> (f64, f64) {
    let beta = draw(cfg.beta_range, rng);
    let gamma = draw(cfg.gamma_range, rng);
    let n_pos = if num_positives == 0 {
        0
    } else {
        ((num_positives as f64 * beta).round() as usize).clamp(1, num_positives)
    };
    let n_neg = ((n_pos as f64 * gamma).round() as usize).min(num_negatives);
    sample_indices(num_positives, n_pos, rng, positives);
    sample_indices(num_negatives, n_neg, rng, negatives);
    (beta, gamma)
}

fn draw(range: (f64, f64), rng: &mut impl Rng) -> f64 {
    assert!(range.0 <= range.1, "invalid sampling range {range:?}");
    if range.0 == range.1 {
        range.0
    } else {
        rng.gen_range(range.0..=range.1)
    }
}

/// Uniformly samples `k` distinct indices from `0..n` into `idx`
/// (partial Fisher–Yates on an index vector).
fn sample_indices(n: usize, k: usize, rng: &mut impl Rng, idx: &mut Vec<usize>) {
    debug_assert!(k <= n);
    idx.clear();
    idx.extend(0..n);
    for i in 0..k {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_beta_and_gamma_bounds() {
        let cfg = SamplingConfig::default();
        for seed in 0..50 {
            let mut rng = crate::test_rng(seed);
            let s = sample_upload(100, 400, &cfg, &mut rng);
            assert!((0.1..=1.0).contains(&s.beta));
            assert!((1.0..=4.0).contains(&s.gamma));
            assert!(!s.positives.is_empty() && s.positives.len() <= 100);
            let expected_neg = ((s.positives.len() as f64 * s.gamma).round() as usize).min(400);
            assert_eq!(s.negatives.len(), expected_neg);
        }
    }

    #[test]
    fn indices_are_distinct_and_in_range() {
        let mut rng = crate::test_rng(3);
        let s = sample_upload(20, 50, &SamplingConfig::default(), &mut rng);
        let mut pos = s.positives.clone();
        pos.sort_unstable();
        pos.dedup();
        assert_eq!(pos.len(), s.positives.len(), "duplicate positive indices");
        assert!(pos.iter().all(|&i| i < 20));
        let mut neg = s.negatives.clone();
        neg.sort_unstable();
        neg.dedup();
        assert_eq!(neg.len(), s.negatives.len(), "duplicate negative indices");
        assert!(neg.iter().all(|&i| i < 50));
    }

    #[test]
    fn no_defense_uploads_everything() {
        let mut rng = crate::test_rng(4);
        let s = sample_upload(10, 40, &SamplingConfig::no_defense(), &mut rng);
        assert_eq!(s.positives.len(), 10);
        assert_eq!(s.negatives.len(), 40);
        assert_eq!(s.beta, 1.0);
        assert_eq!(s.gamma, 4.0);
    }

    #[test]
    fn ratio_varies_across_rounds() {
        // the whole point of the defense: the server cannot predict the
        // positive fraction of an upload
        let cfg = SamplingConfig::default();
        let mut rng = crate::test_rng(5);
        let fractions: Vec<f64> = (0..40)
            .map(|_| {
                let s = sample_upload(100, 400, &cfg, &mut rng);
                s.positives.len() as f64 / (s.positives.len() + s.negatives.len()) as f64
            })
            .collect();
        let min = fractions.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = fractions.iter().cloned().fold(0.0, f64::max);
        assert!(max - min > 0.15, "positive fraction barely varies: {min}..{max}");
    }

    #[test]
    fn handles_empty_pools() {
        let mut rng = crate::test_rng(6);
        let s = sample_upload(0, 10, &SamplingConfig::default(), &mut rng);
        assert!(s.positives.is_empty());
        let s = sample_upload(5, 0, &SamplingConfig::default(), &mut rng);
        assert!(s.negatives.is_empty());
        assert!(!s.positives.is_empty());
    }

    #[test]
    fn negative_request_capped_by_pool() {
        let mut rng = crate::test_rng(7);
        // γ up to 4 × 10 positives = 40 requested, only 8 available
        let s = sample_upload(10, 8, &SamplingConfig::no_defense(), &mut rng);
        assert_eq!(s.negatives.len(), 8);
    }
}
