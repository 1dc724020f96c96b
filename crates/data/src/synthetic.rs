//! Latent-factor synthetic interaction generator.
//!
//! The paper's datasets cannot be bundled, so experiments run on synthetic
//! equivalents with the same *shape*: the generator plants a low-rank
//! user–item affinity structure (so collaborative-filtering models have
//! signal to learn, and a stronger model — NGCF/LightGCN — can beat a
//! weaker one — NeuMF/MF), a power-law item popularity (so "confidence"
//! style frequency heuristics behave as on real data), and a skewed
//! profile-length distribution (so per-client upload sizes and the
//! federated/centralized gap mirror the real sparsity levels).
//!
//! Generation model, per user `u` with latent `p_u ~ N(0, I_d)`:
//!
//! 1. profile length `L_u ∝ avg_len · LogNormal(0, len_sigma)`, rescaled so
//!    the total interaction count hits the preset target;
//! 2. item weights `w_j = pop_j · exp(sharpness · ⟨p_u, q_j⟩/√d)` where
//!    `pop_j` follows a Zipf-like law with exponent `pop_exponent`;
//! 3. `L_u` items are drawn without replacement via Efraimidis–Spirakis
//!    weighted reservoir keys.

use crate::dataset::Dataset;
use crate::shuffle;
use rand::Rng;
use rand_distr::{Distribution, LogNormal, Normal};

/// Configuration of the synthetic generator.
#[derive(Clone, Debug)]
pub struct SyntheticConfig {
    pub name: String,
    pub num_users: usize,
    pub num_items: usize,
    /// Total interaction target (the generator lands within ~1%).
    pub target_interactions: usize,
    /// Rank of the planted affinity structure.
    pub latent_dim: usize,
    /// Zipf exponent of item popularity (0 = uniform).
    pub pop_exponent: f64,
    /// How strongly the planted affinity drives choices (0 = popularity
    /// only). Around 1.0–1.5 gives learnable but noisy preferences.
    pub affinity_sharpness: f64,
    /// Log-normal sigma of profile lengths (0 = everyone identical).
    pub len_sigma: f64,
    /// Minimum interactions per user — keeps every client trainable and
    /// able to donate a test item under the 8:2 split.
    pub min_profile_len: usize,
}

impl SyntheticConfig {
    /// A reasonable default shape for ad-hoc experiments.
    pub fn new(name: impl Into<String>, num_users: usize, num_items: usize, avg_len: f64) -> Self {
        Self {
            name: name.into(),
            num_users,
            num_items,
            target_interactions: (num_users as f64 * avg_len).round() as usize,
            latent_dim: 16,
            pop_exponent: 0.9,
            affinity_sharpness: 1.2,
            len_sigma: 0.6,
            min_profile_len: 5,
        }
    }

    /// Generates the dataset.
    pub fn generate(&self, rng: &mut impl Rng) -> Dataset {
        assert!(self.num_users > 0 && self.num_items > 0, "empty dataset requested");
        assert!(
            self.min_profile_len <= self.num_items,
            "min_profile_len {} exceeds item count {}",
            self.min_profile_len,
            self.num_items
        );
        let d = self.latent_dim;
        let normal = Normal::new(0.0f64, 1.0).expect("unit normal");

        // Item latents and popularity. Popularity ranks are shuffled so
        // item id order carries no signal.
        let item_latent: Vec<Vec<f64>> =
            (0..self.num_items).map(|_| (0..d).map(|_| normal.sample(rng)).collect()).collect();
        let mut pop_rank: Vec<usize> = (0..self.num_items).collect();
        shuffle(&mut pop_rank, rng);
        let log_pop: Vec<f64> = (0..self.num_items)
            .map(|j| -self.pop_exponent * ((pop_rank[j] + 1) as f64).ln())
            .collect();

        // Profile lengths, rescaled to the interaction target.
        let lens = self.profile_lengths(rng);

        let inv_sqrt_d = 1.0 / (d as f64).sqrt();
        // assemble straight into the CSR arena: one reusable keyed buffer,
        // one reusable sorted-profile buffer, no per-user heap lists
        let total_hint: usize = lens.iter().sum();
        let mut builder =
            Dataset::builder(self.name.clone(), self.num_items, self.num_users, total_hint);
        let mut items: Vec<u32> = Vec::with_capacity(self.num_items);
        let mut keyed: Vec<(f64, u32)> = Vec::with_capacity(self.num_items);
        for &len in &lens {
            let user_latent: Vec<f64> = (0..d).map(|_| normal.sample(rng)).collect();
            keyed.clear();
            for j in 0..self.num_items {
                let affinity: f64 =
                    user_latent.iter().zip(&item_latent[j]).map(|(a, b)| a * b).sum::<f64>()
                        * inv_sqrt_d;
                let log_w = log_pop[j] + self.affinity_sharpness * affinity;
                // Efraimidis–Spirakis: key = ln(U)/w  (take the largest
                // keys). In log space: key = ln(-ln U) - ln w; we take the
                // *smallest*, equivalently negate. Guard U ∈ (0,1).
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let key = (-u.ln()).ln() - log_w;
                keyed.push((key, j as u32));
            }
            let take = len.min(self.num_items);
            keyed.select_nth_unstable_by(take.saturating_sub(1), |a, b| {
                a.0.partial_cmp(&b.0).expect("finite keys")
            });
            items.clear();
            items.extend(keyed[..take].iter().map(|&(_, j)| j));
            items.sort_unstable();
            builder.push_user(&items);
        }
        builder.finish()
    }

    /// Draws per-user profile lengths summing approximately to the target.
    fn profile_lengths(&self, rng: &mut impl Rng) -> Vec<usize> {
        let lognormal = LogNormal::new(0.0, self.len_sigma).expect("valid sigma");
        let raw: Vec<f64> = (0..self.num_users).map(|_| lognormal.sample(rng)).collect();
        let raw_sum: f64 = raw.iter().sum();
        let scale = self.target_interactions as f64 / raw_sum;
        raw.iter()
            .map(|&w| ((w * scale).round() as usize).max(self.min_profile_len).min(self.num_items))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SyntheticConfig {
        SyntheticConfig::new("test", 60, 120, 12.0)
    }

    #[test]
    fn hits_interaction_target_roughly() {
        let d = small_cfg().generate(&mut crate::test_rng(1));
        let target = 60.0 * 12.0;
        let got = d.num_interactions() as f64;
        assert!(
            (got - target).abs() / target < 0.25,
            "interactions {got} too far from target {target}"
        );
    }

    #[test]
    fn respects_min_profile_len() {
        let mut cfg = small_cfg();
        cfg.min_profile_len = 4;
        let d = cfg.generate(&mut crate::test_rng(2));
        for u in 0..d.num_users() {
            assert!(d.user_items(u as u32).len() >= 4, "user {u} too short");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = small_cfg().generate(&mut crate::test_rng(3));
        let b = small_cfg().generate(&mut crate::test_rng(3));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_cfg().generate(&mut crate::test_rng(4));
        let b = small_cfg().generate(&mut crate::test_rng(5));
        assert_ne!(a, b);
    }

    #[test]
    fn popularity_is_skewed() {
        let mut cfg = small_cfg();
        cfg.pop_exponent = 1.2;
        cfg.affinity_sharpness = 0.0; // isolate the popularity effect
        let d = cfg.generate(&mut crate::test_rng(6));
        let mut counts = d.item_counts();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: usize = counts[..counts.len() / 10].iter().sum();
        let total: usize = counts.iter().sum();
        assert!(
            top_decile as f64 > 0.25 * total as f64,
            "top 10% items hold only {top_decile}/{total} interactions — not skewed"
        );
    }

    #[test]
    fn affinity_plants_learnable_structure() {
        // With sharpness on, co-interacted items should overlap more across
        // users than under pure popularity sampling: measure mean pairwise
        // Jaccard of user profiles against the sharpness=0 version.
        fn mean_jaccard(d: &Dataset) -> f64 {
            let mut total = 0.0;
            let mut n = 0.0;
            for a in 0..d.num_users().min(30) {
                for b in (a + 1)..d.num_users().min(30) {
                    let sa = d.user_items(a as u32);
                    let sb = d.user_items(b as u32);
                    let inter = sa.iter().filter(|i| sb.binary_search(i).is_ok()).count();
                    let union = sa.len() + sb.len() - inter;
                    if union > 0 {
                        total += inter as f64 / union as f64;
                        n += 1.0;
                    }
                }
            }
            total / n
        }
        let mut sharp = small_cfg();
        sharp.affinity_sharpness = 2.0;
        sharp.pop_exponent = 0.3;
        let mut flat = sharp.clone();
        flat.affinity_sharpness = 0.0;
        let d_sharp = sharp.generate(&mut crate::test_rng(7));
        let d_flat = flat.generate(&mut crate::test_rng(7));
        // sharp profiles cluster users into taste groups; some pairs overlap
        // heavily, raising the mean
        assert!(
            mean_jaccard(&d_sharp) > 0.8 * mean_jaccard(&d_flat),
            "affinity structure collapsed: sharp {} vs flat {}",
            mean_jaccard(&d_sharp),
            mean_jaccard(&d_flat)
        );
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn rejects_empty() {
        let cfg = SyntheticConfig::new("x", 0, 10, 5.0);
        let _ = cfg.generate(&mut crate::test_rng(0));
    }
}
