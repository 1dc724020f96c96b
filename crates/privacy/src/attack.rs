//! The Top Guess Attack (§III-B2, evaluated in §IV-G).
//!
//! The honest-but-curious server knows the de-facto standard negative
//! sampling ratio (1:4), so when a client uploads predictions for its
//! trained items, the server simply declares the top `γ·n` scores to be
//! the client's true positives (γ = 0.2 = 1/(1+4)).

use crate::ScoredItem;
use ptf_metrics::{cmp_scores_desc, set_f1, PrecisionRecallF1};

/// The attack, parameterized by the server's assumed positive fraction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TopGuessAttack {
    /// Assumed fraction of positives in an upload (paper: 0.2).
    pub gamma: f64,
}

impl Default for TopGuessAttack {
    fn default() -> Self {
        Self { gamma: 0.2 }
    }
}

impl TopGuessAttack {
    /// Guesses the positive set of one upload: the `round(γ·n)` items with
    /// the highest scores (at least 1 when the upload is non-empty).
    /// Returns sorted item ids.
    pub fn guess(&self, upload: &[ScoredItem]) -> Vec<u32> {
        if upload.is_empty() {
            return Vec::new();
        }
        let k = ((upload.len() as f64 * self.gamma).round() as usize).clamp(1, upload.len());
        let mut order: Vec<usize> = (0..upload.len()).collect();
        order.sort_unstable_by(|&a, &b| cmp_scores_desc(upload[a].1, upload[b].1));
        let mut guessed: Vec<u32> = order[..k].iter().map(|&i| upload[i].0).collect();
        guessed.sort_unstable();
        guessed
    }

    /// Runs the attack on one upload and scores it against the client's
    /// true positives *within the upload* (sorted ids).
    pub fn evaluate(&self, upload: &[ScoredItem], true_positives: &[u32]) -> PrecisionRecallF1 {
        set_f1(&self.guess(upload), true_positives)
    }

    /// Mean attack F1 over many uploads (Table V aggregates per client).
    pub fn mean_f1<'a>(
        &self,
        uploads: impl IntoIterator<Item = (&'a [ScoredItem], &'a [u32])>,
    ) -> f64 {
        let mut total = 0.0;
        let mut n = 0usize;
        for (upload, truth) in uploads {
            if upload.is_empty() || truth.is_empty() {
                continue;
            }
            total += self.evaluate(upload, truth).f1;
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_succeeds_on_undefended_upload() {
        // 2 positives with top scores among 10 items, attack γ=0.2 → guesses 2
        let upload: Vec<ScoredItem> = vec![
            (0, 0.99),
            (1, 0.97),
            (2, 0.3),
            (3, 0.2),
            (4, 0.25),
            (5, 0.1),
            (6, 0.15),
            (7, 0.22),
            (8, 0.18),
            (9, 0.12),
        ];
        let attack = TopGuessAttack::default();
        assert_eq!(attack.guess(&upload), vec![0, 1]);
        let m = attack.evaluate(&upload, &[0, 1]);
        assert_eq!(m.f1, 1.0);
    }

    #[test]
    fn attack_fails_when_order_is_destroyed() {
        // positives hold *low* scores after a swap defense
        let upload: Vec<ScoredItem> = vec![
            (0, 0.05),
            (1, 0.08),
            (2, 0.9),
            (3, 0.85),
            (4, 0.2),
            (5, 0.3),
            (6, 0.25),
            (7, 0.22),
            (8, 0.28),
            (9, 0.12),
        ];
        let m = TopGuessAttack::default().evaluate(&upload, &[0, 1]);
        assert_eq!(m.f1, 0.0);
    }

    #[test]
    fn guess_count_follows_gamma() {
        let upload: Vec<ScoredItem> = (0..30).map(|i| (i, i as f32 / 30.0)).collect();
        assert_eq!(TopGuessAttack { gamma: 0.2 }.guess(&upload).len(), 6);
        assert_eq!(TopGuessAttack { gamma: 0.5 }.guess(&upload).len(), 15);
        assert_eq!(TopGuessAttack { gamma: 0.0 }.guess(&upload).len(), 1, "at least one guess");
    }

    #[test]
    fn nan_scores_rank_last_instead_of_panicking() {
        // a diverged client: NaN never crowds out a finite top score
        let upload: Vec<ScoredItem> =
            vec![(0, f32::NAN), (1, 0.9), (2, 0.1), (3, f32::NAN), (4, 0.3)];
        let attack = TopGuessAttack { gamma: 0.4 };
        assert_eq!(attack.guess(&upload), vec![1, 4]);
        assert_eq!(TopGuessAttack { gamma: 1.0 }.guess(&upload), vec![0, 1, 2, 3, 4]);
        let all_nan: Vec<ScoredItem> = vec![(5, f32::NAN), (6, f32::NAN)];
        assert_eq!(TopGuessAttack::default().guess(&all_nan).len(), 1);
    }

    #[test]
    fn empty_upload_guesses_nothing() {
        assert!(TopGuessAttack::default().guess(&[]).is_empty());
    }

    #[test]
    fn mean_f1_averages_and_skips_empty() {
        let attack = TopGuessAttack::default();
        let perfect: Vec<ScoredItem> = vec![(0, 0.9), (1, 0.1), (2, 0.1), (3, 0.1), (4, 0.1)];
        let miss: Vec<ScoredItem> = vec![(0, 0.1), (1, 0.9), (2, 0.1), (3, 0.2), (4, 0.3)];
        let empty: Vec<ScoredItem> = vec![];
        let truth0 = vec![0u32];
        let uploads: Vec<(&[ScoredItem], &[u32])> = vec![
            (&perfect, truth0.as_slice()),
            (&miss, truth0.as_slice()),
            (&empty, truth0.as_slice()),
        ];
        let f1 = attack.mean_f1(uploads);
        assert!((f1 - 0.5).abs() < 1e-12, "expected mean of 1.0 and 0.0, got {f1}");
    }
}
