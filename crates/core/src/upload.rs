//! Privacy-preserving construction of the client upload D̂ᵗᵢ (§III-B2).

use crate::config::DefenseKind;
use ptf_privacy::{sample_upload, swap_scores, Ldp, SamplingConfig, ScoredItem};
use rand::Rng;

/// What a client sends to the server after one local round.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientUpload {
    pub client: u32,
    /// The prediction set D̂ᵗᵢ: `(item, r̂)` pairs, order-shuffled.
    pub predictions: Vec<ScoredItem>,
    /// Ground truth: which uploaded items are true positives (sorted).
    ///
    /// **Not part of the protocol message.** The experiment harness keeps
    /// it to score the Top Guess Attack (Table V); a deployment would not
    /// transmit it.
    pub audit_positives: Vec<u32>,
}

impl ClientUpload {
    pub fn len(&self) -> usize {
        self.predictions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.predictions.is_empty()
    }
}

/// Applies the configured defense to the scored trained pools and packages
/// the upload. `pos`/`neg` carry the local model's post-training scores
/// for this round's trained positives/negatives.
///
/// `pos`/`neg` are mutated in place (defenses select/perturb them);
/// `predictions`/`audit` become the returned upload's backing storage —
/// pass the buffers recycled from this client's *previous* upload and a
/// steady-state `NoDefense`/LDP round performs zero heap allocations here
/// (the sampling defenses draw index vectors internally and stay
/// allocating; they are sized by the defense, not the hot path).
#[allow(clippy::too_many_arguments)]
pub fn build_upload_into(
    client: u32,
    pos: &mut Vec<ScoredItem>,
    neg: &mut Vec<ScoredItem>,
    defense: DefenseKind,
    sampling: &SamplingConfig,
    lambda: f64,
    rng: &mut impl Rng,
    mut predictions: Vec<ScoredItem>,
    mut audit: Vec<u32>,
) -> ClientUpload {
    predictions.clear();
    audit.clear();

    if matches!(defense, DefenseKind::Sampling | DefenseKind::SamplingSwapping) {
        let s = sample_upload(pos.len(), neg.len(), sampling, rng);
        let sel_pos: Vec<ScoredItem> = s.positives.iter().map(|&i| pos[i]).collect();
        let sel_neg: Vec<ScoredItem> = s.negatives.iter().map(|&i| neg[i]).collect();
        pos.clear();
        pos.extend_from_slice(&sel_pos);
        neg.clear();
        neg.extend_from_slice(&sel_neg);
    }

    match defense {
        DefenseKind::SamplingSwapping => {
            swap_scores(pos, neg, lambda, rng);
        }
        DefenseKind::Ldp { epsilon } => {
            let ldp = Ldp::new(epsilon);
            ldp.perturb(pos, rng);
            ldp.perturb(neg, rng);
        }
        _ => {}
    }

    audit.extend(pos.iter().map(|&(i, _)| i));
    audit.sort_unstable();

    predictions.extend_from_slice(pos);
    predictions.extend_from_slice(neg);
    // shuffle so position in the message does not leak the label
    ptf_data::shuffle(&mut predictions, rng);
    ClientUpload { client, predictions, audit_positives: audit }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptf_privacy::test_rng;

    /// [`build_upload_into`] with fresh pools and buffers.
    fn upload(
        client: u32,
        mut pos: Vec<ScoredItem>,
        mut neg: Vec<ScoredItem>,
        defense: DefenseKind,
        sampling: &SamplingConfig,
        lambda: f64,
        rng: &mut impl Rng,
    ) -> ClientUpload {
        let (predictions, audit) = (Vec::new(), Vec::new());
        build_upload_into(
            client,
            &mut pos,
            &mut neg,
            defense,
            sampling,
            lambda,
            rng,
            predictions,
            audit,
        )
    }

    fn pools() -> (Vec<ScoredItem>, Vec<ScoredItem>) {
        let pos: Vec<ScoredItem> = (0..10).map(|i| (i, 0.9 - i as f32 * 0.01)).collect();
        let neg: Vec<ScoredItem> = (100..140).map(|i| (i, 0.1 + (i % 7) as f32 * 0.01)).collect();
        (pos, neg)
    }

    #[test]
    fn no_defense_uploads_whole_pool() {
        let (pos, neg) = pools();
        let up = upload(
            3,
            pos,
            neg,
            DefenseKind::NoDefense,
            &SamplingConfig::default(),
            0.1,
            &mut test_rng(1),
        );
        assert_eq!(up.client, 3);
        assert_eq!(up.len(), 50);
        assert_eq!(up.audit_positives.len(), 10);
        assert_eq!(up.audit_positives, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn sampling_shrinks_upload() {
        let (pos, neg) = pools();
        let up = upload(
            0,
            pos.clone(),
            neg.clone(),
            DefenseKind::Sampling,
            &SamplingConfig::default(),
            0.1,
            &mut test_rng(2),
        );
        assert!(up.len() < 50, "sampling should drop items, kept {}", up.len());
        assert!(!up.audit_positives.is_empty());
        // every uploaded item comes from the trained pool
        for &(i, _) in &up.predictions {
            assert!(i < 10 || (100..140).contains(&i));
        }
    }

    #[test]
    fn sampling_keeps_scores_intact() {
        let (pos, neg) = pools();
        let up = upload(
            0,
            pos.clone(),
            neg.clone(),
            DefenseKind::Sampling,
            &SamplingConfig::default(),
            0.1,
            &mut test_rng(3),
        );
        for &(i, s) in &up.predictions {
            let original = pos
                .iter()
                .chain(neg.iter())
                .find(|&&(j, _)| j == i)
                .map(|&(_, v)| v)
                .expect("item came from the pool");
            assert_eq!(s, original, "sampling must not alter scores");
        }
    }

    #[test]
    fn swapping_perturbs_scores() {
        let (pos, neg) = pools();
        let up = upload(
            0,
            pos.clone(),
            neg,
            DefenseKind::SamplingSwapping,
            // force beta = 1 so every positive is kept, making the swap visible
            &SamplingConfig::no_defense(),
            0.5,
            &mut test_rng(4),
        );
        let changed = up
            .predictions
            .iter()
            .filter(|&&(i, s)| i < 10 && pos.iter().any(|&(j, v)| j == i && v != s))
            .count();
        assert!(changed >= 5, "half the positives should carry swapped scores, got {changed}");
    }

    #[test]
    fn ldp_perturbs_all_scores() {
        let (pos, neg) = pools();
        let up = upload(
            0,
            pos.clone(),
            neg.clone(),
            DefenseKind::Ldp { epsilon: 1.0 },
            &SamplingConfig::default(),
            0.1,
            &mut test_rng(5),
        );
        assert_eq!(up.len(), 50, "LDP uploads everything");
        let unchanged = up
            .predictions
            .iter()
            .filter(|&&(i, s)| pos.iter().chain(neg.iter()).any(|&(j, v)| j == i && v == s))
            .count();
        assert!(unchanged < 5, "{unchanged} scores survived Laplace noise untouched");
        assert!(up.predictions.iter().all(|&(_, s)| (0.0..=1.0).contains(&s)));
    }

    #[test]
    fn upload_order_is_shuffled() {
        let (pos, neg) = pools();
        let up = upload(
            0,
            pos,
            neg,
            DefenseKind::NoDefense,
            &SamplingConfig::default(),
            0.1,
            &mut test_rng(6),
        );
        // if positives stayed at the head, the first 10 ids would all be < 10
        let head_positives = up.predictions[..10].iter().filter(|&&(i, _)| i < 10).count();
        assert!(head_positives < 10, "upload not shuffled");
    }

    #[test]
    fn empty_pools_produce_empty_upload() {
        let up = upload(
            0,
            vec![],
            vec![],
            DefenseKind::SamplingSwapping,
            &SamplingConfig::default(),
            0.1,
            &mut test_rng(7),
        );
        assert!(up.is_empty());
        assert!(up.audit_positives.is_empty());
    }
}
