//! Privacy-preserving construction of the client upload D̂ᵗᵢ (§III-B2).
//!
//! The upload is the message and nothing more: Table V's ground truth —
//! which uploaded items are the client's positives — is the client's
//! partition, which the experiment holds (`PtfFedRec::attack_f1`).

use crate::config::DefenseKind;
use ptf_federated::RoundScratch;
use ptf_privacy::{sample_upload_into, swap_scores_with, Ldp, SamplingConfig, ScoredItem};
use rand::Rng;

/// What a client sends to the server after one local round.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientUpload {
    pub client: u32,
    /// The prediction set D̂ᵗᵢ: `(item, r̂)` pairs, order-shuffled.
    pub predictions: Vec<ScoredItem>,
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
/// the upload. `scratch.scored_pos`/`scratch.scored_neg` carry the local
/// model's post-training scores for this round's trained
/// positives/negatives.
///
/// The pools are mutated in place (defenses select/perturb them), and the
/// defenses draw their indices into `scratch`'s workspaces;
/// `predictions` becomes the returned upload's backing storage — pass the
/// buffer recycled from this client's *previous* upload and a
/// steady-state round performs zero heap allocations here under every
/// defense.
pub fn build_upload_into(
    client: u32,
    scratch: &mut RoundScratch,
    defense: DefenseKind,
    sampling: &SamplingConfig,
    lambda: f64,
    rng: &mut impl Rng,
    mut predictions: Vec<ScoredItem>,
) -> ClientUpload {
    let RoundScratch { scored_pos: pos, scored_neg: neg, picked, pos_idx, neg_idx, .. } = scratch;
    predictions.clear();
    // room for the whole pool: a sampled upload's size varies by round,
    // and this way a bigger one never regrows the recycled buffer
    predictions.reserve(pos.len() + neg.len());

    if matches!(defense, DefenseKind::Sampling | DefenseKind::SamplingSwapping) {
        // room for either whole pool: the sampled share varies by round
        picked.clear();
        picked.reserve(pos.len().max(neg.len()));
        sample_upload_into(pos.len(), neg.len(), sampling, rng, pos_idx, neg_idx);
        for (pool, idx) in [(&mut *pos, &*pos_idx), (&mut *neg, &*neg_idx)] {
            picked.clear();
            picked.extend(idx.iter().map(|&i| pool[i]));
            pool.clear();
            pool.extend_from_slice(picked);
        }
    }

    match defense {
        DefenseKind::SamplingSwapping => {
            swap_scores_with(pos, neg, lambda, rng, pos_idx, neg_idx);
        }
        DefenseKind::Ldp { epsilon } => {
            let ldp = Ldp::new(epsilon);
            ldp.perturb(pos, rng);
            ldp.perturb(neg, rng);
        }
        _ => {}
    }

    predictions.extend_from_slice(pos);
    predictions.extend_from_slice(neg);
    // shuffle so position in the message does not leak the label
    ptf_data::shuffle(&mut predictions, rng);
    ClientUpload { client, predictions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptf_privacy::test_rng;

    /// [`build_upload_into`] with fresh pools and buffers.
    fn upload(
        client: u32,
        pos: Vec<ScoredItem>,
        neg: Vec<ScoredItem>,
        defense: DefenseKind,
        sampling: &SamplingConfig,
        lambda: f64,
        rng: &mut impl Rng,
    ) -> ClientUpload {
        let mut scratch =
            RoundScratch { scored_pos: pos, scored_neg: neg, ..RoundScratch::default() };
        build_upload_into(client, &mut scratch, defense, sampling, lambda, rng, Vec::new())
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
        let mut ids: Vec<u32> = up.predictions.iter().map(|&(i, _)| i).collect();
        ids.sort_unstable();
        assert_eq!(ids, [(0..10).collect::<Vec<u32>>(), (100..140).collect()].concat());
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
        assert!(up.predictions.iter().any(|&(i, _)| i < 10), "sampling kept no positive");
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

    /// The upload each defense builds in reused workspaces, against the
    /// allocating `sample_upload` and `swap_scores` run on the same
    /// stream: the same draws in the same order give the same upload, and
    /// the rest of the stream is where both leave it. One scratch serves
    /// every call, so its workspaces arrive warm and sized for other pools.
    #[test]
    fn workspaces_draw_as_the_allocating_defenses_do() {
        use ptf_privacy::{sample_upload, swap_scores};
        let mut scratch = RoundScratch::default();
        let defenses = [
            DefenseKind::NoDefense,
            DefenseKind::Sampling,
            DefenseKind::SamplingSwapping,
            DefenseKind::Ldp { epsilon: 1.0 },
        ];
        for (seed, defense) in (0..40).zip(defenses.into_iter().cycle()) {
            let pos: Vec<ScoredItem> =
                (0..3 + seed % 17).map(|i| (i, ((i * 7 + seed) % 11) as f32 / 10.0)).collect();
            let neg: Vec<ScoredItem> =
                (100..104 + seed * 3 % 50).map(|i| (i, (i % 5) as f32 / 9.0)).collect();
            let (mut p, mut n, mut rng) = (pos.clone(), neg.clone(), test_rng(seed.into()));
            if matches!(defense, DefenseKind::Sampling | DefenseKind::SamplingSwapping) {
                let s = sample_upload(p.len(), n.len(), &SamplingConfig::default(), &mut rng);
                p = s.positives.iter().map(|&i| pos[i]).collect();
                n = s.negatives.iter().map(|&i| neg[i]).collect();
            }
            match defense {
                DefenseKind::SamplingSwapping => swap_scores(&mut p, &mut n, 0.3, &mut rng),
                DefenseKind::Ldp { epsilon } => {
                    Ldp::new(epsilon).perturb(&mut p, &mut rng);
                    Ldp::new(epsilon).perturb(&mut n, &mut rng);
                }
                _ => {}
            }
            let mut predictions = [p, n].concat();
            ptf_data::shuffle(&mut predictions, &mut rng);
            let want = ClientUpload { client: 9, predictions };

            let mut got_rng = test_rng(seed.into());
            (scratch.scored_pos, scratch.scored_neg) = (pos, neg);
            let got = build_upload_into(
                9,
                &mut scratch,
                defense,
                &SamplingConfig::default(),
                0.3,
                &mut got_rng,
                Vec::new(),
            );
            let bits = |u: &ClientUpload| -> Vec<(u32, u32)> {
                u.predictions.iter().map(|&(i, s)| (i, s.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(&want), "{defense:?}, seed {seed}");
            assert_eq!(got_rng.gen::<u64>(), rng.gen::<u64>(), "{defense:?}, seed {seed}");
        }
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
    }
}
