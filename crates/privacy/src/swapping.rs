//! The swap mechanism.
//!
//! §III-B2: "the client randomly selects a proportion λ of positive items
//! with high prediction scores. Subsequently, it exchanges these positive
//! items' prediction scores with negative items." Swapping directly
//! corrupts the *order* information that a ranking attack relies on —
//! which additive LDP noise largely preserves.

use crate::ScoredItem;
use rand::Rng;

/// Swaps the scores of `⌈λ·|positives|⌉` top-scoring positives with the
/// scores of uniformly chosen distinct negatives. No-ops when either pool
/// is empty or `λ ≤ 0`.
pub fn swap_scores(
    positives: &mut [ScoredItem],
    negatives: &mut [ScoredItem],
    lambda: f64,
    rng: &mut impl Rng,
) {
    swap_scores_with(positives, negatives, lambda, rng, &mut Vec::new(), &mut Vec::new());
}

/// [`swap_scores`] with caller-owned workspaces for the positives' rank
/// order and the negatives' partner draw: the same draws in the same
/// order, and no allocation once the buffers have grown to the pools.
pub fn swap_scores_with(
    positives: &mut [ScoredItem],
    negatives: &mut [ScoredItem],
    lambda: f64,
    rng: &mut impl Rng,
    pos_order: &mut Vec<usize>,
    neg_idx: &mut Vec<usize>,
) {
    if lambda <= 0.0 || positives.is_empty() || negatives.is_empty() {
        return;
    }
    let k = ((positives.len() as f64 * lambda).ceil() as usize)
        .min(positives.len())
        .min(negatives.len());

    // top-k positive slots by score, descending. Two fixes over the naive
    // comparator: (1) NaN ranks last (shared `cmp_scores_desc` contract),
    // so a diverged local model degrades the defense instead of panicking
    // mid-run; (2) equal scores tie-break by slot index —
    // `sort_unstable_by` gives equal keys an *unspecified* order, which
    // would let a compiler/std upgrade silently break the bit-identical
    // determinism guarantee.
    pos_order.clear();
    pos_order.extend(0..positives.len());
    pos_order.sort_unstable_by(|&a, &b| {
        ptf_metrics::cmp_scores_desc(positives[a].1, positives[b].1).then(a.cmp(&b))
    });

    // k distinct negative partners (partial Fisher–Yates)
    neg_idx.clear();
    neg_idx.extend(0..negatives.len());
    for i in 0..k {
        let j = rng.gen_range(i..neg_idx.len());
        neg_idx.swap(i, j);
    }

    for (slot, &p) in pos_order[..k].iter().enumerate() {
        let n = neg_idx[slot];
        std::mem::swap(&mut positives[p].1, &mut negatives[n].1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pools() -> (Vec<ScoredItem>, Vec<ScoredItem>) {
        let pos = vec![(0, 0.95), (1, 0.90), (2, 0.85), (3, 0.80), (4, 0.75)];
        let neg = vec![(10, 0.10), (11, 0.12), (12, 0.08), (13, 0.15)];
        (pos, neg)
    }

    #[test]
    fn swaps_expected_count() {
        let (mut pos, mut neg) = pools();
        let before_pos = pos.clone();
        swap_scores(&mut pos, &mut neg, 0.4, &mut crate::test_rng(1));
        // ceil(0.4 × 5) = 2 positives changed
        let changed = pos.iter().zip(&before_pos).filter(|(a, b)| a.1 != b.1).count();
        assert_eq!(changed, 2);
    }

    #[test]
    fn swapped_positives_are_the_top_scorers() {
        let (mut pos, mut neg) = pools();
        swap_scores(&mut pos, &mut neg, 0.4, &mut crate::test_rng(2));
        // items 0 and 1 had the highest scores; they must now hold low scores
        assert!(pos[0].1 < 0.5, "top positive kept its score: {:?}", pos[0]);
        assert!(pos[1].1 < 0.5, "second positive kept its score: {:?}", pos[1]);
        assert_eq!(pos[2].1, 0.85, "non-selected positive must be untouched");
    }

    #[test]
    fn scores_are_conserved() {
        // swapping permutes the multiset of scores, never invents values
        let (mut pos, mut neg) = pools();
        let mut all_before: Vec<f32> = pos.iter().chain(neg.iter()).map(|&(_, s)| s).collect();
        swap_scores(&mut pos, &mut neg, 0.6, &mut crate::test_rng(3));
        let mut all_after: Vec<f32> = pos.iter().chain(neg.iter()).map(|&(_, s)| s).collect();
        all_before.sort_by(f32::total_cmp);
        all_after.sort_by(f32::total_cmp);
        assert_eq!(all_before, all_after);
    }

    #[test]
    fn item_ids_never_move() {
        let (mut pos, mut neg) = pools();
        swap_scores(&mut pos, &mut neg, 1.0, &mut crate::test_rng(4));
        assert_eq!(pos.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(neg.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![10, 11, 12, 13]);
    }

    #[test]
    fn lambda_zero_is_noop() {
        let (mut pos, mut neg) = pools();
        let before = (pos.clone(), neg.clone());
        swap_scores(&mut pos, &mut neg, 0.0, &mut crate::test_rng(5));
        assert_eq!((pos, neg), before);
    }

    #[test]
    fn capped_by_negative_pool() {
        let mut pos = vec![(0, 0.9), (1, 0.8), (2, 0.7)];
        let mut neg = vec![(9, 0.1)];
        swap_scores(&mut pos, &mut neg, 1.0, &mut crate::test_rng(6));
        // only one negative exists → exactly one swap
        assert_eq!(neg[0].1, 0.9);
        let changed = pos.iter().filter(|&&(_, s)| s == 0.1).count();
        assert_eq!(changed, 1);
    }

    #[test]
    fn equal_scores_tie_break_by_slot_index() {
        // with all-equal scores the selected "top" positives must be the
        // first k slots, on every std/compiler version
        let mut pos = vec![(0, 0.5), (1, 0.5), (2, 0.5), (3, 0.5)];
        let mut neg = vec![(10, 0.1), (11, 0.2)];
        swap_scores(&mut pos, &mut neg, 0.5, &mut crate::test_rng(8));
        assert_ne!(pos[0].1, 0.5, "slot 0 must be selected first");
        assert_ne!(pos[1].1, 0.5, "slot 1 must be selected second");
        assert_eq!(pos[2].1, 0.5);
        assert_eq!(pos[3].1, 0.5);
    }

    #[test]
    fn nan_scores_swap_without_panicking() {
        // regression: a diverged local model produces NaN prediction
        // scores; the defense must still run (NaN positives rank last,
        // so real high-scorers are swapped first)
        let mut pos = vec![(0, f32::NAN), (1, 0.9), (2, f32::NAN)];
        let mut neg = vec![(10, 0.1)];
        swap_scores(&mut pos, &mut neg, 0.4, &mut crate::test_rng(9));
        assert_eq!(pos[1].1, 0.1, "the only finite top-scorer must be swapped");
        assert_eq!(neg[0].1, 0.9);
    }

    #[test]
    fn empty_pools_are_noop() {
        let mut pos: Vec<ScoredItem> = vec![];
        let mut neg = vec![(0, 0.1)];
        swap_scores(&mut pos, &mut neg, 0.5, &mut crate::test_rng(7));
        assert_eq!(neg, vec![(0, 0.1)]);
    }
}
