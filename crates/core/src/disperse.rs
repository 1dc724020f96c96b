//! Confidence-based hard construction of D̃ᵢ (§III-B3, Eq. 9).
//!
//! The server picks α items per client: a µ share by *confidence* (items
//! whose embeddings were updated most often across all uploads — their
//! predictions are best-trained) and the rest by *hardness* (the highest
//! server-predicted scores for this client), always excluding items the
//! client itself just uploaded. Table VII ablates each part by replacing
//! it with uniform random selection.
//!
//! **The order of D̃ᵢ is specified:** the confidence share first, in rank
//! order `(update count desc, id asc)`, then the hard share in rank order
//! `(server score desc, id asc)`; a random replacement share stands in its
//! share's place, in draw order. The confidence rank is the same for
//! every participant of a round — only the excluded uploads differ — so
//! the caller ranks once ([`rank_by_confidence`]) and each selection walks
//! down that order; the hard share is one streaming pass over the scores
//! with a buffer bounded by its quota.

use crate::config::{DisperseStrategy, PtfConfig};
use ptf_privacy::ScoredItem;
use rand::Rng;

/// Fills `order` with every item id by confidence rank: update count
/// descending, ties by ascending id.
pub fn rank_by_confidence(update_counts: &[u64], order: &mut Vec<u32>) {
    if order.len() != update_counts.len() {
        order.clear();
        order.extend(0..update_counts.len() as u32);
    }
    order.sort_unstable_by(|&a, &b| {
        update_counts[b as usize].cmp(&update_counts[a as usize]).then(a.cmp(&b))
    });
}

/// Buffers [`select_disperse_items`] reuses from one selection to the
/// next, so a selection's only allocation is the set it returns.
#[derive(Default)]
pub struct SelectScratch {
    /// One mark per item; all `false` between selections.
    taken: Vec<bool>,
    /// The running best `(score, id)` of the hard share, in rank order.
    hardest: Vec<(f32, u32)>,
}

/// Selects D̃ᵢ: at most `cfg.alpha` distinct items, each with its server
/// score, in the order the module docs specify.
///
/// * `confidence_order` — every item id, by [`rank_by_confidence`];
/// * `server_scores[i]` — the server model's prediction of this client's
///   preference for item `i` (the hardness signal, and the soft label the
///   client receives);
/// * `uploaded` — sorted items of the client's current upload V̂ᵗᵢ
///   (excluded per Eq. 9).
///
/// Panics if the hard share meets a NaN score.
pub fn select_disperse_items(
    confidence_order: &[u32],
    server_scores: &[f32],
    uploaded: &[u32],
    cfg: &PtfConfig,
    rng: &mut impl Rng,
    scratch: &mut SelectScratch,
) -> Vec<ScoredItem> {
    let num_items = server_scores.len();
    assert_eq!(confidence_order.len(), num_items, "signal length mismatch");
    debug_assert!(uploaded.windows(2).all(|w| w[0] < w[1]), "uploaded must be sorted");

    let conf_quota = ((cfg.alpha as f64) * cfg.mu).round() as usize;
    let hard_quota = cfg.alpha.saturating_sub(conf_quota);

    let SelectScratch { taken, hardest } = scratch;
    taken.resize(num_items, false);
    let excluded = uploaded.partition_point(|&i| (i as usize) < num_items);
    for &i in &uploaded[..excluded] {
        taken[i as usize] = true;
    }
    let free = num_items - excluded;
    let mut selected: Vec<ScoredItem> = Vec::with_capacity(cfg.alpha.min(free));

    let use_confidence = matches!(
        cfg.disperse,
        DisperseStrategy::ConfidenceHard | DisperseStrategy::ConfidenceRandom
    );
    let use_hard =
        matches!(cfg.disperse, DisperseStrategy::ConfidenceHard | DisperseStrategy::RandomHard);

    // first share: confidence (or its random replacement)
    if use_confidence {
        take_confident(&mut selected, taken, conf_quota, confidence_order, server_scores);
    } else {
        take_random(&mut selected, taken, conf_quota.min(free), server_scores, rng);
    }

    // second share: hardness (or its random replacement)
    if use_hard {
        take_hardest(&mut selected, taken, hard_quota, server_scores, hardest);
    } else {
        let free = free - selected.len();
        take_random(&mut selected, taken, hard_quota.min(free), server_scores, rng);
    }

    // un-mark what this selection marked: α + |uploaded| writes, not one
    // per catalogue item
    for &i in &uploaded[..excluded] {
        taken[i as usize] = false;
    }
    for &(i, _) in &selected {
        taken[i as usize] = false;
    }
    selected
}

/// Takes the `quota` first untaken items of `order`.
fn take_confident(
    selected: &mut Vec<ScoredItem>,
    taken: &mut [bool],
    quota: usize,
    order: &[u32],
    scores: &[f32],
) {
    let full = selected.len() + quota;
    for &i in order {
        if selected.len() == full {
            break;
        }
        if !taken[i as usize] {
            taken[i as usize] = true;
            selected.push((i, scores[i as usize]));
        }
    }
}

/// Takes the `quota` untaken items with the highest scores, ties by
/// ascending id, in one pass: `hardest` holds the best seen so far in
/// rank order, and a later item enters only by beating its last entry
/// outright (ids stream upwards, so an equal score ranks below it).
/// The last share of a selection: it leaves its picks unmarked.
fn take_hardest(
    selected: &mut Vec<ScoredItem>,
    taken: &[bool],
    quota: usize,
    scores: &[f32],
    hardest: &mut Vec<(f32, u32)>,
) {
    if quota == 0 {
        return;
    }
    hardest.clear();
    for (i, (&score, &is_taken)) in scores.iter().zip(taken).enumerate() {
        if is_taken {
            continue;
        }
        assert!(!score.is_nan(), "selection keys must not be NaN");
        if hardest.len() == quota {
            if score <= hardest[quota - 1].0 {
                continue;
            }
            hardest.pop();
        }
        let at = hardest.partition_point(|&(s, _)| s >= score);
        hardest.insert(at, (score, i as u32));
    }
    selected.extend(hardest.iter().map(|&(score, i)| (i, score)));
}

/// Takes `quota` untaken items uniformly at random (rejection sampling
/// with a fallback scan for nearly-exhausted item spaces). The caller
/// caps `quota` at the number of untaken items.
fn take_random(
    selected: &mut Vec<ScoredItem>,
    taken: &mut [bool],
    quota: usize,
    scores: &[f32],
    rng: &mut impl Rng,
) {
    let mut got = 0usize;
    let mut attempts = 0usize;
    while got < quota && attempts < quota.saturating_mul(20) {
        let i = rng.gen_range(0..scores.len());
        attempts += 1;
        if !taken[i] {
            taken[i] = true;
            selected.push((i as u32, scores[i]));
            got += 1;
        }
    }
    if got < quota {
        // dense fallback
        for (i, slot) in taken.iter_mut().enumerate() {
            if got == quota {
                break;
            }
            if !*slot {
                *slot = true;
                selected.push((i as u32, scores[i]));
                got += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ptf_tensor::test_rng;

    const STRATEGIES: [DisperseStrategy; 4] = [
        DisperseStrategy::ConfidenceHard,
        DisperseStrategy::ConfidenceRandom,
        DisperseStrategy::RandomHard,
        DisperseStrategy::Random,
    ];

    fn cfg(alpha: usize, mu: f64, disperse: DisperseStrategy) -> PtfConfig {
        PtfConfig { alpha, mu, disperse, ..PtfConfig::small() }
    }

    /// Ranks `counts`, selects, and returns the ids — after checking each
    /// carries the server's score for it.
    fn select_with(
        scratch: &mut SelectScratch,
        counts: &[u64],
        scores: &[f32],
        uploaded: &[u32],
        cfg: &PtfConfig,
        rng: &mut impl Rng,
    ) -> Vec<u32> {
        let mut order = Vec::new();
        rank_by_confidence(counts, &mut order);
        let picked = select_disperse_items(&order, scores, uploaded, cfg, rng, scratch);
        for &(i, s) in &picked {
            assert_eq!(s.to_bits(), scores[i as usize].to_bits(), "item {i}: foreign score");
        }
        picked.into_iter().map(|(i, _)| i).collect()
    }

    fn select(
        counts: &[u64],
        scores: &[f32],
        uploaded: &[u32],
        cfg: &PtfConfig,
        seed: u64,
    ) -> Vec<u32> {
        let scratch = &mut SelectScratch::default();
        select_with(scratch, counts, scores, uploaded, cfg, &mut test_rng(seed))
    }

    /// The selection this module used before the streaming one, kept as
    /// the reference: per top share, collect the untaken candidates and
    /// `select_nth_unstable_by` — then sorted into the documented rank
    /// order, which that code left unspecified; per random share, count
    /// the free items by scanning the marks.
    fn oracle(
        counts: &[u64],
        scores: &[f32],
        uploaded: &[u32],
        cfg: &PtfConfig,
        rng: &mut impl Rng,
    ) -> Vec<u32> {
        let num_items = scores.len();
        let conf_quota = ((cfg.alpha as f64) * cfg.mu).round() as usize;
        let hard_quota = cfg.alpha.saturating_sub(conf_quota);
        let mut selected = Vec::new();
        let mut taken = vec![false; num_items];
        for &i in uploaded {
            if (i as usize) < num_items {
                taken[i as usize] = true;
            }
        }
        match cfg.disperse {
            DisperseStrategy::ConfidenceHard | DisperseStrategy::ConfidenceRandom => {
                oracle_top_by(&mut selected, &mut taken, conf_quota, |i| counts[i] as f64)
            }
            _ => oracle_random(&mut selected, &mut taken, conf_quota, rng),
        }
        match cfg.disperse {
            DisperseStrategy::ConfidenceHard | DisperseStrategy::RandomHard => {
                oracle_top_by(&mut selected, &mut taken, hard_quota, |i| scores[i] as f64)
            }
            _ => oracle_random(&mut selected, &mut taken, hard_quota, rng),
        }
        selected
    }

    fn oracle_top_by(
        selected: &mut Vec<u32>,
        taken: &mut [bool],
        quota: usize,
        key: impl Fn(usize) -> f64,
    ) {
        let mut candidates: Vec<u32> =
            (0..taken.len() as u32).filter(|&i| !taken[i as usize]).collect();
        let quota = quota.min(candidates.len());
        if quota == 0 {
            return;
        }
        let rank = |a: &u32, b: &u32| {
            key(*b as usize)
                .partial_cmp(&key(*a as usize))
                .expect("selection keys must not be NaN")
                .then(a.cmp(b))
        };
        candidates.select_nth_unstable_by(quota - 1, rank);
        candidates[..quota].sort_by(rank);
        for &i in &candidates[..quota] {
            taken[i as usize] = true;
            selected.push(i);
        }
    }

    fn oracle_random(
        selected: &mut Vec<u32>,
        taken: &mut [bool],
        quota: usize,
        rng: &mut impl Rng,
    ) {
        let free = taken.iter().filter(|&&t| !t).count();
        let quota = quota.min(free);
        let mut got = 0usize;
        let mut attempts = 0usize;
        while got < quota && attempts < quota.saturating_mul(20) {
            let i = rng.gen_range(0..taken.len());
            attempts += 1;
            if !taken[i] {
                taken[i] = true;
                selected.push(i as u32);
                got += 1;
            }
        }
        for (i, slot) in taken.iter_mut().enumerate() {
            if got == quota {
                break;
            }
            if !*slot {
                *slot = true;
                selected.push(i as u32);
                got += 1;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Heavy ties on both signals (4 count values, 6 score values,
        /// ±0.0 among them), a third of the catalogue uploaded, α from 0
        /// to beyond the free item count: same items, in the documented
        /// order, after the same number of draws — on a scratch a previous,
        /// different selection has just used.
        #[test]
        fn streaming_selection_equals_the_oracle(
            items in proptest::collection::vec((0u64..4, 0u8..6, 0u8..3), 1..60),
            alpha in 0usize..80,
            mu_quarters in 0u8..=4,
            strategy in 0usize..4,
            seed in 0u64..1000,
        ) {
            let counts: Vec<u64> = items.iter().map(|t| t.0).collect();
            let scores: Vec<f32> =
                items.iter().map(|t| [-0.0, 0.0, 0.25, 0.5, 0.5, 1.0][t.1 as usize]).collect();
            let uploaded: Vec<u32> =
                (0..items.len() as u32).filter(|&i| items[i as usize].2 == 0).collect();
            let cfg = cfg(alpha, f64::from(mu_quarters) / 4.0, STRATEGIES[strategy]);

            let mut want_rng = test_rng(seed);
            let want = oracle(&counts, &scores, &uploaded, &cfg, &mut want_rng);

            let scratch = &mut SelectScratch::default();
            let other: Vec<u32> = (0..items.len() as u32).filter(|i| i % 2 == 1).collect();
            select_with(scratch, &counts, &scores, &other, &cfg, &mut test_rng(seed + 1));
            let mut got_rng = test_rng(seed);
            let got = select_with(scratch, &counts, &scores, &uploaded, &cfg, &mut got_rng);

            prop_assert_eq!(got, want);
            prop_assert_eq!(got_rng.gen::<u64>(), want_rng.gen::<u64>(), "RNG streams diverged");
        }
    }

    #[test]
    fn uploaded_ids_beyond_the_catalogue_are_ignored() {
        let (counts, scores) = signals();
        let cfg = cfg(6, 0.5, DisperseStrategy::ConfidenceHard);
        assert_eq!(
            select(&counts, &scores, &[0, 19, 20, 400], &cfg, 1),
            oracle(&counts, &scores, &[0, 19, 20, 400], &cfg, &mut test_rng(1))
        );
    }

    #[test]
    #[should_panic(expected = "selection keys must not be NaN")]
    fn nan_score_in_the_hard_share_panics() {
        let (counts, mut scores) = signals();
        scores[7] = f32::NAN;
        select(&counts, &scores, &[], &cfg(6, 0.5, DisperseStrategy::ConfidenceHard), 1);
    }

    fn signals() -> (Vec<u64>, Vec<f32>) {
        // items 0..20; update counts favour low ids, scores favour high ids
        let counts: Vec<u64> = (0..20).map(|i| (20 - i) as u64).collect();
        let scores: Vec<f32> = (0..20).map(|i| i as f32 / 20.0).collect();
        (counts, scores)
    }

    #[test]
    fn confidence_hard_picks_both_signals() {
        let (counts, scores) = signals();
        let sel = select(&counts, &scores, &[], &cfg(6, 0.5, DisperseStrategy::ConfidenceHard), 1);
        // confidence share (highest counts), then hard share (highest
        // scores), each in rank order
        assert_eq!(sel, vec![0, 1, 2, 19, 18, 17]);
    }

    #[test]
    fn uploaded_items_are_excluded() {
        let (counts, scores) = signals();
        let uploaded = vec![0, 1, 18, 19];
        let sel =
            select(&counts, &scores, &uploaded, &cfg(6, 0.5, DisperseStrategy::ConfidenceHard), 2);
        for &i in &sel {
            assert!(uploaded.binary_search(&i).is_err(), "uploaded item {i} dispersed");
        }
        // next-best replacements appear instead
        assert!(sel.contains(&2) && sel.contains(&3), "{sel:?}");
        assert!(sel.contains(&17) && sel.contains(&16), "{sel:?}");
    }

    #[test]
    fn no_duplicates_across_shares() {
        // make the same items best on both signals
        let counts: Vec<u64> = (0..10).map(|i| if i < 3 { 100 } else { 1 }).collect();
        let scores: Vec<f32> = (0..10).map(|i| if i < 3 { 0.9 } else { 0.1 }).collect();
        let sel = select(&counts, &scores, &[], &cfg(6, 0.5, DisperseStrategy::ConfidenceHard), 3);
        let mut dedup = sel.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), sel.len(), "duplicate selections: {sel:?}");
    }

    #[test]
    fn random_strategy_ignores_signals() {
        let (counts, scores) = signals();
        // with 20 items and α=6, a signal-driven pick would always include
        // item 0 (top count) or 19 (top score); random eventually misses both
        let mut missed_either = false;
        for seed in 0..20 {
            let sel = select(&counts, &scores, &[], &cfg(6, 0.5, DisperseStrategy::Random), seed);
            assert_eq!(sel.len(), 6);
            if !sel.contains(&0) || !sel.contains(&19) {
                missed_either = true;
            }
        }
        assert!(missed_either, "random selection suspiciously mirrors the signals");
    }

    #[test]
    fn mu_controls_share_split() {
        let (counts, scores) = signals();
        // µ=1: all confidence
        let sel = select(&counts, &scores, &[], &cfg(4, 1.0, DisperseStrategy::ConfidenceHard), 4);
        assert_eq!(sel, vec![0, 1, 2, 3]);
        // µ=0: all hard
        let sel = select(&counts, &scores, &[], &cfg(4, 0.0, DisperseStrategy::ConfidenceHard), 5);
        assert_eq!(sel, vec![19, 18, 17, 16]);
    }

    #[test]
    fn exhausted_item_space_returns_fewer() {
        let counts = vec![1u64; 5];
        let scores = vec![0.5f32; 5];
        let uploaded = vec![0, 1, 2, 3];
        let sel = select(&counts, &scores, &uploaded, &cfg(10, 0.5, DisperseStrategy::Random), 6);
        assert_eq!(sel, vec![4], "only one free item existed");
    }
}
