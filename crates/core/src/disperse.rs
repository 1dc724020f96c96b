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
//! share's place, in draw order. An item the server scores NaN is never
//! picked; a random draw that lands on one is spent. (The selection
//! marks uploaded and already-picked items the same way, by overwriting
//! their logits with NaN, so the uploaded ids may come in any order.)
//! The confidence rank is the same for every participant of a round —
//! only the excluded uploads differ — so the caller ranks once
//! ([`rank_by_confidence`]) and each selection walks down that order.
//!
//! **Selection reads logits.** A score is `σ(logit)` ([`stable_sigmoid`]),
//! and the server's model hands over logits, so the sigmoid is taken only
//! where a probability is needed or could decide the order:
//!
//! * the confidence and random shares take σ of the items they pick;
//! * the hard share makes two passes over the catalogue. The first takes
//!   the highest eligible (non-NaN) logit of each of about 8q blocks (q
//!   its quota) and, of those, the q-th highest, b: at least q eligible
//!   items sit at or above b. Then a logit `lo < b` is found by doubling
//!   a step down from one ulp until σ(lo) sits more than two ulps below
//!   σ(b) (−∞ where σ is flat at 0 there or b is infinite). The second
//!   pass ranks by `(σ desc, id asc)` only the eligible items with logit
//!   ≥ lo, and skips every block whose highest logit is below lo.
//!
//! σ is monotone to within one ulp ([`stable_sigmoid`]): the q items at
//! or above b each score at least one ulp below σ(b), and every item
//! below `lo` scores at most one ulp above σ(lo), strictly less. So an
//! item below `lo` cannot enter the share, the second pass sees every
//! item of the top q, and D̃ᵢ's ids, order and scores are what ranking
//! every item by σ gives — where σ saturates (two logits above 16.6 both
//! score 1.0) or steps back by an ulp, the order is still σ's, ties by
//! id, not the logits'.

use crate::config::{DisperseStrategy, PtfConfig};
use ptf_models::stable_sigmoid;
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
    /// The hard share's buffer: its block maxima while it picks their
    /// quota-th highest, then the best `(score, id)` in rank order.
    hardest: Vec<(f32, u32)>,
    /// The highest eligible logit of each block of the hard share.
    block_max: Vec<f32>,
}

/// Selects D̃ᵢ: at most `cfg.alpha` distinct items, each with its server
/// score `σ(logit)`, in the order the module docs specify.
///
/// * `confidence_order` — every item id, by [`rank_by_confidence`];
/// * `server_logits[i]` — the server model's logit for this client and
///   item `i` (the hardness signal; its sigmoid is the soft label the
///   client receives). The selection works in this buffer: it marks an
///   item out of the running by overwriting its logit with NaN, the mark
///   a NaN-scored item carries already, so on return the entries of the
///   uploaded items and of the first share are NaN;
/// * `uploaded` — the items of the client's current upload V̂ᵗᵢ, distinct,
///   in any order (excluded per Eq. 9; an id beyond the catalogue is
///   ignored).
pub fn select_disperse_items(
    confidence_order: &[u32],
    server_logits: &mut [f32],
    uploaded: impl IntoIterator<Item = u32>,
    cfg: &PtfConfig,
    rng: &mut impl Rng,
    scratch: &mut SelectScratch,
) -> Vec<ScoredItem> {
    let num_items = server_logits.len();
    assert_eq!(confidence_order.len(), num_items, "signal length mismatch");

    let conf_quota = ((cfg.alpha as f64) * cfg.mu).round() as usize;
    let hard_quota = cfg.alpha.saturating_sub(conf_quota);

    let mut excluded = 0;
    for i in uploaded {
        if let Some(x) = server_logits.get_mut(i as usize) {
            *x = f32::NAN;
            excluded += 1;
        }
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
        take_confident(&mut selected, conf_quota, confidence_order, server_logits);
    } else {
        take_random(&mut selected, conf_quota.min(free), server_logits, rng);
    }

    // second share: hardness (or its random replacement)
    if use_hard {
        take_hardest(&mut selected, hard_quota, server_logits, scratch);
    } else {
        let free = free - selected.len();
        take_random(&mut selected, hard_quota.min(free), server_logits, rng);
    }
    selected
}

/// Takes the `quota` first non-NaN items of `order`, marking them.
fn take_confident(selected: &mut Vec<ScoredItem>, quota: usize, order: &[u32], logits: &mut [f32]) {
    let full = selected.len() + quota;
    for &i in order {
        if selected.len() == full {
            break;
        }
        let x = &mut logits[i as usize];
        if !x.is_nan() {
            selected.push((i, stable_sigmoid(*x)));
            *x = f32::NAN;
        }
    }
}

/// Takes the `quota` non-NaN items with the highest scores, ties by
/// ascending id, in the two passes the module docs describe. The last
/// share of a selection: it leaves its picks unmarked.
fn take_hardest(
    selected: &mut Vec<ScoredItem>,
    quota: usize,
    logits: &[f32],
    SelectScratch { hardest, block_max }: &mut SelectScratch,
) {
    if quota == 0 {
        return;
    }
    let lo = take_floor_below(take_bound(logits, quota, hardest, block_max));
    // pass 2: rank by score whatever could reach the top q, skipping
    // the blocks that cannot (a NaN is never `>=` anything)
    let len = take_block_len(logits.len(), quota);
    hardest.clear();
    for (b, _) in block_max.iter().enumerate().filter(|&(_, &m)| m >= lo) {
        let at = b * len;
        for (i, &x) in logits[at..].iter().take(len).enumerate() {
            if x >= lo {
                take_ranked(hardest, quota, stable_sigmoid(x), (at + i) as u32);
            }
        }
    }
    selected.extend(hardest.iter().map(|&(score, i)| (i, score)));
}

/// Pass 1 of the hard share: fills `block_max` with each block's
/// highest logit and returns their `quota`-th highest — a logit at least
/// `quota` non-NaN items reach, one per block (−∞ if fewer than `quota`
/// blocks have one above −∞).
fn take_bound(
    logits: &[f32],
    quota: usize,
    buf: &mut Vec<(f32, u32)>,
    block_max: &mut Vec<f32>,
) -> f32 {
    block_max.clear();
    block_max.extend(logits.chunks(take_block_len(logits.len(), quota)).map(take_block_max));
    buf.clear();
    buf.extend(block_max.iter().map(|&m| (m, 0)));
    if buf.len() < quota {
        return f32::NEG_INFINITY;
    }
    buf.select_nth_unstable_by(quota - 1, |a, b| b.0.total_cmp(&a.0));
    buf[quota - 1].0
}

/// Items per block of the hard share's first pass: about eight blocks
/// per slot of its quota, in whole lane chunks of [`take_block_max`].
fn take_block_len(num_items: usize, quota: usize) -> usize {
    (num_items / (8 * quota)).max(1).next_multiple_of(BLOCK_LANES)
}

const BLOCK_LANES: usize = 8;

/// The highest logit of a block, NaN skipped (a NaN is never higher than
/// anything); −∞ if there is none. Eight independent lanes, so it
/// vectorizes.
fn take_block_max(logits: &[f32]) -> f32 {
    let higher = |m: f32, x: f32| if x > m { x } else { m };
    let full = logits.len() - logits.len() % BLOCK_LANES;
    let mut lanes = [f32::NEG_INFINITY; BLOCK_LANES];
    for x in logits[..full].chunks_exact(BLOCK_LANES) {
        for l in 0..BLOCK_LANES {
            lanes[l] = higher(lanes[l], x[l]);
        }
    }
    lanes.into_iter().chain(logits[full..].iter().copied()).fold(f32::NEG_INFINITY, higher)
}

/// Streams `(key, id)` into `best`, which holds the at most `quota` best
/// seen so far in rank order `(key desc, id asc)`. Ids arrive ascending,
/// so an entry enters a full buffer only by beating its last one
/// outright.
#[inline]
fn take_ranked(best: &mut Vec<(f32, u32)>, quota: usize, key: f32, id: u32) {
    if best.len() == quota {
        if key <= best[quota - 1].0 {
            return;
        }
        best.pop();
    }
    let at = best.partition_point(|&(k, _)| k >= key);
    best.insert(at, (key, id));
}

/// A logit `lo < x` below which nothing scores as high as the q best,
/// given that at least q items have a logit of `x` or more: each of
/// those scores at least `s`, one ulp under σ(x), and a logit under `lo`
/// at most one ulp over σ(lo) — so `lo` is where that falls below `s`,
/// found by a step down from `x` that starts at one ulp and doubles. −∞
/// where no finite bound exists: `x` infinite, or σ(x) at most the
/// smallest subnormal.
fn take_floor_below(x: f32) -> f32 {
    let s = stable_sigmoid(x).next_down();
    if !x.is_finite() || s <= 0.0 {
        return f32::NEG_INFINITY;
    }
    let mut step = x - x.next_down();
    loop {
        let lo = x - step;
        if lo == f32::NEG_INFINITY || stable_sigmoid(lo).next_up() < s {
            return lo;
        }
        step *= 2.0;
    }
}

/// Takes `quota` non-NaN items uniformly at random, marking them
/// (rejection sampling — a draw that lands on a NaN is a spent attempt —
/// with a fallback scan for nearly-exhausted item spaces). The caller
/// caps `quota` at the number of items not yet excluded or picked.
fn take_random(
    selected: &mut Vec<ScoredItem>,
    quota: usize,
    logits: &mut [f32],
    rng: &mut impl Rng,
) {
    let mut got = 0usize;
    let mut attempts = 0usize;
    while got < quota && attempts < quota.saturating_mul(20) {
        let i = rng.gen_range(0..logits.len());
        attempts += 1;
        if !logits[i].is_nan() {
            selected.push((i as u32, stable_sigmoid(logits[i])));
            logits[i] = f32::NAN;
            got += 1;
        }
    }
    if got < quota {
        // dense fallback
        for (i, x) in logits.iter_mut().enumerate() {
            if got == quota {
                break;
            }
            if !x.is_nan() {
                selected.push((i as u32, stable_sigmoid(*x)));
                *x = f32::NAN;
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

    /// Logits with heavy ties: ±0.0; neighbours σ cannot tell apart
    /// (5.0 and the next f32 up); a pair σ ranks against their order
    /// (σ(−1.9443452) > σ(−1.9443451)); distinct saturated values above
    /// 16.7, which all score 1.0; one that scores 0.0; ±∞; NaN last.
    const PALETTE: [f32; 18] = [
        -0.0,
        0.0,
        0.25,
        0.5,
        1.0,
        5.0,
        5.000_000_5,
        5.000_01,
        -1.944_345_1,
        -1.944_345_2,
        16.7,
        17.5,
        40.0,
        1e30,
        -110.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];

    fn cfg(alpha: usize, mu: f64, disperse: DisperseStrategy) -> PtfConfig {
        PtfConfig { alpha, mu, disperse, ..PtfConfig::small() }
    }

    /// Ranks `counts`, selects, and returns the ids — after checking each
    /// carries the sigmoid of the server's logit for it.
    fn select_with(
        scratch: &mut SelectScratch,
        counts: &[u64],
        logits: &[f32],
        uploaded: &[u32],
        cfg: &PtfConfig,
        rng: &mut impl Rng,
    ) -> Vec<u32> {
        let mut order = Vec::new();
        rank_by_confidence(counts, &mut order);
        let mut work = logits.to_vec();
        let picked =
            select_disperse_items(&order, &mut work, uploaded.iter().copied(), cfg, rng, scratch);
        for &(i, s) in &picked {
            let want = stable_sigmoid(logits[i as usize]);
            assert_eq!(s.to_bits(), want.to_bits(), "item {i}: foreign score");
        }
        picked.into_iter().map(|(i, _)| i).collect()
    }

    fn select(
        counts: &[u64],
        logits: &[f32],
        uploaded: &[u32],
        cfg: &PtfConfig,
        seed: u64,
    ) -> Vec<u32> {
        let scratch = &mut SelectScratch::default();
        select_with(scratch, counts, logits, uploaded, cfg, &mut test_rng(seed))
    }

    /// The selection this module used before the streaming one, kept as
    /// the reference: it ranks *scores*, σ of every logit. Per top share,
    /// collect the untaken non-NaN candidates and `select_nth_unstable_by`
    /// — then sorted into the documented rank order, which that code left
    /// unspecified; per random share, count the free items by scanning
    /// the marks, and spend a draw on a NaN item.
    fn oracle(
        counts: &[u64],
        logits: &[f32],
        uploaded: &[u32],
        cfg: &PtfConfig,
        rng: &mut impl Rng,
    ) -> Vec<u32> {
        let scores: Vec<f32> = logits.iter().map(|&x| stable_sigmoid(x)).collect();
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
        let ineligible: Vec<bool> = scores.iter().map(|s| s.is_nan()).collect();
        match cfg.disperse {
            DisperseStrategy::ConfidenceHard | DisperseStrategy::ConfidenceRandom => {
                oracle_top_by(&mut selected, &mut taken, &ineligible, conf_quota, |i| {
                    counts[i] as f64
                })
            }
            _ => oracle_random(&mut selected, &mut taken, &ineligible, conf_quota, rng),
        }
        match cfg.disperse {
            DisperseStrategy::ConfidenceHard | DisperseStrategy::RandomHard => {
                oracle_top_by(&mut selected, &mut taken, &ineligible, hard_quota, |i| {
                    scores[i] as f64
                })
            }
            _ => oracle_random(&mut selected, &mut taken, &ineligible, hard_quota, rng),
        }
        selected
    }

    fn oracle_top_by(
        selected: &mut Vec<u32>,
        taken: &mut [bool],
        ineligible: &[bool],
        quota: usize,
        key: impl Fn(usize) -> f64,
    ) {
        let mut candidates: Vec<u32> = (0..taken.len() as u32)
            .filter(|&i| !taken[i as usize] && !ineligible[i as usize])
            .collect();
        let quota = quota.min(candidates.len());
        if quota == 0 {
            return;
        }
        let rank = |a: &u32, b: &u32| {
            key(*b as usize)
                .partial_cmp(&key(*a as usize))
                .expect("candidates are not NaN")
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
        ineligible: &[bool],
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
            if !taken[i] && !ineligible[i] {
                taken[i] = true;
                selected.push(i as u32);
                got += 1;
            }
        }
        for (i, slot) in taken.iter_mut().enumerate() {
            if got == quota {
                break;
            }
            if !*slot && !ineligible[i] {
                *slot = true;
                selected.push(i as u32);
                got += 1;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Heavy ties on both signals (4 count values, 16 logits from
        /// [`PALETTE`]: saturated, ±0.0, ±∞, σ-equal neighbours, NaN in
        /// half the cases), a third of the catalogue uploaded, α from 0
        /// to beyond the free item count: the same items as ranking σ of
        /// every logit, in the documented order, after the same number
        /// of draws — on a scratch a previous, different selection has
        /// just used.
        #[test]
        fn streaming_selection_equals_the_oracle(
            items in proptest::collection::vec((0u64..4, 0usize..PALETTE.len(), 0u8..3), 1..60),
            alpha in 0usize..80,
            mu_quarters in 0u8..=4,
            strategy in 0usize..4,
            seed in 0u64..1000,
            with_nan in any::<bool>(),
        ) {
            let counts: Vec<u64> = items.iter().map(|t| t.0).collect();
            let palette = if with_nan { &PALETTE[..] } else { &PALETTE[..PALETTE.len() - 1] };
            let logits: Vec<f32> = items.iter().map(|t| palette[t.1 % palette.len()]).collect();
            let uploaded: Vec<u32> =
                (0..items.len() as u32).filter(|&i| items[i as usize].2 == 0).collect();
            let cfg = cfg(alpha, f64::from(mu_quarters) / 4.0, STRATEGIES[strategy]);

            let mut want_rng = test_rng(seed);
            let want = oracle(&counts, &logits, &uploaded, &cfg, &mut want_rng);

            let scratch = &mut SelectScratch::default();
            let other: Vec<u32> = (0..items.len() as u32).filter(|i| i % 2 == 1).collect();
            select_with(scratch, &counts, &logits, &other, &cfg, &mut test_rng(seed + 1));
            let mut got_rng = test_rng(seed);
            let got = select_with(scratch, &counts, &logits, &uploaded, &cfg, &mut got_rng);

            prop_assert_eq!(got, want);
            prop_assert_eq!(got_rng.gen::<u64>(), want_rng.gen::<u64>(), "RNG streams diverged");
        }

        /// Pass 1 on long catalogues with ties, ±∞ and NaN: every block
        /// maximum is its block's highest non-NaN logit, and at least
        /// `quota` items reach the bound (or it is −∞ and fewer than
        /// `quota` blocks hold one above −∞).
        #[test]
        fn the_bound_has_quota_eligible_items_at_or_above_it(
            items in proptest::collection::vec((0usize..PALETTE.len(), 0u8..4, -50i32..50), 0..700),
            quota in 1usize..90,
        ) {
            let logits: Vec<f32> = items
                .iter()
                .map(|&(p, _, k)| if p % 3 == 0 { k as f32 / 8.0 } else { PALETTE[p] })
                .collect();
            // a quarter of the items already out of the running
            let logits: Vec<f32> =
                logits.iter().zip(&items).map(|(&x, t)| if t.1 == 0 { f32::NAN } else { x }).collect();
            let (mut buf, mut block_max) = (Vec::new(), Vec::new());
            let bound = take_bound(&logits, quota, &mut buf, &mut block_max);
            let len = take_block_len(logits.len(), quota);
            for (b, &m) in block_max.iter().enumerate() {
                let block = logits.iter().skip(b * len).take(len);
                let want = block.fold(f32::NEG_INFINITY, |m, &x| m.max(x)); // skips NaN
                prop_assert_eq!(m.to_bits(), want.to_bits(), "block {}", b);
            }
            let reach = logits.iter().filter(|&&x| x >= bound);
            if bound > f32::NEG_INFINITY {
                prop_assert!(reach.count() >= quota, "bound {bound} reached by too few");
            } else {
                prop_assert!(block_max.iter().filter(|&&m| m > f32::NEG_INFINITY).count() < quota);
            }
        }

        /// Logits packed within 48 ulps of where σ steps back by an ulp
        /// (−1.9443452), of values σ cannot tell apart, and of where it
        /// saturates and underflows: every score tie and wobble is near
        /// the hard share's boundary, and the selection still equals
        /// ranking σ of every logit — on catalogues long enough that the
        /// first pass cuts its buffer.
        #[test]
        fn streaming_selection_equals_the_oracle_on_adjacent_logits(
            items in proptest::collection::vec((0usize..6, 0usize..48, 0u8..4), 1..400),
            alpha in 1usize..40,
            strategy in 0usize..4,
            seed in 0u64..1000,
        ) {
            const CENTRES: [f32; 6] = [-1.944_345_2, -0.7, 0.0, 5.0, 16.6, -103.3];
            let logits: Vec<f32> = items
                .iter()
                .map(|&(c, ulps, _)| (0..ulps).fold(CENTRES[c], |x, _| x.next_up()))
                .collect();
            let counts: Vec<u64> = items.iter().map(|t| u64::from(t.2)).collect();
            let uploaded: Vec<u32> =
                (0..items.len() as u32).filter(|&i| items[i as usize].2 == 0).collect();
            let cfg = cfg(alpha, 0.25, STRATEGIES[strategy]);
            let mut want_rng = test_rng(seed);
            let want = oracle(&counts, &logits, &uploaded, &cfg, &mut want_rng);
            let mut got_rng = test_rng(seed);
            let scratch = &mut SelectScratch::default();
            let got = select_with(scratch, &counts, &logits, &uploaded, &cfg, &mut got_rng);
            prop_assert_eq!(got, want);
            prop_assert_eq!(got_rng.gen::<u64>(), want_rng.gen::<u64>(), "RNG streams diverged");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The selection marks the uploaded items one by one, so their
        /// order cannot matter: a sorted and a shuffled upload (ids
        /// beyond the catalogue included) give the same D̃ᵢ, scores
        /// and all, after the same draws.
        #[test]
        fn a_shuffled_upload_disperses_as_the_sorted_one(
            items in proptest::collection::vec((0u64..4, 0usize..PALETTE.len(), 0u8..3), 1..120),
            alpha in 0usize..40,
            strategy in 0usize..4,
            seed in 0u64..1000,
        ) {
            let counts: Vec<u64> = items.iter().map(|t| t.0).collect();
            let logits: Vec<f32> = items.iter().map(|t| PALETTE[t.1]).collect();
            let mut sorted: Vec<u32> =
                (0..items.len() as u32).filter(|&i| items[i as usize].2 == 0).collect();
            sorted.extend([items.len() as u32, 5_000]);
            let mut shuffled = sorted.clone();
            ptf_data::shuffle(&mut shuffled, &mut test_rng(seed + 7));
            let cfg = cfg(alpha, 0.5, STRATEGIES[strategy]);
            let mut order = Vec::new();
            rank_by_confidence(&counts, &mut order);
            let mut picks = Vec::new();
            let mut next_draws = Vec::new();
            for uploaded in [&sorted, &shuffled] {
                let (mut work, mut rng) = (logits.clone(), test_rng(seed));
                let scratch = &mut SelectScratch::default();
                let ids = uploaded.iter().copied();
                let picked = select_disperse_items(&order, &mut work, ids, &cfg, &mut rng, scratch);
                picks.push(picked.iter().map(|&(i, s)| (i, s.to_bits())).collect::<Vec<_>>());
                next_draws.push(rng.gen::<u64>());
            }
            prop_assert_eq!(&picks[0], &picks[1]);
            prop_assert_eq!(next_draws[0], next_draws[1], "RNG streams diverged");
        }
    }

    #[test]
    fn uploaded_ids_beyond_the_catalogue_are_ignored() {
        let (counts, logits) = signals();
        let cfg = cfg(6, 0.5, DisperseStrategy::ConfidenceHard);
        assert_eq!(
            select(&counts, &logits, &[0, 19, 20, 400], &cfg, 1),
            oracle(&counts, &logits, &[0, 19, 20, 400], &cfg, &mut test_rng(1))
        );
    }

    #[test]
    fn nan_logits_are_never_dispersed() {
        // a diverged server: NaN on the items each share would pick first
        let (counts, mut logits) = signals();
        for i in [0, 1, 7, 18, 19] {
            logits[i] = f32::NAN;
        }
        for strategy in STRATEGIES {
            let sel = select(&counts, &logits, &[], &cfg(6, 0.5, strategy), 1);
            assert_eq!(sel.len(), 6, "{strategy:?}: {sel:?}");
            assert!(sel.iter().all(|&i| !logits[i as usize].is_nan()), "{strategy:?}: {sel:?}");
        }
        let sel = select(&counts, &logits, &[], &cfg(6, 0.5, DisperseStrategy::ConfidenceHard), 1);
        assert_eq!(sel, vec![2, 3, 4, 17, 16, 15]);
        // all NaN: nothing to send, and no panic
        for strategy in STRATEGIES {
            assert!(select(&counts, &[f32::NAN; 20], &[], &cfg(6, 0.5, strategy), 2).is_empty());
        }
    }

    #[test]
    fn saturated_logits_tie_by_id_not_by_logit() {
        // all four score 1.0: the hard share is id order, as ranking
        // scores gives, not logit order (1, 3, 0, 2)
        let logits = [20.0f32, 1e30, 17.0, 25.0, 3.0];
        let sel = select(&[0; 5], &logits, &[], &cfg(3, 0.0, DisperseStrategy::ConfidenceHard), 1);
        assert_eq!(sel, vec![0, 1, 2]);
    }

    #[test]
    fn saturated_and_wobbling_scores_rank_by_score() {
        // σ ranks −1.9443452 one ulp above −1.9443451: the hard share
        // follows σ, not the logits
        let logits = [-1.944_345_1f32, -1.944_345_2, -5.0];
        assert!(stable_sigmoid(logits[1]) > stable_sigmoid(logits[0]));
        let sel = select(&[0; 3], &logits, &[], &cfg(1, 0.0, DisperseStrategy::ConfidenceHard), 1);
        assert_eq!(sel, vec![1]);
    }

    #[test]
    fn the_floor_below_a_logit_drops_its_score() {
        for x in [0.0f32, -0.0, 1e-30, 0.5, -1.944_345_1, -3.0, 5.0, 16.0, 16.7, 40.0, 3e38, -90.0]
        {
            let lo = take_floor_below(x);
            assert!(lo < x, "x={x:e}: lo={lo:e}");
            let (s, s_lo) = (stable_sigmoid(x), stable_sigmoid(lo));
            assert!(s_lo.next_up() < s.next_down(), "x={x:e}: lo={lo:e}");
        }
        // σ flat at 0, or an infinite boundary: nothing finite is needed
        for x in [-110.0f32, f32::MIN, f32::NEG_INFINITY, f32::INFINITY] {
            assert_eq!(take_floor_below(x), f32::NEG_INFINITY, "x={x:e}");
        }
        // the step doubles from one ulp, so the floor stays close
        let lo = take_floor_below(5.0);
        assert!(5.0 - lo < 1e-4, "lo={lo}");
    }

    fn signals() -> (Vec<u64>, Vec<f32>) {
        // items 0..20; update counts favour low ids, logits favour high ids
        let counts: Vec<u64> = (0..20).map(|i| (20 - i) as u64).collect();
        let logits: Vec<f32> = (0..20).map(|i| i as f32 / 20.0).collect();
        (counts, logits)
    }

    #[test]
    fn confidence_hard_picks_both_signals() {
        let (counts, logits) = signals();
        let sel = select(&counts, &logits, &[], &cfg(6, 0.5, DisperseStrategy::ConfidenceHard), 1);
        // confidence share (highest counts), then hard share (highest
        // scores), each in rank order
        assert_eq!(sel, vec![0, 1, 2, 19, 18, 17]);
    }

    #[test]
    fn uploaded_items_are_excluded() {
        let (counts, logits) = signals();
        let uploaded = vec![0, 1, 18, 19];
        let sel =
            select(&counts, &logits, &uploaded, &cfg(6, 0.5, DisperseStrategy::ConfidenceHard), 2);
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
        let logits: Vec<f32> = (0..10).map(|i| if i < 3 { 0.9 } else { 0.1 }).collect();
        let sel = select(&counts, &logits, &[], &cfg(6, 0.5, DisperseStrategy::ConfidenceHard), 3);
        let mut dedup = sel.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), sel.len(), "duplicate selections: {sel:?}");
    }

    #[test]
    fn random_strategy_ignores_signals() {
        let (counts, logits) = signals();
        // with 20 items and α=6, a signal-driven pick would always include
        // item 0 (top count) or 19 (top score); random eventually misses both
        let mut missed_either = false;
        for seed in 0..20 {
            let sel = select(&counts, &logits, &[], &cfg(6, 0.5, DisperseStrategy::Random), seed);
            assert_eq!(sel.len(), 6);
            if !sel.contains(&0) || !sel.contains(&19) {
                missed_either = true;
            }
        }
        assert!(missed_either, "random selection suspiciously mirrors the signals");
    }

    #[test]
    fn mu_controls_share_split() {
        let (counts, logits) = signals();
        // µ=1: all confidence
        let sel = select(&counts, &logits, &[], &cfg(4, 1.0, DisperseStrategy::ConfidenceHard), 4);
        assert_eq!(sel, vec![0, 1, 2, 3]);
        // µ=0: all hard
        let sel = select(&counts, &logits, &[], &cfg(4, 0.0, DisperseStrategy::ConfidenceHard), 5);
        assert_eq!(sel, vec![19, 18, 17, 16]);
    }

    #[test]
    fn exhausted_item_space_returns_fewer() {
        let counts = vec![1u64; 5];
        let logits = vec![0.5f32; 5];
        let uploaded = vec![0, 1, 2, 3];
        let sel = select(&counts, &logits, &uploaded, &cfg(10, 0.5, DisperseStrategy::Random), 6);
        assert_eq!(sel, vec![4], "only one free item existed");
    }
}
