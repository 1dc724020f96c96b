//! Negative sampling.
//!
//! Implicit-feedback training pairs every positive item with sampled
//! non-interacted "negative" items; the paper uses a 1:4 positive:negative
//! ratio throughout.

use rand::Rng;
use std::collections::HashSet;

/// Samples up to `count` *distinct* negative item ids uniformly from the
/// complement of the **sorted** positive set. The trained pool `V_t` is a
/// set of items, so duplicates are never returned; when the complement has
/// fewer than `count` items, all of it is returned (shuffled).
///
/// # Panics
/// If every item is positive (no negatives exist) and `count > 0`.
pub fn sample_negatives(
    sorted_positives: &[u32],
    num_items: usize,
    count: usize,
    rng: &mut impl Rng,
) -> Vec<u32> {
    let mut out = Vec::with_capacity(count);
    let mut seen = ItemBits::default();
    sample_negatives_into(sorted_positives, num_items, count, rng, &mut out, &mut seen);
    out
}

/// The rejection path's workspace: the ids one call has accepted so far.
/// [`ItemBits`] is the one every round reuses; a `HashSet<u32>` accepts
/// the same ids from the same draws.
pub trait Seen {
    /// Readies an empty set for ids below `num_items`.
    fn prepare(&mut self, num_items: usize);
    /// Marks `id`; `false` when it was marked already.
    fn insert(&mut self, id: u32) -> bool;
    /// Empties the set; `accepted` holds every id marked since `prepare`.
    fn reset(&mut self, accepted: &[u32]);
}

/// One bit per catalogue item, emptied through the ids a call accepted —
/// `O(accepted)`, not `O(catalogue)` — so a draw costs a shift and a mask
/// instead of a hash. Its words grow once, to the largest catalogue seen.
#[derive(Default)]
pub struct ItemBits {
    words: Vec<u64>,
}

impl ItemBits {
    /// Writes the ascending, duplicate-free union of `ids` (each below
    /// `num_items`) into `out`, cleared first, and leaves the set empty:
    /// one bit set per id, then one sweep of the words they fell in.
    pub fn sorted_union(
        &mut self,
        num_items: usize,
        ids: impl IntoIterator<Item = u32>,
        out: &mut Vec<u32>,
    ) {
        self.prepare(num_items);
        let (mut lo, mut hi) = (usize::MAX, 0);
        for id in ids {
            let at = id as usize / 64;
            self.words[at] |= 1 << (id % 64);
            (lo, hi) = (lo.min(at), hi.max(at + 1));
        }
        out.clear();
        for at in lo..hi {
            let mut word = std::mem::take(&mut self.words[at]);
            while word != 0 {
                out.push(at as u32 * 64 + word.trailing_zeros());
                word &= word - 1;
            }
        }
    }
}

impl Seen for ItemBits {
    fn prepare(&mut self, num_items: usize) {
        let words = num_items.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
        debug_assert!(self.words.iter().all(|&w| w == 0), "an ItemBits was left marked");
    }

    #[inline]
    fn insert(&mut self, id: u32) -> bool {
        let (word, bit) = (&mut self.words[id as usize / 64], 1u64 << (id % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    fn reset(&mut self, accepted: &[u32]) {
        // every marked bit is an accepted id, so zeroing their words
        // zeroes them all
        for &id in accepted {
            self.words[id as usize / 64] = 0;
        }
    }
}

impl Seen for HashSet<u32> {
    fn prepare(&mut self, _: usize) {
        self.clear();
    }

    fn insert(&mut self, id: u32) -> bool {
        HashSet::insert(self, id)
    }

    fn reset(&mut self, _: &[u32]) {}
}

/// [`sample_negatives`] into caller-owned buffers: `out` receives the
/// sampled negatives, `seen` is rejection-sampling workspace. `out` is
/// cleared on entry, `seen` is left empty, and both keep their capacity,
/// so a steady-state caller (one buffer pair per scheduler worker)
/// allocates nothing. Draw-for-draw identical to [`sample_negatives`].
pub fn sample_negatives_into(
    sorted_positives: &[u32],
    num_items: usize,
    count: usize,
    rng: &mut impl Rng,
    out: &mut Vec<u32>,
    seen: &mut impl Seen,
) {
    debug_assert!(sorted_positives.windows(2).all(|w| w[0] < w[1]), "positives must be sorted");
    out.clear();
    let available = num_items - sorted_positives.len();
    assert!(
        count == 0 || available > 0,
        "cannot sample negatives: all {num_items} items are positive"
    );
    let count = count.min(available);
    // Dense candidate pool when the request covers most of the complement
    // — or when the complement itself is a small slice of the catalogue:
    // at ≥75% positive density a rejection draw mostly hits positives, so
    // expected draws per accept (`num_items / available`) blow up even for
    // tiny requests. One O(num_items) scan is cheaper and bounds the RNG
    // draws at exactly `count`.
    if count * 3 >= available || available * 4 <= num_items {
        // the complement in one merge walk over the sorted positives, not
        // a binary search per catalogue item
        let mut positives = sorted_positives.iter().peekable();
        out.extend((0..num_items as u32).filter(|c| positives.next_if_eq(&c).is_none()));
        for i in 0..count {
            let j = rng.gen_range(i..out.len());
            out.swap(i, j);
        }
        out.truncate(count);
        return;
    }
    seen.prepare(num_items);
    while out.len() < count {
        let candidate = rng.gen_range(0..num_items as u32);
        if sorted_positives.binary_search(&candidate).is_err() && seen.insert(candidate) {
            out.push(candidate);
        }
    }
    seen.reset(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negatives_avoid_positives_and_are_distinct() {
        let pos = vec![1, 3, 5, 7];
        let negs = sample_negatives(&pos, 100, 50, &mut crate::test_rng(1));
        assert_eq!(negs.len(), 50);
        let mut sorted = negs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 50, "duplicates returned");
        for n in negs {
            assert!(pos.binary_search(&n).is_err(), "sampled positive {n}");
            assert!(n < 100);
        }
    }

    #[test]
    fn oversized_request_returns_whole_complement() {
        let pos = vec![0, 2];
        let negs = sample_negatives(&pos, 6, 50, &mut crate::test_rng(9));
        let mut sorted = negs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 3, 4, 5], "complement is {{1,3,4,5}}");
    }

    /// The bitset union against sort + dedup, over catalogues on and off
    /// a word boundary and id lists with repeats, one `ItemBits` serving
    /// every call (so each must leave it empty) and negative sampling in
    /// between.
    #[test]
    fn sorted_union_equals_sort_and_dedup() {
        use rand::Rng;
        let (mut bits, mut out, mut negatives) = (ItemBits::default(), Vec::new(), Vec::new());
        let mut rng = crate::test_rng(11);
        for (case, num_items) in
            [1usize, 63, 64, 65, 200, 1682, 128, 7].into_iter().cycle().take(40).enumerate()
        {
            let ids: Vec<u32> = (0..rng.gen_range(0..3 * num_items))
                .map(|_| rng.gen_range(0..num_items as u32))
                .collect();
            let mut want = ids.clone();
            want.sort_unstable();
            want.dedup();
            bits.sorted_union(num_items, ids.iter().copied(), &mut out);
            assert_eq!(out, want, "case {case}: {num_items} items");
            if num_items > 1 {
                sample_negatives_into(&[0], num_items, 1, &mut rng, &mut negatives, &mut bits);
            }
        }
        assert!(bits.words.iter().all(|&w| w == 0), "the union left bits set");
    }

    #[test]
    fn zero_count_is_empty() {
        assert!(sample_negatives(&[0, 1], 2, 0, &mut crate::test_rng(2)).is_empty());
    }

    #[test]
    #[should_panic(expected = "all 3 items are positive")]
    fn rejects_saturated_item_space() {
        let _ = sample_negatives(&[0, 1, 2], 3, 1, &mut crate::test_rng(3));
    }

    /// Wraps an RNG and counts the raw draws it serves — the probe the
    /// high-density regression test uses to pin sampling cost.
    struct CountingRng<R> {
        inner: R,
        calls: u64,
    }

    impl<R: rand::RngCore> rand::RngCore for CountingRng<R> {
        fn next_u32(&mut self) -> u32 {
            self.calls += 1;
            self.inner.next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            self.calls += 1;
            self.inner.next_u64()
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.calls += 1;
            self.inner.fill_bytes(dest)
        }
    }

    #[test]
    fn high_density_sampling_uses_bounded_rng_draws() {
        // 90% positive density, small request: the old crossover
        // (`count * 3 >= available` alone) kept this on the rejection path,
        // where ~9 of 10 draws hit a positive — tens of wasted draws for a
        // 20-item request. The density cutoff must route it dense-fill,
        // which draws the RNG exactly once per returned negative.
        let positives: Vec<u32> = (0..900).collect();
        let mut rng = CountingRng { inner: crate::test_rng(7), calls: 0 };
        let negs = sample_negatives(&positives, 1000, 20, &mut rng);
        assert_eq!(negs.len(), 20);
        for &n in &negs {
            assert!((900..1000).contains(&n), "sampled a positive: {n}");
        }
        let mut sorted = negs;
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "duplicates returned");
        // one gen_range per kept negative; allow a small widening slack
        assert!(rng.calls <= 2 * 20, "{} RNG draws for a 20-negative request", rng.calls);
    }

    /// The dense-candidate path as it was written before the merge walk:
    /// a binary search over the positives per catalogue item.
    fn dense_fill_oracle(
        sorted_positives: &[u32],
        num_items: usize,
        count: usize,
        rng: &mut impl Rng,
    ) -> Vec<u32> {
        let mut out: Vec<u32> =
            (0..num_items as u32).filter(|c| sorted_positives.binary_search(c).is_err()).collect();
        for i in 0..count {
            let j = rng.gen_range(i..out.len());
            out.swap(i, j);
        }
        out.truncate(count);
        out
    }

    proptest::proptest! {
        /// On every request the dense path serves — a large share of the
        /// complement, or a catalogue at least ¾ positive — the merge walk
        /// returns the binary-search filter's negatives in the same order,
        /// from the same draws, and leaves the stream at the same place.
        #[test]
        fn dense_fill_matches_the_binary_search_filter(
            positives in proptest::collection::btree_set(0u32..300, 0..290),
            extra in 0usize..40,
            share in 0usize..4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let positives: Vec<u32> = positives.into_iter().collect();
            let num_items = positives.last().map_or(1, |&p| p as usize + 1) + extra;
            let available = num_items - positives.len();
            // from a third of the complement (the crossover) to all of it
            let count = (available * (share + 1)).div_ceil(3).min(available);
            let mut rng = crate::test_rng(seed);
            let mut seen = ItemBits::default();
            let mut got = Vec::new();
            sample_negatives_into(&positives, num_items, count, &mut rng, &mut got, &mut seen);
            let mut oracle_rng = crate::test_rng(seed);
            let want = dense_fill_oracle(&positives, num_items, count, &mut oracle_rng);
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>());
        }

        /// The bitset accepts exactly what a fresh `HashSet` accepted, in
        /// the same order and from the same draws, on both paths — and
        /// one `ItemBits` reused across catalogues is left empty by every
        /// call.
        #[test]
        fn item_bits_match_the_hash_set_oracle(
            positives in proptest::collection::btree_set(0u32..700, 0..200),
            extra in 1usize..400,
            counts in proptest::collection::vec(0usize..300, 1..4),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let positives: Vec<u32> = positives.into_iter().collect();
            let mut seen = ItemBits::default();
            let mut got = Vec::new();
            for (k, count) in counts.into_iter().enumerate() {
                // catalogues of alternating size, over one `ItemBits`
                let num_items = positives.last().map_or(0, |&p| p as usize + 1) + extra * (k % 2 + 1);
                let mut rng = crate::test_rng(seed ^ k as u64);
                sample_negatives_into(&positives, num_items, count, &mut rng, &mut got, &mut seen);
                let mut oracle_rng = crate::test_rng(seed ^ k as u64);
                let want = hash_set_oracle(&positives, num_items, count, &mut oracle_rng);
                proptest::prop_assert_eq!(&got, &want);
                proptest::prop_assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>());
                proptest::prop_assert!(seen.words.iter().all(|&w| w == 0), "left marked");
            }
        }
    }

    /// The reference sampler: every rejection draw checked with an
    /// insert into a fresh `HashSet`.
    fn hash_set_oracle(
        sorted_positives: &[u32],
        num_items: usize,
        count: usize,
        rng: &mut impl Rng,
    ) -> Vec<u32> {
        let available = num_items - sorted_positives.len();
        let count = count.min(available);
        if count * 3 >= available || available * 4 <= num_items {
            return dense_fill_oracle(sorted_positives, num_items, count, rng);
        }
        let (mut out, mut seen) = (Vec::new(), HashSet::new());
        while out.len() < count {
            let candidate = rng.gen_range(0..num_items as u32);
            if sorted_positives.binary_search(&candidate).is_err() && seen.insert(candidate) {
                out.push(candidate);
            }
        }
        out
    }
}
