//! Negative sampling.
//!
//! Implicit-feedback training pairs every positive item with sampled
//! non-interacted "negative" items; the paper uses a 1:4 positive:negative
//! ratio throughout.

use rand::Rng;

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
    let mut seen = std::collections::HashSet::new();
    sample_negatives_into(sorted_positives, num_items, count, rng, &mut out, &mut seen);
    out
}

/// [`sample_negatives`] into caller-owned buffers: `out` receives the
/// sampled negatives, `seen` is rejection-sampling workspace. Both are
/// cleared on entry and keep their capacity, so a steady-state caller
/// (one buffer pair per scheduler worker) allocates nothing. Draw-for-draw
/// identical to [`sample_negatives`].
pub fn sample_negatives_into(
    sorted_positives: &[u32],
    num_items: usize,
    count: usize,
    rng: &mut impl Rng,
    out: &mut Vec<u32>,
    seen: &mut std::collections::HashSet<u32>,
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
        out.extend((0..num_items as u32).filter(|c| sorted_positives.binary_search(c).is_err()));
        for i in 0..count {
            let j = rng.gen_range(i..out.len());
            out.swap(i, j);
        }
        out.truncate(count);
        return;
    }
    seen.clear();
    while out.len() < count {
        let candidate = rng.gen_range(0..num_items as u32);
        if sorted_positives.binary_search(&candidate).is_err() && seen.insert(candidate) {
            out.push(candidate);
        }
    }
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
}
