//! Train/test splitting.
//!
//! The paper splits every dataset "randomly … into training and test sets
//! with the ratio of 8:2". We split per user so each client keeps a local
//! training profile and contributes held-out items to the ranking
//! evaluation; users with a single interaction keep it for training.

use crate::dataset::Dataset;
use rand::Rng;

/// A train/test partition of a [`Dataset`].
#[derive(Clone, Debug)]
pub struct TrainTestSplit {
    pub train: Dataset,
    pub test: Dataset,
}

impl TrainTestSplit {
    /// Splits each user's interactions, sending `test_fraction` of them
    /// (rounded to nearest, but at most `len − 1`) to the test set.
    ///
    /// Rounding to nearest (instead of truncating) lets short profiles
    /// contribute to the evaluation: under the paper's 8:2 ratio a user
    /// with 3–4 interactions donates one test item rather than zero, so
    /// the test set is no longer biased toward heavy users.
    ///
    /// Both sides are assembled directly into CSR arenas — one scratch
    /// buffer for the per-user shuffle, no per-user heap lists.
    pub fn split(dataset: &Dataset, test_fraction: f64, rng: &mut impl Rng) -> Self {
        assert!(
            (0.0..1.0).contains(&test_fraction),
            "test_fraction must be in [0, 1), got {test_fraction}"
        );
        let name = dataset.name().to_string();
        let total = dataset.num_interactions();
        let users = dataset.num_users();
        let est_test = (total as f64 * test_fraction).ceil() as usize + users;
        let mut train_b =
            Dataset::builder(format!("{name}/train"), dataset.num_items(), users, total);
        let mut test_b =
            Dataset::builder(format!("{name}/test"), dataset.num_items(), users, est_test);
        let mut items: Vec<u32> = Vec::new();
        for u in 0..users {
            items.clear();
            items.extend_from_slice(dataset.user_items(u as u32));
            crate::shuffle(&mut items, rng);
            let n_test = ((items.len() as f64 * test_fraction).round() as usize)
                .min(items.len().saturating_sub(1));
            let cut = items.len() - n_test;
            items[..cut].sort_unstable();
            items[cut..].sort_unstable();
            train_b.push_user(&items[..cut]);
            test_b.push_user(&items[cut..]);
        }
        Self { train: train_b.finish(), test: test_b.finish() }
    }

    /// The paper's 8:2 split.
    pub fn split_80_20(dataset: &Dataset, rng: &mut impl Rng) -> Self {
        Self::split(dataset, 0.2, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        let by_user = vec![(0..20).collect::<Vec<u32>>(), vec![3], vec![], (5..15).collect()];
        Dataset::from_user_items("d", 30, by_user)
    }

    #[test]
    fn partition_is_disjoint_and_complete() {
        let d = dataset();
        let s = TrainTestSplit::split_80_20(&d, &mut crate::test_rng(1));
        assert_eq!(s.train.num_interactions() + s.test.num_interactions(), d.num_interactions());
        for u in 0..d.num_users() as u32 {
            for &i in s.test.user_items(u) {
                assert!(!s.train.contains(u, i), "({u},{i}) in both train and test");
                assert!(d.contains(u, i), "({u},{i}) not in the original data");
            }
        }
    }

    #[test]
    fn ratio_is_respected() {
        let d = dataset();
        let s = TrainTestSplit::split_80_20(&d, &mut crate::test_rng(2));
        assert_eq!(s.test.user_items(0).len(), 4); // 20% of 20
        assert_eq!(s.test.user_items(3).len(), 2); // 20% of 10
    }

    #[test]
    fn short_profiles_contribute_to_test() {
        // regression: truncation sent nothing from 3–4-item users at 8:2,
        // biasing evaluation toward heavy users; round-to-nearest fixes it
        let d = Dataset::from_user_items("d", 10, vec![(0..3).collect(), (0..4).collect()]);
        let s = TrainTestSplit::split_80_20(&d, &mut crate::test_rng(9));
        assert_eq!(s.test.user_items(0).len(), 1); // round(3 × 0.2) = 1
        assert_eq!(s.test.user_items(1).len(), 1); // round(4 × 0.2) = 1
        assert_eq!(s.train.user_items(0).len(), 2);
        assert_eq!(s.train.user_items(1).len(), 3);
    }

    #[test]
    fn singleton_profiles_stay_in_train() {
        let d = dataset();
        let s = TrainTestSplit::split(&d, 0.9, &mut crate::test_rng(3));
        assert_eq!(s.train.user_items(1), &[3], "singleton must remain trainable");
        assert!(s.test.user_items(1).is_empty());
    }

    #[test]
    fn empty_users_stay_empty() {
        let s = TrainTestSplit::split_80_20(&dataset(), &mut crate::test_rng(4));
        assert!(s.train.user_items(2).is_empty());
        assert!(s.test.user_items(2).is_empty());
    }

    #[test]
    fn deterministic_under_seed() {
        let d = dataset();
        let a = TrainTestSplit::split_80_20(&d, &mut crate::test_rng(5));
        let b = TrainTestSplit::split_80_20(&d, &mut crate::test_rng(5));
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
    }
}
