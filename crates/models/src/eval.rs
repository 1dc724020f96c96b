//! Ranking evaluation of a trained recommender against a dataset split.

use crate::traits::Recommender;
use ptf_data::Dataset;
use ptf_metrics::{rank_metrics_into, RankingMetrics, RankingReport};
use ptf_tensor::par;

/// Per-worker evaluation scratch: the full-item score buffer plus the
/// top-k selection workspace. Each worker of [`par::map_chunks`] owns one
/// for its whole share of the users, so an evaluation pass performs no
/// heap allocation per user beyond what the model's own `logits_all_into`
/// implementation needs (zero for MF).
#[derive(Default)]
struct EvalScratch {
    scores: Vec<f32>,
    candidates: Vec<u32>,
    head: Vec<u32>,
}

/// Evaluates `model` with the paper's protocol: for every user with test
/// items, rank *all* items the user has not interacted with in training
/// and measure Recall@K / NDCG@K against the held-out set.
///
/// Scoring runs on every hardware thread (users are independent); the
/// per-user metrics are averaged serially in user order, so the report is
/// bit-identical at any thread count. Use [`evaluate_model_with_threads`]
/// to pin the worker count.
pub fn evaluate_model(
    model: &dyn Recommender,
    train: &Dataset,
    test: &Dataset,
    k: usize,
) -> RankingReport {
    evaluate_model_with_threads(model, train, test, k, 0)
}

/// [`evaluate_model`] with an explicit worker count (`0` = every hardware
/// thread). Per-user ranking is the wall-clock sink of every experiment —
/// each user scores the full item space — and users are embarrassingly
/// parallel.
pub fn evaluate_model_with_threads(
    model: &dyn Recommender,
    train: &Dataset,
    test: &Dataset,
    k: usize,
    threads: usize,
) -> RankingReport {
    assert_eq!(model.num_items(), train.num_items(), "model/dataset item mismatch");
    assert_eq!(train.num_items(), test.num_items(), "train/test item mismatch");
    let num_users = train.num_users().min(model.num_users());
    // graph models lazily rebuild their propagation cache on first score;
    // force it once here so workers only ever take the read path
    if num_users > 0 {
        let _ = model.score(0, &[]);
    }
    let mut per_user: Vec<Option<RankingMetrics>> = (0..num_users).map(|_| None).collect();
    let mut workers: Vec<EvalScratch> = Vec::new();
    par::map_chunks(threads, &mut per_user, &mut workers, |start, slots, s| {
        for (u, slot) in (start as u32..).zip(slots) {
            let relevant = test.user_items(u);
            if relevant.is_empty() {
                continue;
            }
            model.score_all_into(u, &mut s.scores);
            *slot = rank_metrics_into(
                &s.scores,
                train.user_items(u),
                relevant,
                k,
                &mut s.candidates,
                &mut s.head,
            );
        }
    });
    RankingReport::aggregate(per_user, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mf::MfModel;
    use ptf_tensor::ScopeView;

    #[test]
    fn trained_model_beats_untrained_on_heldout() {
        // plant a trivially learnable structure: user u likes items
        // {2u, 2u+1}; train on the first, test on the second... MF cannot
        // generalize across items without shared structure, so instead use
        // a popularity-style signal: items 0/1 liked by everyone.
        let num_users = 12;
        let train =
            Dataset::from_user_items("train", 8, (0..num_users).map(|_| vec![0u32]).collect());
        let test =
            Dataset::from_user_items("test", 8, (0..num_users).map(|_| vec![1u32]).collect());
        let mut model = MfModel::new_scoped(num_users, 8, 0.1, ScopeView::Full(8), 1);
        let before = evaluate_model(&model, &train, &test, 3);

        // co-train items 0 and 1 so their embeddings align across users
        let mut batch = Vec::new();
        for u in 0..num_users as u32 {
            batch.push((u, 0, 1.0));
            batch.push((u, 1, 1.0));
            batch.push((u, 4, 0.0));
            batch.push((u, 5, 0.0));
        }
        for _ in 0..120 {
            model.train_batch(&batch);
        }
        let after = evaluate_model(&model, &train, &test, 3);
        assert!(
            after.metrics.recall >= before.metrics.recall,
            "training made ranking worse: {:?} → {:?}",
            before.metrics,
            after.metrics
        );
        assert!(after.metrics.recall > 0.9, "item 1 should rank top-3: {:?}", after.metrics);
        assert_eq!(after.users_evaluated, num_users);
    }

    #[test]
    fn train_items_are_excluded_from_candidates() {
        // the model scores item 0 highest for everyone, but item 0 is a
        // training item → it cannot crowd out the test item at k=1 …
        let train = Dataset::from_user_items("train", 3, vec![vec![0]]);
        let test = Dataset::from_user_items("test", 3, vec![vec![1]]);
        let mut model = MfModel::new_scoped(1, 4, 0.2, ScopeView::Full(3), 2);
        for _ in 0..200 {
            model.train_batch(&[(0, 0, 1.0), (0, 1, 1.0), (0, 2, 0.0)]);
        }
        let report = evaluate_model(&model, &train, &test, 1);
        assert_eq!(report.metrics.recall, 1.0, "{report}");
    }

    /// A model that emits NaN for every item — the shape of a diverged
    /// federation at a hot learning rate.
    struct NanModel {
        users: usize,
        items: usize,
    }

    impl Recommender for NanModel {
        fn name(&self) -> &'static str {
            "NaN"
        }
        fn num_users(&self) -> usize {
            self.users
        }
        fn num_items(&self) -> usize {
            self.items
        }
        fn num_params(&self) -> usize {
            0
        }
        fn logits_into(&self, _user: u32, items: &[u32], out: &mut Vec<f32>) {
            out.clear();
            out.resize(items.len(), f32::NAN);
        }
        fn train_batch(&mut self, _batch: &[(u32, u32, f32)]) -> f32 {
            f32::NAN
        }
    }

    #[test]
    fn nan_scoring_model_evaluates_without_panicking() {
        // regression: evaluate_model used to abort the entire run on the
        // first NaN score ("scores must not be NaN"); a diverged model
        // must instead report degraded-but-finite aggregate metrics
        let train = Dataset::from_user_items("train", 6, vec![vec![0], vec![1], vec![]]);
        let test = Dataset::from_user_items("test", 6, vec![vec![2], vec![3], vec![4]]);
        let report = evaluate_model(&NanModel { users: 3, items: 6 }, &train, &test, 2);
        assert_eq!(report.users_evaluated, 3);
        let m = report.metrics;
        for v in [m.recall, m.ndcg, m.hit_rate, m.precision, m.mrr, m.map] {
            assert!(v.is_finite(), "aggregate metric not finite: {m:?}");
        }
    }

    #[test]
    #[should_panic(expected = "item mismatch")]
    fn rejects_mismatched_item_spaces() {
        let train = Dataset::from_user_items("train", 3, vec![vec![0]]);
        let test = Dataset::from_user_items("test", 4, vec![vec![1]]);
        let model = MfModel::new_scoped(1, 2, 0.1, ScopeView::Full(3), 3);
        let _ = evaluate_model(&model, &train, &test, 1);
    }
}
