//! Dataset-level ranking evaluation.

use crate::ranking::RankingMetrics;
use serde::Serialize;

/// Averaged ranking metrics over the evaluated users.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct RankingReport {
    pub metrics: RankingMetrics,
    /// Users that had at least one held-out item and were averaged.
    pub users_evaluated: usize,
    pub k: usize,
}

impl std::fmt::Display for RankingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Recall@{k}={recall:.4} NDCG@{k}={ndcg:.4} HR@{k}={hr:.4} (over {n} users)",
            k = self.k,
            recall = self.metrics.recall,
            ndcg = self.metrics.ndcg,
            hr = self.metrics.hit_rate,
            n = self.users_evaluated
        )
    }
}

impl RankingReport {
    /// Averages per-user metrics into a report. `None` entries are users
    /// without held-out items; they are skipped, not averaged as zeros.
    ///
    /// The accumulation order is the iterator order, so callers that
    /// compute per-user metrics in parallel get a bit-deterministic
    /// report by aggregating in user order (which is what
    /// `ptf_models::evaluate_model` does).
    pub fn aggregate(per_user: impl IntoIterator<Item = Option<RankingMetrics>>, k: usize) -> Self {
        let mut sum = RankingMetrics::default();
        let mut n = 0usize;
        for m in per_user.into_iter().flatten() {
            sum.recall += m.recall;
            sum.ndcg += m.ndcg;
            sum.hit_rate += m.hit_rate;
            sum.precision += m.precision;
            sum.mrr += m.mrr;
            sum.map += m.map;
            n += 1;
        }
        if n > 0 {
            sum.recall /= n as f64;
            sum.ndcg /= n as f64;
            sum.hit_rate /= n as f64;
            sum.precision /= n as f64;
            sum.mrr /= n as f64;
            sum.map /= n as f64;
        }
        RankingReport { metrics: sum, users_evaluated: n, k }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::rank_metrics;

    #[test]
    fn averages_over_users_with_test_items() {
        // user 0: perfect (relevant item ranked first)
        // user 1: no test items (skipped)
        // user 2: complete miss
        let scores = [0.9f32, 0.1, 0.1];
        let per_user =
            [rank_metrics(&scores, &[], &[0], 1), None, rank_metrics(&scores, &[], &[2], 1)];
        let report = RankingReport::aggregate(per_user, 1);
        assert_eq!(report.users_evaluated, 2);
        assert!((report.metrics.recall - 0.5).abs() < 1e-12);
        assert!((report.metrics.hit_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_users_is_all_zero() {
        let report = RankingReport::aggregate([None, None], 5);
        assert_eq!(report.users_evaluated, 0);
        assert_eq!(report.metrics.recall, 0.0);
    }

    #[test]
    fn display_mentions_k() {
        let report = RankingReport::aggregate([rank_metrics(&[1.0, 0.0], &[], &[0], 20)], 20);
        let s = report.to_string();
        assert!(s.contains("Recall@20"), "{s}");
        assert!(s.contains("NDCG@20"), "{s}");
    }
}
