//! # ptf-metrics
//!
//! Evaluation metrics for the PTF-FedRec reproduction:
//!
//! * [`ranking`] — Recall@K, NDCG@K, HitRate@K, Precision@K over full-item
//!   ranking with training-item exclusion (the paper "calculate\[s\] the
//!   metrics scores for all items that have not interacted with users").
//! * [`classification`] — set precision/recall/F1, used to score the
//!   Top-Guess membership-inference attack (Table V).
//! * [`eval`] — dataset-level averaging of per-user ranking metrics.

pub mod classification;
pub mod eval;
pub mod ranking;

pub use classification::{set_f1, PrecisionRecallF1};
pub use eval::RankingReport;
pub use ranking::{
    cmp_scores_desc, rank_metrics, rank_metrics_into, top_k_indices, top_k_indices_into,
    RankingMetrics,
};
