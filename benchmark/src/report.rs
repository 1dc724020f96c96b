//! The metric registry and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the same lists `BENCHMARK.json`
//! declares; a pass prints every metric of its list, by name, with its
//! unit, and ends with the one-line JSON object the driver parses.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("round_s", "s"), ("peak_heap_mb", "MB"), ("client_kb_per_round", "KB")];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`.
/// A metric a workload cannot observe reads 0 there (see README).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.dot32_ns", "ns"),
    ("tensor.mf_sgd_update_ns", "ns"),
    ("tensor.adam_update_ns_per_kelem", "ns"),
    ("tensor.allocs_per_round", "count"),
    ("data.generate_s", "s"),
    ("data.split_s", "s"),
    ("data.arena_write_s", "s"),
    ("data.arena_row_read_us", "us"),
    ("data.negatives_ns_per_draw", "ns"),
    ("models.mf_train_batch_us", "us"),
    ("models.neumf_train_batch_us", "us"),
    ("models.ngcf_train_batch_us", "us"),
    ("models.score_all_us", "us"),
    ("models.export_state_ms", "ms"),
    ("models.import_state_ms", "ms"),
    ("models.state_kb", "KB"),
    ("metrics.ndcg20", "ratio"),
    ("metrics.eval_s", "s"),
    ("metrics.rank_user_us", "us"),
    ("privacy.defend_upload_us", "us"),
    ("comm.bytes_up_per_round", "count"),
    ("comm.bytes_down_per_round", "count"),
    ("comm.ledger_record_ns", "ns"),
    ("federated.sample_us", "us"),
    ("federated.round_median_s", "s"),
    ("federated.round_samples", "count"),
    ("federated.engine_other_s", "s"),
    ("federated.trace_overhead_pct", "%"),
    ("federated.failed_share", "ratio"),
    ("core.build_clients_s", "s"),
    ("core.build_server_s", "s"),
    ("core.client_round_s", "s"),
    ("core.client_round_p50_us", "us"),
    ("core.client_round_p99_us", "us"),
    ("core.upload_items_per_round", "count"),
    ("core.server_train_s", "s"),
    ("core.disperse_s", "s"),
    ("core.receive_s", "s"),
    ("core.cohort_cold_round_s", "s"),
    ("core.store_read_s", "s"),
    ("core.store_write_s", "s"),
    ("core.store_kb_per_client", "KB"),
    ("core.cohort_other_s", "s"),
    ("core.checkpoint_commit_s", "s"),
    ("core.item_rows", "count"),
    ("core.dense_clients", "count"),
    ("net.encode_ns_per_triple", "ns"),
    ("net.decode_ns_per_triple", "ns"),
    ("net.hub_rtt_us", "us"),
    ("net.handshake_s", "s"),
    ("net.frames_per_round", "count"),
    ("net.wire_kb_per_round", "KB"),
    ("net.overhead_s", "s"),
];

/// Fatal output checks collected over a pass.
#[derive(Default)]
pub struct Checks(Vec<(String, bool)>);

impl Checks {
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.0.push((what.into(), ok));
    }

    pub fn all_ok(&self) -> bool {
        self.0.iter().all(|&(_, ok)| ok)
    }
}

/// What one pass (one workload, one `--trace` setting) produced.
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Client-rounds attempted / failed (dropped as a straggler,
    /// non-finite loss, or dispersal never delivered).
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// Extra human-readable lines (sample counts, medians, file paths).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.all_ok() && self.failed == 0
    }

    /// Prints the metric table, the checks, and — as the last line — the
    /// result object.
    pub fn print(&self, workload: &str, seed: u64, registry: &[(&str, &str)]) {
        println!("== {workload}  seed {seed}");
        for &(name, unit) in registry {
            println!("{name:<34} {:>16.6} {unit}", self.value(name));
        }
        println!("{:<34} {:>16} of {}", "failed client-rounds", self.failed, self.attempted);
        for note in &self.notes {
            println!("  {note}");
        }
        for (what, ok) in &self.checks.0 {
            println!("  check {}: {what}", if *ok { "ok  " } else { "FAIL" });
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, &(name, unit)) in registry.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(self.value(name))
            );
        }
        json.push_str("}}");
        println!("{json}");
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

/// A JSON number with all its digits (`Display` for `f64` round-trips);
/// non-finite values, which JSON cannot carry, print as -1 and are caught
/// by the pass's own finiteness checks.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}
