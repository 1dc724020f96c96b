//! Shared plumbing for the experiment binaries.

use ptf_baselines::{CentralizedConfig, FcfConfig, FedMfConfig, MetaMfConfig};
use ptf_core::{PtfConfig, PtfFedRec};
use ptf_data::{DatasetPreset, Scale, TrainTestSplit};
use ptf_federated::{Engine, FederatedProtocol};
use ptf_models::{ModelHyper, ModelKind};
use ptf_privacy::TopGuessAttack;
use rand::SeedableRng;
use serde::Serialize;
use std::io::Write as _;

/// Evaluation cut-off: the paper reports Recall@20 / NDCG@20.
pub const EVAL_K: usize = 20;

/// Experiment scale from `PTF_SCALE`: `small` (the default) or `paper`,
/// in any case. Any other value panics, naming it.
pub fn scale() -> Scale {
    scale_from(env("PTF_SCALE").as_deref())
}

/// Master seed from `PTF_SEED` (default 2024). A value that is not an
/// unsigned integer panics, naming it.
pub fn seed() -> u64 {
    seed_from(env("PTF_SEED").as_deref())
}

/// [`scale`] over a `PTF_SCALE` value, `None` when unset. A value that
/// does not parse panics so a table never reports a scale nobody asked for.
fn scale_from(value: Option<&str>) -> Scale {
    match value {
        None => Scale::Small,
        Some(v) if v.eq_ignore_ascii_case("small") => Scale::Small,
        Some(v) if v.eq_ignore_ascii_case("paper") => Scale::Paper,
        Some(v) => panic!("PTF_SCALE={v:?}: expected `small` or `paper`"),
    }
}

/// [`seed`] over a `PTF_SEED` value, `None` when unset.
fn seed_from(value: Option<&str>) -> u64 {
    value.map_or(2024, |v| {
        v.parse().unwrap_or_else(|_| panic!("PTF_SEED={v:?}: expected an unsigned integer"))
    })
}

/// The variable `name`, or `None` when unset; a value that is not
/// Unicode panics rather than reading as unset.
fn env(name: &str) -> Option<String> {
    match std::env::var(name) {
        Ok(v) => Some(v),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(v)) => panic!("{name}={v:?}: not Unicode"),
    }
}

/// Generates a preset dataset, deterministically per preset.
pub fn dataset_for(preset: DatasetPreset, scale: Scale) -> ptf_data::Dataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed() ^ preset_salt(preset));
    preset.generate(scale, &mut rng)
}

/// Generates a preset and splits it 8:2, deterministically per preset.
pub fn split_for(preset: DatasetPreset, scale: Scale) -> TrainTestSplit {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed() ^ preset_salt(preset));
    let data = preset.generate(scale, &mut rng);
    TrainTestSplit::split_80_20(&data, &mut rng)
}

fn preset_salt(preset: DatasetPreset) -> u64 {
    match preset {
        DatasetPreset::MovieLens100K => 0x4D4C,
        DatasetPreset::Steam200K => 0x5354,
        DatasetPreset::Gowalla => 0x474F,
    }
}

/// Model hyperparameters per scale.
pub fn hyper(scale: Scale) -> ModelHyper {
    match scale {
        Scale::Paper => ModelHyper::default(),
        Scale::Small => ModelHyper::small(),
    }
}

/// PTF-FedRec configuration per scale.
pub fn ptf_config(scale: Scale) -> PtfConfig {
    let mut cfg = match scale {
        Scale::Paper => PtfConfig::paper(),
        Scale::Small => PtfConfig::small(),
    };
    cfg.seed = seed();
    cfg
}

/// FCF configuration per scale.
pub fn fcf_config(scale: Scale) -> FcfConfig {
    let mut cfg = match scale {
        Scale::Paper => FcfConfig::default(),
        Scale::Small => FcfConfig::small(),
    };
    cfg.seed = seed() ^ 0xFCF;
    cfg
}

/// FedMF configuration per scale.
pub fn fedmf_config(scale: Scale) -> FedMfConfig {
    let mut cfg = match scale {
        Scale::Paper => FedMfConfig::default(),
        Scale::Small => FedMfConfig::small(),
    };
    cfg.base.seed = seed() ^ 0xFED;
    cfg
}

/// MetaMF configuration per scale.
pub fn metamf_config(scale: Scale) -> MetaMfConfig {
    let mut cfg = match scale {
        Scale::Paper => MetaMfConfig::default(),
        Scale::Small => MetaMfConfig::small(),
    };
    cfg.seed = seed() ^ 0x4D4D;
    cfg
}

/// Centralized configuration per scale.
pub fn centralized_config(scale: Scale) -> CentralizedConfig {
    let mut cfg = match scale {
        Scale::Paper => CentralizedConfig::default(),
        Scale::Small => CentralizedConfig::small(),
    };
    cfg.seed = seed() ^ 0xCE;
    cfg
}

/// Builds a PTF-FedRec federation engine without running it.
pub fn build_ptf(
    split: &TrainTestSplit,
    client_kind: ModelKind,
    server_kind: ModelKind,
    cfg: PtfConfig,
    hyper: &ModelHyper,
) -> Engine<PtfFedRec> {
    Engine::new(
        PtfFedRec::try_new(&split.train, client_kind, server_kind, hyper, cfg)
            .expect("harness config is valid"),
    )
}

/// Builds and runs a PTF-FedRec federation to completion.
pub fn run_ptf(
    split: &TrainTestSplit,
    client_kind: ModelKind,
    server_kind: ModelKind,
    cfg: PtfConfig,
    hyper: &ModelHyper,
) -> Engine<PtfFedRec> {
    let mut fed = build_ptf(split, client_kind, server_kind, cfg, hyper);
    fed.run();
    fed
}

/// Runs any protocol to completion through the shared engine path.
pub fn run_protocol(protocol: Box<dyn FederatedProtocol>) -> Engine<Box<dyn FederatedProtocol>> {
    let mut engine = Engine::new(protocol);
    engine.run();
    engine
}

/// Mean Top-Guess-Attack F1 over the final round's uploads (Table V).
pub fn attack_f1(fed: &Engine<PtfFedRec>) -> f64 {
    let attack = TopGuessAttack::default();
    attack.mean_f1(
        fed.protocol()
            .last_uploads()
            .iter()
            .map(|u| (u.predictions.as_slice(), u.audit_positives.as_slice())),
    )
}

/// The LDP budget used for the Table V comparison row (the CLI's
/// `--epsilon` default — the paper does not state its ε; 5.0 lands the
/// attack F1 between the sampling rows as in Table V).
pub const LDP_EPSILON: f64 = 5.0;

/// The four defense rows of Table V.
pub fn defense_rows() -> [ptf_core::DefenseKind; 4] {
    use ptf_core::DefenseKind;
    [
        DefenseKind::NoDefense,
        DefenseKind::Ldp { epsilon: LDP_EPSILON },
        DefenseKind::Sampling,
        DefenseKind::SamplingSwapping,
    ]
}

/// Runs PTF-FedRec(NGCF) under one defense; returns `(attack F1, NDCG@20)`.
/// Shared by Tables V and VI.
pub fn privacy_run(
    split: &TrainTestSplit,
    defense: ptf_core::DefenseKind,
    scale: Scale,
) -> (f64, f64) {
    let mut cfg = ptf_config(scale);
    cfg.defense = defense;
    let h = hyper(scale);
    let fed = run_ptf(split, ModelKind::NeuMf, ModelKind::Ngcf, cfg, &h);
    let ndcg = fed.evaluate(&split.train, &split.test, EVAL_K).metrics.ndcg;
    (attack_f1(&fed), ndcg)
}

/// A printable/serializable experiment table.
#[derive(Serialize)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Prints the table with aligned columns.
    pub fn print(&self) {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let _ = writeln!(out, "\n=== {} ===", self.title);
        let header: Vec<String> =
            self.headers.iter().zip(&widths).map(|(h, w)| format!("{h:<w$}")).collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(out, "{}", "-".repeat(header.join("  ").len()));
        for row in &self.rows {
            let line: Vec<String> =
                row.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}")).collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
    }

    /// Writes the table as JSON under `<workspace>/experiments/<name>.json`.
    pub fn save(&self, name: &str) {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments");
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let path = dir.join(format!("{name}.json"));
        if let Ok(json) = serde_json::to_string_pretty(self) {
            let _ = std::fs::write(&path, json);
            println!("[saved {}]", path.display());
        }
    }
}

/// Formats a metric to the paper's 4-decimal style.
pub fn fmt4(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_align_with_headers() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn scale_from_env_defaults_to_small() {
        assert_eq!(scale_from(None), Scale::Small);
    }

    #[test]
    fn scale_matches_either_name_in_any_case() {
        for v in ["small", "Small", "SMALL"] {
            assert_eq!(scale_from(Some(v)), Scale::Small, "{v}");
        }
        for v in ["paper", "Paper", "PAPER"] {
            assert_eq!(scale_from(Some(v)), Scale::Paper, "{v}");
        }
    }

    #[test]
    #[should_panic(expected = "PTF_SCALE=\"huge\"")]
    fn malformed_scale_panics_naming_the_value() {
        scale_from(Some("huge"));
    }

    #[test]
    fn seed_defaults_to_2024_and_parses_integers() {
        assert_eq!(seed_from(None), 2024);
        assert_eq!(seed_from(Some("7")), 7);
        assert_eq!(seed_from(Some("18446744073709551615")), u64::MAX);
    }

    #[test]
    fn malformed_seeds_panic_naming_the_value() {
        for v in ["12x", "", "-1", "1e3"] {
            let err = std::panic::catch_unwind(|| seed_from(Some(v))).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("formatted panic message");
            assert!(msg.starts_with(&format!("PTF_SEED={v:?}")), "{v}: {msg}");
        }
    }

    #[test]
    fn configs_inherit_master_seed() {
        assert_eq!(ptf_config(Scale::Small).seed, seed());
        assert_eq!(fcf_config(Scale::Small).seed, seed() ^ 0xFCF);
    }

    #[test]
    fn split_is_deterministic_per_preset() {
        let a = split_for(DatasetPreset::MovieLens100K, Scale::Small);
        let b = split_for(DatasetPreset::MovieLens100K, Scale::Small);
        assert_eq!(a.train, b.train);
    }
}
