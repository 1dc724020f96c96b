//! Fig. 3 — sensitivity of the privacy mechanism's hyperparameters.
//!
//! Sweeps the β sampling range, the γ sampling range and the swap
//! fraction λ, reporting NDCG@20 (utility) and Top-Guess F1 (leakage) per
//! setting on all three datasets.

use ptf_bench::*;
use ptf_data::DatasetPreset;
use ptf_models::{ModelHyper, ModelKind};

fn main() {
    let scale = scale();
    let h = ModelHyper::at(scale);
    let mut table = Table::new(
        format!("Fig. 3 — privacy hyperparameter sweeps ({scale:?} scale)"),
        &["Dataset", "Parameter", "Setting", "NDCG@20", "Attack F1"],
    );

    let beta_lows = [0.1, 0.3, 0.5, 0.7];
    let gamma_lows = [1.0, 2.0, 3.0, 4.0];
    let lambdas = [0.05, 0.1, 0.15, 0.2];

    for preset in DatasetPreset::ALL {
        let split = split_for(preset, scale);

        for &beta_lo in &beta_lows {
            eprintln!("[fig3] {} beta=[{beta_lo},1]", preset.name());
            let mut cfg = ptf_config(scale);
            cfg.sampling.beta_range = (beta_lo, 1.0);
            let fed = run_ptf(&split, ModelKind::NeuMf, ModelKind::Ngcf, cfg, &h);
            let ndcg = fed.evaluate(&split.train, &split.test, EVAL_K).metrics.ndcg;
            table.row(vec![
                preset.name().into(),
                "beta".into(),
                format!("[{beta_lo},1]"),
                fmt4(ndcg),
                fmt4(fed.protocol().attack_f1()),
            ]);
        }

        for &gamma_lo in &gamma_lows {
            eprintln!("[fig3] {} gamma=[{gamma_lo},4]", preset.name());
            let mut cfg = ptf_config(scale);
            cfg.sampling.gamma_range = (gamma_lo, 4.0);
            let fed = run_ptf(&split, ModelKind::NeuMf, ModelKind::Ngcf, cfg, &h);
            let ndcg = fed.evaluate(&split.train, &split.test, EVAL_K).metrics.ndcg;
            table.row(vec![
                preset.name().into(),
                "gamma".into(),
                format!("[{gamma_lo},4]"),
                fmt4(ndcg),
                fmt4(fed.protocol().attack_f1()),
            ]);
        }

        for &lambda in &lambdas {
            eprintln!("[fig3] {} lambda={lambda}", preset.name());
            let mut cfg = ptf_config(scale);
            cfg.lambda = lambda;
            let fed = run_ptf(&split, ModelKind::NeuMf, ModelKind::Ngcf, cfg, &h);
            let ndcg = fed.evaluate(&split.train, &split.test, EVAL_K).metrics.ndcg;
            table.row(vec![
                preset.name().into(),
                "lambda".into(),
                format!("{lambda}"),
                fmt4(ndcg),
                fmt4(fed.protocol().attack_f1()),
            ]);
        }
    }

    table.print();
    table.save("fig3_hyperparams");
    println!(
        "\n(paper trends: wider beta floor ⇒ both NDCG and F1 rise; \
         narrower gamma range ⇒ F1 recovers; larger lambda ⇒ both drop)"
    );
}
