//! Table VII — ablation of the confidence-based hard D̃ᵢ construction.
//!
//! Replaces the confidence share, the hard share, or both with uniform
//! random item selection and measures the drop in server-model ranking
//! quality.

use ptf_bench::*;
use ptf_core::DisperseStrategy;
use ptf_data::DatasetPreset;
use ptf_models::{ModelHyper, ModelKind};

fn main() {
    let scale = scale();
    let h = ModelHyper::at(scale);
    let mut table = Table::new(
        format!(
            "Table VII — D̃ construction ablation, Recall@{EVAL_K}/NDCG@{EVAL_K} ({scale:?} scale)"
        ),
        &["Method", "ML R", "ML N", "Steam R", "Steam N", "Gowalla R", "Gowalla N"],
    );
    let mut cells: Vec<Vec<String>> =
        DisperseStrategy::ALL.iter().map(|s| vec![s.name().to_string()]).collect();

    for preset in DatasetPreset::ALL {
        let split = split_for(preset, scale);
        for (row, &strategy) in DisperseStrategy::ALL.iter().enumerate() {
            eprintln!("[table7] {} with {}", preset.name(), strategy.name());
            let mut cfg = ptf_config(scale);
            cfg.disperse = strategy;
            let fed = run_ptf(&split, ModelKind::NeuMf, ModelKind::Ngcf, cfg, &h);
            let r = fed.evaluate(&split.train, &split.test, EVAL_K);
            cells[row].push(fmt4(r.metrics.recall));
            cells[row].push(fmt4(r.metrics.ndcg));
        }
    }

    for row in cells {
        table.row(row);
    }
    table.print();
    table.save("table7_ablation");
    println!(
        "\n(paper ML-100K Recall@20: full 0.1623, -hard 0.1611, \
         -confidence 0.1602, -confidence -hard 0.1566)"
    );
}
