//! Fig. 4 — impact of the dispersed-set size α on model performance.
//!
//! Too little server knowledge starves the clients; too much drowns their
//! local signal. The paper's peak sits at α = 50 (ML/Steam) and α = 30
//! (Gowalla).

use ptf_bench::*;
use ptf_data::DatasetPreset;
use ptf_models::{ModelHyper, ModelKind};

fn main() {
    let scale = scale();
    let h = ModelHyper::at(scale);
    let alphas = [10usize, 30, 50, 70, 90];

    let mut table = Table::new(
        format!("Fig. 4 — NDCG@{EVAL_K} vs dispersed set size α ({scale:?} scale)"),
        &["Dataset", "alpha=10", "alpha=30", "alpha=50", "alpha=70", "alpha=90"],
    );

    for preset in DatasetPreset::ALL {
        let split = split_for(preset, scale);
        let mut row = vec![preset.name().to_string()];
        for &alpha in &alphas {
            eprintln!("[fig4] {} alpha={alpha}", preset.name());
            let mut cfg = ptf_config(scale);
            cfg.alpha = alpha;
            let fed = run_ptf(&split, ModelKind::NeuMf, ModelKind::Ngcf, cfg, &h);
            let r = fed.evaluate(&split.train, &split.test, EVAL_K);
            row.push(fmt4(r.metrics.ndcg));
        }
        table.row(row);
    }

    table.print();
    table.save("fig4_alpha");
    println!("\n(paper: rise-then-fall, peaking at α=50 for ML/Steam, α=30 for Gowalla)");
}
