//! Extension ablation (DESIGN.md §5) — the server-side graph threshold.
//!
//! The hidden NGCF builds its bipartite graph from uploaded soft labels
//! with `r̂ ≥ threshold` treated as edges. The paper does not specify this
//! knob (its server sees no raw interactions either); this sweep justifies
//! our 0.5 default.

use ptf_bench::*;
use ptf_data::DatasetPreset;
use ptf_models::{ModelHyper, ModelKind};

fn main() {
    let scale = scale();
    let h = ModelHyper::at(scale);
    let split = split_for(DatasetPreset::MovieLens100K, scale);
    let thresholds = [0.3f32, 0.5, 0.7, 0.9];

    let mut table = Table::new(
        format!("Server graph threshold sweep — PTF-FedRec(NGCF), MovieLens ({scale:?} scale)"),
        &["threshold", "Recall@20", "NDCG@20", "server loss (final)"],
    );
    for &t in &thresholds {
        eprintln!("[server_graph] threshold={t}");
        let mut cfg = ptf_config(scale);
        cfg.graph_threshold = t;
        let mut fed = build_ptf(&split, ModelKind::NeuMf, ModelKind::Ngcf, cfg, &h);
        let trace = fed.run();
        let r = fed.evaluate(&split.train, &split.test, EVAL_K);
        table.row(vec![
            format!("{t}"),
            fmt4(r.metrics.recall),
            fmt4(r.metrics.ndcg),
            format!("{:.4}", trace.final_server_loss()),
        ]);
    }
    table.print();
    table.save("fig_server_graph");
}
