//! Extension experiment — partial participation.
//!
//! The paper trains with full participation; Algorithm 1 nevertheless
//! samples `U^t ⊆ U` each round. This sweep shows how PTF-FedRec degrades
//! as fewer clients join per round (at a fixed round budget), which
//! matters for deployments with stragglers.

use ptf_bench::*;
use ptf_data::DatasetPreset;
use ptf_federated::Participation;
use ptf_models::{ModelHyper, ModelKind};

fn main() {
    let scale = scale();
    let h = ModelHyper::at(scale);
    let split = split_for(DatasetPreset::MovieLens100K, scale);
    let fractions = [0.1f64, 0.25, 0.5, 1.0];

    let mut table = Table::new(
        format!("Participation sweep — PTF-FedRec(NGCF), MovieLens ({scale:?} scale)"),
        &["fraction", "Recall@20", "NDCG@20", "avg bytes/client-round"],
    );
    for &f in &fractions {
        eprintln!("[participation] fraction={f}");
        let mut cfg = ptf_config(scale);
        cfg.participation = Participation { fraction: f, min_clients: 1 };
        let fed = run_ptf(&split, ModelKind::NeuMf, ModelKind::Ngcf, cfg, &h);
        let r = fed.evaluate(&split.train, &split.test, EVAL_K);
        table.row(vec![
            format!("{f}"),
            fmt4(r.metrics.recall),
            fmt4(r.metrics.ndcg),
            format!("{:.0}", fed.ledger().avg_client_bytes_per_round()),
        ]);
    }
    table.print();
    table.save("fig_participation");
}
