//! Extension experiment — convergence of the hidden server model.
//!
//! NDCG@20 after every global round for each server architecture,
//! justifying the paper's 20-round budget.

use ptf_bench::*;
use ptf_data::DatasetPreset;
use ptf_models::{ModelHyper, ModelKind};

fn main() {
    let scale = scale();
    let h = ModelHyper::at(scale);
    let split = split_for(DatasetPreset::MovieLens100K, scale);
    let rounds = ptf_config(scale).rounds;

    let mut table = Table::new(
        format!("Convergence — per-round NDCG@{EVAL_K}, MovieLens ({scale:?} scale)"),
        &["round", "NeuMF server", "NGCF server", "LightGCN server"],
    );
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for server in ModelKind::ALL {
        eprintln!("[convergence] server={}", server.name());
        let mut cfg = ptf_config(scale);
        cfg.rounds = rounds;
        let mut fed = build_ptf(&split, ModelKind::NeuMf, server, cfg, &h);
        let mut curve = Vec::with_capacity(rounds as usize);
        for _ in 0..rounds {
            fed.run_round();
            curve.push(fed.evaluate(&split.train, &split.test, EVAL_K).metrics.ndcg);
        }
        columns.push(curve);
    }
    for (r, ((a, b), c)) in columns[0].iter().zip(&columns[1]).zip(&columns[2]).enumerate() {
        table.row(vec![(r + 1).to_string(), fmt4(*a), fmt4(*b), fmt4(*c)]);
    }
    table.print();
    table.save("fig_convergence");
}
