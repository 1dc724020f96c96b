//! Table VIII — NDCG@20 of every client-model × server-model combination
//! on MovieLens-100K.
//!
//! The paper's findings: stronger *server* models help (horizontal), while
//! more complex *client* models hurt (vertical — clients have too little
//! data for GCNs over one-hop ego graphs).

use ptf_bench::*;
use ptf_data::DatasetPreset;
use ptf_models::{ModelHyper, ModelKind};

fn main() {
    let scale = scale();
    let h = ModelHyper::at(scale);
    let split = split_for(DatasetPreset::MovieLens100K, scale);

    let mut table = Table::new(
        format!("Table VIII — NDCG@{EVAL_K} per client×server model (MovieLens, {scale:?} scale)"),
        &["Client \\ Server", "NeuMF", "NGCF", "LightGCN"],
    );
    for client in ModelKind::ALL {
        let mut row = vec![client.name().to_string()];
        for server in ModelKind::ALL {
            eprintln!("[table8] client={} server={}", client.name(), server.name());
            let fed = run_ptf(&split, client, server, ptf_config(scale), &h);
            let r = fed.evaluate(&split.train, &split.test, EVAL_K);
            row.push(fmt4(r.metrics.ndcg));
        }
        table.row(row);
    }
    table.print();
    table.save("table8_model_combos");
    println!(
        "\n(paper: NeuMF-client row 0.1482/0.1775/0.1739; NGCF best server \
         column; NeuMF best client row)"
    );
}
