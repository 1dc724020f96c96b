//! Model marketplace: the platform upgrades its *hidden* server model
//! without touching a single client — the property parameter-transmission
//! FedRecs cannot offer (their model architecture is public by protocol).
//!
//! Runs the same federation with three different hidden models and shows
//! that (a) clients are byte-identical in what they send, (b) the platform
//! can pick the best architecture privately (the Table VIII experiment).
//!
//! ```sh
//! cargo run --release --example model_marketplace
//! ```

use ptf_fedrec::core::{PtfConfig, PtfFedRec};
use ptf_fedrec::data::{DatasetPreset, Scale};
use ptf_fedrec::federated::Engine;
use ptf_fedrec::models::{ModelHyper, ModelKind};

fn main() {
    let split = DatasetPreset::Steam200K.split(Scale::Small, 29);

    println!("platform evaluates three hidden architectures on the same fleet:\n");
    println!(
        "{:<12} {:>10} {:>10} {:>14} {:>14}",
        "server", "Recall@20", "NDCG@20", "params hidden", "client bytes"
    );

    let mut best: Option<(ModelKind, f64)> = None;
    for server_kind in ModelKind::ALL {
        let mut cfg = PtfConfig::small();
        cfg.rounds = 10;
        let mut fed = Engine::new(
            PtfFedRec::try_new(
                &split.train,
                ModelKind::NeuMf, // the public client model never changes
                server_kind,
                &ModelHyper::small(),
                cfg,
            )
            .expect("example config is valid"),
        );
        fed.run();
        let report = fed.evaluate(&split.train, &split.test, 20);
        let bytes = fed.ledger().avg_client_bytes_per_round();
        println!(
            "{:<12} {:>10.4} {:>10.4} {:>14} {:>12.0} B",
            server_kind.name(),
            report.metrics.recall,
            report.metrics.ndcg,
            fed.protocol().server().model().num_params(),
            bytes
        );
        if best.is_none_or(|(_, n)| report.metrics.ndcg > n) {
            best = Some((server_kind, report.metrics.ndcg));
        }
    }

    if let Some((kind, ndcg)) = best {
        println!(
            "\nthe platform deploys {} (NDCG {ndcg:.4}) — clients never learn which \
             model ran, nor could a competitor clone it from traffic.",
            kind.name()
        );
    }
}
