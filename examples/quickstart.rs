//! Quickstart: train a hidden server model with PTF-FedRec.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ptf_fedrec::core::{ConfigError, PtfConfig, PtfFedRec};
use ptf_fedrec::data::{DatasetPreset, TrainTestSplit};
use ptf_fedrec::federated::Engine;
use ptf_fedrec::models::{ModelHyper, ModelKind};

fn main() -> Result<(), ConfigError> {
    // 1. Data: a MovieLens-100K-shaped synthetic dataset, split 8:2.
    let mut rng = ptf_fedrec::data::test_rng(7);
    let data = DatasetPreset::MovieLens100K.small().generate(&mut rng);
    let split = TrainTestSplit::split_80_20(&data, &mut rng);
    println!(
        "dataset: {} users × {} items, {} interactions",
        data.num_users(),
        data.num_items(),
        data.num_interactions()
    );

    // 2. The federation: every user is a client running the public NeuMF;
    //    the platform's NGCF stays hidden on the server. `try_new`
    //    validates the configuration instead of panicking, and the engine
    //    wires its communication ledger automatically.
    let mut cfg = PtfConfig::small();
    cfg.rounds = 8;
    let mut fed = Engine::new(PtfFedRec::try_new(
        &split.train,
        ModelKind::NeuMf, // public client model
        ModelKind::Ngcf,  // hidden server model — never transmitted
        &ModelHyper::small(),
        cfg,
    )?);

    // 3. Train: only prediction triples cross the wire.
    let trace = fed.run();
    for round in &trace.rounds {
        println!(
            "round {:>2}: client loss {:.4}, server loss {:.4}, {} participants, {} bytes",
            round.round, round.mean_client_loss, round.server_loss, round.participants, round.bytes
        );
    }

    // 4. Evaluate the hidden model and inspect the communication bill.
    let report = fed.evaluate(&split.train, &split.test, 20);
    let server_model = fed.protocol().server().model();
    println!("\nserver model ({}): {report}", server_model.name());
    let summary = fed.ledger().summary();
    println!(
        "communication: {} total over {} rounds, avg {} per client-round",
        ptf_fedrec::comm::format_bytes(summary.total_bytes as f64),
        summary.rounds,
        ptf_fedrec::comm::format_bytes(summary.avg_client_bytes_per_round),
    );
    println!(
        "a parameter-transmission protocol would move ≥ {} per client-round",
        ptf_fedrec::comm::format_bytes((server_model.num_params() * 4) as f64),
    );
    Ok(())
}
