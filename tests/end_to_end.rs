//! Cross-crate integration: the full PTF-FedRec pipeline from synthetic
//! data generation to evaluation, through the facade crate.

use ptf_fedrec::baselines::{Centralized, CentralizedConfig};
use ptf_fedrec::core::{PtfConfig, PtfFedRec};
use ptf_fedrec::data::{Dataset, DatasetPreset, Scale, SyntheticConfig, TrainTestSplit};
use ptf_fedrec::federated::Engine;
use ptf_fedrec::models::{ModelHyper, ModelKind};

fn engine(
    train: &Dataset,
    client: ModelKind,
    server: ModelKind,
    cfg: PtfConfig,
) -> Engine<PtfFedRec> {
    Engine::new(
        PtfFedRec::try_new(train, client, server, &ModelHyper::small(), cfg)
            .expect("valid test config"),
    )
}

fn quick_cfg() -> PtfConfig {
    let mut cfg = PtfConfig::small();
    cfg.rounds = 6;
    cfg.client_epochs = 2;
    cfg.alpha = 10;
    cfg
}

fn tiny_split() -> TrainTestSplit {
    let data =
        SyntheticConfig::new("e2e", 40, 80, 14.0).generate(&mut ptf_fedrec::data::test_rng(17));
    TrainTestSplit::split_80_20(&data, &mut ptf_fedrec::data::test_rng(18))
}

#[test]
fn federated_training_beats_random_ranking() {
    let split = tiny_split();
    let mut cfg = PtfConfig::small();
    cfg.alpha = 12;
    let mut fed = engine(&split.train, ModelKind::NeuMf, ModelKind::Ngcf, cfg);
    let trace = fed.run();
    let trained = fed.evaluate(&split.train, &split.test, 10);
    assert!(trace.client_loss_improved(), "{:?}", trace.rounds);
    // expected recall@10 of a random ranker ≈ 10 / (#items − #train-items)
    let avg_train_len = split.train.num_interactions() as f64 / split.train.num_users() as f64;
    let random_recall = 10.0 / (split.train.num_items() as f64 - avg_train_len);
    assert!(
        trained.metrics.recall > 1.5 * random_recall,
        "federated training not above chance: {:?} (random ≈ {random_recall:.3})",
        trained.metrics
    );
}

#[test]
fn trace_bytes_match_ledger() {
    let split = tiny_split();
    let mut fed = engine(&split.train, ModelKind::NeuMf, ModelKind::NeuMf, quick_cfg());
    let trace = fed.run();
    assert_eq!(trace.total_bytes(), fed.ledger().summary().total_bytes);
    assert_eq!(fed.ledger().summary().rounds, quick_cfg().rounds);
}

#[test]
fn facade_reexports_compose() {
    // one object from every sub-crate, all through the facade
    let data = DatasetPreset::MovieLens100K.generate(Scale::Small, 3);
    assert!(data.num_users() > 0);
    let stats = ptf_fedrec::data::DatasetStats::of(&data);
    assert!(stats.density_pct > 0.0);
    let m = ptf_fedrec::tensor::Matrix::zeros(2, 2);
    assert_eq!(m.shape(), (2, 2));
    assert_eq!(ptf_fedrec::comm::format_bytes(2048.0), "2.00 KB");
    let metrics = ptf_fedrec::metrics::set_f1(&[1], &[1]);
    assert_eq!(metrics.f1, 1.0);
}

#[test]
fn centralized_upper_bounds_hold_after_training() {
    // the paper's expectation at convergence: centralized ≥ federated.
    // at this tiny scale we only assert both learn something nontrivial.
    let split = tiny_split();
    let hyper = ModelHyper::small();
    let cfg = CentralizedConfig { epochs: 10, batch: 128, neg_ratio: 4, seed: 5, threads: 0 };
    let mut central = Engine::new(Centralized::new(ModelKind::LightGcn, &split.train, &hyper, cfg));
    central.run();
    let central_report = central.evaluate(&split.train, &split.test, 10);
    assert!(central_report.metrics.recall > 0.05, "{central_report}");
}

#[test]
fn server_model_stays_hidden_from_clients() {
    // structural check of the headline property: client state contains no
    // reference to the server model; the only channel is scored triples.
    let split = tiny_split();
    let mut fed = engine(&split.train, ModelKind::NeuMf, ModelKind::Ngcf, quick_cfg());
    fed.run_round();
    // what a client received is α scored items — nothing model-shaped
    let ptf = fed.protocol();
    let client = ptf.client(ptf.last_uploads()[0].client);
    let received = client.server_data();
    assert!(received.len() <= quick_cfg().alpha);
    for &(item, score) in received {
        assert!((item as usize) < split.train.num_items());
        assert!((0.0..=1.0).contains(&score));
    }
    // and what crossed the wire in total is KB-scale, far below one
    // serialization of the hidden NGCF
    let hidden_model_bytes = ptf.server().model().num_params() * 4;
    let avg = fed.ledger().avg_client_bytes_per_round();
    assert!(avg < (hidden_model_bytes / 4) as f64);
}
