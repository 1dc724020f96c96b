//! Cross-crate consistency between the federated baselines, all driven
//! through the shared `FederatedProtocol` engine.

use ptf_fedrec::baselines::{Fcf, FcfConfig, FedMf, FedMfConfig, MetaMf, MetaMfConfig};
use ptf_fedrec::data::{SyntheticConfig, TrainTestSplit};
use ptf_fedrec::federated::{Engine, FederatedProtocol};

fn split() -> TrainTestSplit {
    let data =
        SyntheticConfig::new("par", 40, 80, 14.0).generate(&mut ptf_fedrec::data::test_rng(31));
    TrainTestSplit::split_80_20(&data, &mut ptf_fedrec::data::test_rng(32))
}

fn quick_base() -> FcfConfig {
    FcfConfig { rounds: 4, local_epochs: 2, dim: 8, ..FcfConfig::default() }
}

#[test]
fn fedmf_learns_exactly_like_fcf() {
    // FedMF = FCF dynamics + encryption; same seed ⇒ identical model
    let s = split();
    let mut fcf = Engine::new(Fcf::new(&s.train, quick_base()));
    let mut fedmf = Engine::new(FedMf::new(&s.train, FedMfConfig { base: quick_base() }));
    fcf.run();
    fedmf.run();
    let user = 0u32;
    let items: Vec<u32> = (0..s.train.num_items() as u32).collect();
    let a = fcf.protocol().recommender().score(user, &items);
    let b = fedmf.protocol().recommender().score(user, &items);
    assert_eq!(a, b, "encryption must not change the learning outcome");
}

#[test]
fn fedmf_pays_exactly_the_ciphertext_expansion() {
    let s = split();
    let mut fcf = Engine::new(Fcf::new(&s.train, quick_base()));
    let mut fedmf = Engine::new(FedMf::new(&s.train, FedMfConfig { base: quick_base() }));
    fcf.run_round();
    fedmf.run_round();
    let ratio =
        fedmf.ledger().avg_client_bytes_per_round() / fcf.ledger().avg_client_bytes_per_round();
    assert!((ratio - 16.0).abs() < 1e-6, "expansion ratio {ratio} ≠ 16");
}

#[test]
fn all_baselines_improve_over_their_initialization() {
    let s = split();

    let mut fcf = Engine::new(Fcf::new(&s.train, quick_base()));
    let before = fcf.evaluate(&s.train, &s.test, 10).metrics.ndcg;
    let trace = fcf.run();
    assert!(trace.client_loss_improved(), "FCF loss: {:?}", trace.rounds);
    let after = fcf.evaluate(&s.train, &s.test, 10).metrics.ndcg;
    assert!(after >= before, "FCF: {before} → {after}");

    let mut mm = Engine::new(MetaMf::new(
        &s.train,
        MetaMfConfig { rounds: 4, local_epochs: 2, dim: 8, ..MetaMfConfig::default() },
    ));
    let trace = mm.run();
    assert!(trace.client_loss_improved(), "MetaMF loss: {:?}", trace.rounds);
}

#[test]
fn baselines_report_paper_names() {
    let s = split();
    assert_eq!(Fcf::new(&s.train, quick_base()).name(), "FCF");
    assert_eq!(FedMf::new(&s.train, FedMfConfig { base: quick_base() }).name(), "FedMF");
    assert_eq!(MetaMf::new(&s.train, MetaMfConfig::small()).name(), "MetaMF");
}

#[test]
fn every_protocol_drives_through_one_engine_loop() {
    // the acceptance shape of the engine API: heterogeneous protocols in
    // one Vec<Box<dyn FederatedProtocol>>, one generic loop, no
    // per-protocol plumbing
    let s = split();
    let protocols: Vec<Box<dyn FederatedProtocol>> = vec![
        Box::new(Fcf::new(&s.train, quick_base())),
        Box::new(FedMf::new(&s.train, FedMfConfig { base: quick_base() })),
        Box::new(MetaMf::new(
            &s.train,
            MetaMfConfig { rounds: 4, local_epochs: 2, dim: 8, ..MetaMfConfig::default() },
        )),
    ];
    for protocol in protocols {
        let name = protocol.name();
        let mut engine = Engine::new(protocol);
        let trace = engine.run();
        assert_eq!(trace.num_rounds(), 4, "{name}");
        assert!(trace.total_bytes() > 0, "{name} reported no traffic");
        assert_eq!(engine.ledger().summary().total_bytes, trace.total_bytes(), "{name}");
        assert!(engine.evaluate(&s.train, &s.test, 10).users_evaluated > 0, "{name}");
    }
}
