//! Cross-crate protocol invariants: the privacy and communication
//! properties the paper claims, checked on live federations.

use ptf_fedrec::baselines::{Fcf, FcfConfig};
use ptf_fedrec::core::{DefenseKind, PtfConfig, PtfFedRec};
use ptf_fedrec::data::{Dataset, SyntheticConfig, TrainTestSplit};
use ptf_fedrec::federated::Engine;
use ptf_fedrec::models::{ModelHyper, ModelKind};

fn split() -> TrainTestSplit {
    let data =
        SyntheticConfig::new("inv", 50, 100, 16.0).generate(&mut ptf_fedrec::data::test_rng(23));
    TrainTestSplit::split_80_20(&data, &mut ptf_fedrec::data::test_rng(24))
}

fn cfg(defense: DefenseKind) -> PtfConfig {
    let mut cfg = PtfConfig::small();
    cfg.rounds = 6;
    cfg.client_epochs = 3;
    cfg.defense = defense;
    cfg
}

fn build(train: &Dataset, cfg: PtfConfig) -> Engine<PtfFedRec> {
    Engine::new(
        PtfFedRec::try_new(train, ModelKind::NeuMf, ModelKind::NeuMf, &ModelHyper::small(), cfg)
            .expect("valid test config"),
    )
}

fn run(defense: DefenseKind) -> Engine<PtfFedRec> {
    let split = split();
    let mut fed = build(&split.train, cfg(defense));
    fed.run();
    fed
}

#[test]
fn uploads_only_contain_trained_items() {
    let s = split();
    let fed = run(DefenseKind::SamplingSwapping);
    for up in fed.protocol().last_uploads() {
        let positives = s.train.user_items(up.client);
        let mut ids: Vec<u32> = up.predictions.iter().map(|&(i, _)| i).collect();
        for &(item, score) in &up.predictions {
            assert!((item as usize) < s.train.num_items());
            assert!((0.0..=1.0).contains(&score), "score {score} out of range");
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), up.len(), "client {} uploaded an item twice", up.client);
        // an uploaded item is either one of the client's positives or one
        // of its sampled negatives: β keeps 1..=|P| positives and γ ≤ 4
        // draws at most four negatives per kept positive
        let kept = ids.iter().filter(|i| positives.binary_search(i).is_ok()).count();
        assert!(
            (1..=positives.len()).contains(&kept),
            "client {} uploaded {kept} of its {} positives",
            up.client,
            positives.len()
        );
        assert!(
            ids.len() - kept <= 4 * kept,
            "client {} uploaded {} negatives for {kept} positives",
            up.client,
            ids.len() - kept
        );
    }
}

#[test]
fn full_defense_beats_no_defense_against_the_attack() {
    let f1_undefended = run(DefenseKind::NoDefense).protocol().attack_f1();
    let f1_defended = run(DefenseKind::SamplingSwapping).protocol().attack_f1();
    assert!(
        f1_defended < f1_undefended - 0.2,
        "defense ineffective: {f1_defended} vs {f1_undefended}"
    );
    // undefended uploads are an open book once local models separate
    assert!(f1_undefended > 0.7, "attack unexpectedly weak: {f1_undefended}");
}

#[test]
fn swapping_adds_protection_over_sampling_alone() {
    let f1_sampling = run(DefenseKind::Sampling).protocol().attack_f1();
    let f1_full = run(DefenseKind::SamplingSwapping).protocol().attack_f1();
    assert!(
        f1_full < f1_sampling,
        "swapping should strengthen the defense: {f1_full} vs {f1_sampling}"
    );
}

#[test]
fn ptf_traffic_is_orders_of_magnitude_below_fcf() {
    let s = split();
    let fed = run(DefenseKind::SamplingSwapping);
    let mut fcf =
        Engine::new(Fcf::new(&s.train, FcfConfig { rounds: 2, dim: 16, ..FcfConfig::small() }));
    fcf.run();
    let ptf_bytes = fed.ledger().avg_client_bytes_per_round();
    let fcf_bytes = fcf.ledger().avg_client_bytes_per_round();
    assert!(
        fcf_bytes > 10.0 * ptf_bytes,
        "expected ≥10× traffic gap at this scale, got FCF {fcf_bytes} vs PTF {ptf_bytes}"
    );
}

#[test]
fn dispersed_items_disjoint_from_upload() {
    let fed = run(DefenseKind::SamplingSwapping);
    let ptf = fed.protocol();
    for up in ptf.last_uploads() {
        let received = ptf.client(up.client).server_data();
        for &(item, _) in received {
            assert!(
                !up.predictions.iter().any(|&(i, _)| i == item),
                "server dispersed item {item} straight back to client {}",
                up.client
            );
        }
    }
}

#[test]
fn upload_sizes_vary_round_to_round_under_sampling() {
    // β/γ are redrawn every round, so upload sizes must not be constant
    let s = split();
    let mut fed = build(&s.train, cfg(DefenseKind::SamplingSwapping));
    let mut sizes = Vec::new();
    for _ in 0..4 {
        fed.run_round();
        sizes.push(fed.protocol().last_uploads().iter().map(|u| u.len()).sum::<usize>());
    }
    assert!(sizes.windows(2).any(|w| w[0] != w[1]), "upload sizes frozen across rounds: {sizes:?}");
}

#[test]
fn poisoned_uploads_do_not_break_server_training() {
    // failure injection: a malicious client reports every item as a
    // perfect positive; the server must keep training finitely and other
    // clients' knowledge must survive
    use ptf_fedrec::core::{ClientUpload, PtfServer};
    use ptf_fedrec::models::ModelHyper;

    let cfg = {
        let mut c = PtfConfig::small();
        c.server_epochs = 6;
        c
    };
    let mut rng = ptf_fedrec::data::test_rng(77);
    let mut server = PtfServer::new(8, 40, ModelKind::NeuMf, &ModelHyper::small(), &mut rng);

    let honest = ClientUpload {
        client: 0,
        predictions: vec![(1, 0.95), (2, 0.9), (10, 0.05), (11, 0.1), (12, 0.08)],
    };
    let poisoned = ClientUpload { client: 1, predictions: (0..40).map(|i| (i, 1.0)).collect() };
    for _ in 0..4 {
        let loss = server.train_on_uploads(&[honest.clone(), poisoned.clone()], &cfg, &mut rng);
        assert!(loss.is_finite(), "server loss diverged under poisoning");
    }
    // the honest client's ordering survives for its own row
    let s = server.model().score(0, &[1, 10]);
    assert!(s[0] > s[1], "honest client's signal destroyed: {s:?}");
}

#[test]
fn all_empty_clients_yield_empty_rounds() {
    // degenerate federation: nobody has data — the protocol must not panic
    let empty = Dataset::from_user_items("empty", 10, vec![vec![]; 5]);
    let mut fed = build(&empty, cfg(DefenseKind::SamplingSwapping));
    let trace = fed.run();
    for r in &trace.rounds {
        assert_eq!(r.participants, 0);
        assert_eq!(r.bytes, 0);
    }
}

#[test]
#[ignore = "paper-scale smoke test (~minutes, several GB RAM); run with --ignored"]
fn paper_scale_movielens_smoke() {
    use ptf_fedrec::data::{DatasetPreset, Scale};
    let split = DatasetPreset::MovieLens100K.split(Scale::Paper, 2024);
    let mut cfg = ptf_fedrec::core::PtfConfig::paper();
    cfg.rounds = 2;
    let hyper = ModelHyper::default();
    let mut fed = Engine::new(
        PtfFedRec::try_new(&split.train, ModelKind::NeuMf, ModelKind::Ngcf, &hyper, cfg)
            .expect("paper config is valid"),
    );
    let trace = fed.run();
    assert_eq!(trace.num_rounds(), 2);
    assert!(trace.rounds[0].participants == 943);
    let report = fed.evaluate(&split.train, &split.test, 20);
    assert!(report.users_evaluated > 900);
}
