//! Serial-vs-parallel bit parity: the headline guarantee of the
//! two-phase round scheduler. For every protocol, a run with the same
//! seed must produce a bit-identical `RunTrace` and `RankingReport` at
//! any thread count — 1 (inline, no pool), 2, and 8 — because each
//! client draws from its own `(seed, round, client)`-derived RNG stream
//! and all floating-point reductions replay serially in participant
//! order.

use ptf_fedrec::baselines::{
    Centralized, CentralizedConfig, Fcf, FcfConfig, FedMf, FedMfConfig, MetaMf, MetaMfConfig,
};
use ptf_fedrec::core::{PtfConfig, PtfFedRec};
use ptf_fedrec::data::{SyntheticConfig, TrainTestSplit};
use ptf_fedrec::federated::{Engine, FederatedProtocol, Participation, RunTrace};
use ptf_fedrec::metrics::RankingReport;
use ptf_fedrec::models::{ModelHyper, ModelKind};

fn split() -> TrainTestSplit {
    let data =
        SyntheticConfig::new("det", 30, 60, 12.0).generate(&mut ptf_fedrec::data::test_rng(41));
    TrainTestSplit::split_80_20(&data, &mut ptf_fedrec::data::test_rng(42))
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Runs `build(threads)` through the engine at each thread count and
/// asserts bit parity of trace and report against the serial run.
fn assert_thread_invariant<P, F>(name: &str, split: &TrainTestSplit, build: F)
where
    P: FederatedProtocol,
    F: Fn(usize) -> Engine<P>,
{
    let run = |threads: usize| -> (RunTrace, RankingReport) {
        let mut engine = build(threads);
        let trace = engine.run();
        let report = engine.evaluate(&split.train, &split.test, 10);
        (trace, report)
    };
    let serial = run(1);
    assert!(serial.0.num_rounds() > 0, "{name}: empty run");
    for threads in &THREAD_COUNTS[1..] {
        let parallel = run(*threads);
        assert_eq!(serial.0, parallel.0, "{name}: RunTrace differs at {threads} threads");
        assert_eq!(serial.1, parallel.1, "{name}: RankingReport differs at {threads} threads");
    }
}

#[test]
fn ptf_fedrec_is_thread_invariant() {
    let s = split();
    assert_thread_invariant("PTF-FedRec", &s, |threads| {
        let mut cfg = PtfConfig::small();
        cfg.rounds = 3;
        cfg.client_epochs = 2;
        cfg.alpha = 8;
        cfg.threads = threads;
        Engine::new(
            PtfFedRec::try_new(
                &s.train,
                ModelKind::NeuMf,
                ModelKind::NeuMf,
                &ModelHyper::small(),
                cfg,
            )
            .expect("valid config"),
        )
    });
}

#[test]
fn fcf_is_thread_invariant() {
    let s = split();
    assert_thread_invariant("FCF", &s, |threads| {
        Engine::new(Fcf::new(
            &s.train,
            FcfConfig { rounds: 3, local_epochs: 2, dim: 8, threads, ..FcfConfig::default() },
        ))
    });
}

#[test]
fn fedmf_is_thread_invariant() {
    let s = split();
    assert_thread_invariant("FedMF", &s, |threads| {
        let mut cfg = FedMfConfig::small();
        cfg.base.rounds = 3;
        cfg.base.local_epochs = 2;
        cfg.base.dim = 8;
        cfg.base.threads = threads;
        Engine::new(FedMf::new(&s.train, cfg))
    });
}

#[test]
fn metamf_is_thread_invariant() {
    let s = split();
    assert_thread_invariant("MetaMF", &s, |threads| {
        Engine::new(MetaMf::new(
            &s.train,
            MetaMfConfig { rounds: 3, local_epochs: 2, dim: 8, threads, ..MetaMfConfig::default() },
        ))
    });
}

#[test]
fn centralized_is_thread_invariant() {
    let s = split();
    assert_thread_invariant("Centralized", &s, |threads| {
        Engine::new(Centralized::new(
            ModelKind::NeuMf,
            &s.train,
            &ModelHyper::small(),
            CentralizedConfig { epochs: 3, batch: 128, neg_ratio: 4, seed: 9, threads },
        ))
    });
}

#[test]
fn partial_participation_sampling_is_thread_invariant() {
    // participant *selection* also derives from (seed, round), so the
    // sampled sets — not just per-client work — must match exactly
    let s = split();
    assert_thread_invariant("PTF-FedRec(partial)", &s, |threads| {
        let mut cfg = PtfConfig::small();
        cfg.rounds = 4;
        cfg.client_epochs = 1;
        cfg.alpha = 6;
        cfg.threads = threads;
        cfg.participation = Participation { fraction: 0.3, min_clients: 2 };
        Engine::new(
            PtfFedRec::try_new(
                &s.train,
                ModelKind::NeuMf,
                ModelKind::NeuMf,
                &ModelHyper::small(),
                cfg,
            )
            .expect("valid config"),
        )
    });
}

#[test]
fn heterogeneous_models_are_thread_invariant() {
    // graph models carry RwLock-cached propagation state; parity must
    // hold for them too (LightGCN client, NGCF server)
    let s = split();
    assert_thread_invariant("PTF-FedRec(LightGCN→NGCF)", &s, |threads| {
        let mut cfg = PtfConfig::small();
        cfg.rounds = 2;
        cfg.client_epochs = 1;
        cfg.alpha = 6;
        cfg.threads = threads;
        Engine::new(
            PtfFedRec::try_new(
                &s.train,
                ModelKind::LightGcn,
                ModelKind::Ngcf,
                &ModelHyper::small(),
                cfg,
            )
            .expect("valid config"),
        )
    });
}
