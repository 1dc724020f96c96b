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

#[test]
fn mf_fedrec_is_thread_invariant() {
    // MF clients train in lanes, up to four per worker: 30 clients over 2
    // and 8 workers leave refilled lanes and partial lane groups
    let s = split();
    assert_thread_invariant("PTF-FedRec(MF)", &s, |threads| {
        let mut cfg = PtfConfig::small();
        cfg.rounds = 3;
        cfg.client_epochs = 2;
        cfg.alpha = 8;
        cfg.threads = threads;
        Engine::new(
            PtfFedRec::try_new(&s.train, ModelKind::Mf, ModelKind::Mf, &ModelHyper::small(), cfg)
                .expect("valid config"),
        )
    });
}

/// The lane driver (`rounds::train_in_lanes`) against clients trained one
/// at a time, round after round, with the server's dispersal in between.
mod lanes {
    use super::*;
    use proptest::prelude::*;
    use ptf_fedrec::core::{rounds, ClientUpload, PtfClient};
    use ptf_fedrec::data::SyntheticConfig;
    use ptf_fedrec::federated::{round_rng, RngStream, RoundCtx, RoundScratch};

    /// Round 0 trains on an empty `D̃`; the later ones on the dispersal.
    const ROUNDS: u32 = 3;

    /// How a round trains its clients.
    #[derive(Clone, Copy, Debug)]
    enum Driver {
        /// One at a time, each epoch through `PtfClient::train_epoch`
        /// (`train_on_samples`): the reference, which no lane kernel runs.
        Alone,
        /// One at a time through `rounds::client_round`, the one-lane case.
        ClientRound,
        /// All of them through `rounds::train_in_lanes` with this many lanes.
        Lanes(usize),
    }

    /// A client-round as bits: the upload, the loss, and the client's
    /// model envelope after the round.
    type Outcome = (u32, Vec<(u32, u32)>, u32, Option<String>);

    fn outcome(client: &PtfClient, upload: &ClientUpload, loss: f32) -> Outcome {
        let predictions = upload.predictions.iter().map(|&(i, s)| (i, s.to_bits())).collect();
        let state = client.export_model_state();
        (upload.client, predictions, loss.to_bits(), state)
    }

    fn train_alone(
        client: &mut PtfClient,
        cfg: &PtfConfig,
        round: u32,
        scratch: &mut RoundScratch,
    ) -> (ClientUpload, f32) {
        let mut rng = round_rng(cfg.seed, round, RngStream::Client(client.id));
        client.prepare_round(cfg, scratch, &mut rng);
        let loss_sum =
            (0..cfg.client_epochs).map(|_| client.train_epoch(cfg, scratch, &mut rng)).sum();
        client.finish_round(cfg, scratch, &mut rng, loss_sum)
    }

    /// `ROUNDS` rounds of the whole fleet of `split` under `driver`.
    /// Returns every client-round's outcome, round by round.
    fn run(
        split: &TrainTestSplit,
        kind: ModelKind,
        cfg: &PtfConfig,
        driver: Driver,
    ) -> Vec<Vec<Outcome>> {
        let (users, items) = (split.train.num_users(), split.train.num_items());
        let hyper = ModelHyper::small();
        let mut clients: Vec<PtfClient> = (0..users as u32)
            .map(|id| rounds::build_client(&split.train, id, kind, &hyper, cfg))
            .collect();
        let mut server = rounds::build_server(users, items, ModelKind::Mf, &hyper, cfg);
        let width = if let Driver::Lanes(w) = driver { w } else { 1 };
        let mut scratch: Vec<RoundScratch> = (0..width).map(|_| RoundScratch::default()).collect();
        let mut history = Vec::new();
        for round in 0..ROUNDS {
            let mut results: Vec<Option<(ClientUpload, f32)>> = vec![None; users];
            for (client, result) in clients.iter_mut().zip(&mut results) {
                *result = match driver {
                    Driver::Alone => Some(train_alone(client, cfg, round, &mut scratch[0])),
                    Driver::ClientRound => {
                        Some(rounds::client_round(client, cfg, round, &mut scratch[0]))
                    }
                    Driver::Lanes(_) => continue,
                };
            }
            if let Driver::Lanes(_) = driver {
                rounds::train_in_lanes(
                    cfg,
                    round,
                    &mut scratch,
                    clients.iter_mut(),
                    |at, _, up, loss| {
                        assert!(
                            results[at].replace((up, loss)).is_none(),
                            "client {at} trained twice"
                        );
                    },
                );
            }
            let results: Vec<(ClientUpload, f32)> =
                results.into_iter().map(|r| r.expect("every client trained")).collect();
            history.push(
                clients.iter().zip(&results).map(|(c, (up, loss))| outcome(c, up, *loss)).collect(),
            );
            let uploads: Vec<ClientUpload> = results.into_iter().map(|(up, _)| up).collect();
            let mut ctx = RoundCtx::detached(round);
            let (_, dispersals) =
                rounds::server_phase(&mut server, cfg, round, &uploads, &mut ctx, None);
            for (id, items) in dispersals {
                clients[id as usize].receive_disperse(items);
            }
        }
        history
    }

    fn config(batch: usize, evict: bool) -> PtfConfig {
        let mut cfg = PtfConfig::small();
        cfg.client_epochs = 2;
        cfg.client_batch = batch;
        cfg.alpha = 8;
        cfg.threads = 1;
        if evict {
            cfg.storage.evict_interval = 1;
            cfg.storage.evict_budget = 24;
        }
        cfg
    }

    /// `users` clients with uneven pools over an `items` catalogue. Every
    /// client is built row-sparse: over 40 items its first rounds' growth
    /// turns it dense, over 400 most stay row-scoped, over 120 the fleet
    /// mixes both.
    fn fleet_split(users: usize, items: usize, seed: u64) -> TrainTestSplit {
        let shape =
            SyntheticConfig { len_sigma: 0.9, ..SyntheticConfig::new("lanes", users, items, 14.0) };
        let data = shape.generate(&mut ptf_fedrec::data::test_rng(seed));
        TrainTestSplit::split_80_20(&data, &mut ptf_fedrec::data::test_rng(seed + 1))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn mf_lanes_match_clients_trained_one_at_a_time(
            users in 1usize..=6,
            items in prop_oneof![Just(40usize), Just(120), Just(400)],
            batch in prop_oneof![Just(3usize), Just(7), Just(64)],
            evict in any::<bool>(),
            seed in 0u64..1_000,
        ) {
            let split = fleet_split(users, items, seed);
            let cfg = config(batch, evict);
            let alone = run(&split, ModelKind::Mf, &cfg, Driver::Alone);
            let drivers = [1, 2, 3, 4].map(Driver::Lanes);
            for driver in std::iter::once(Driver::ClientRound).chain(drivers) {
                prop_assert!(
                    run(&split, ModelKind::Mf, &cfg, driver) == alone,
                    "{users} clients over {items} items, batch {batch}, evict {evict}: \
                     {driver:?} differs from training alone"
                );
            }
        }
    }

    #[test]
    fn neumf_and_lightgcn_clients_fall_back_to_one_lane() {
        let split = fleet_split(5, 120, 3);
        let cfg = config(16, false);
        for kind in [ModelKind::NeuMf, ModelKind::LightGcn] {
            let alone = run(&split, kind, &cfg, Driver::Alone);
            for driver in [Driver::ClientRound, Driver::Lanes(2), Driver::Lanes(4)] {
                assert!(run(&split, kind, &cfg, driver) == alone, "{kind:?}: {driver:?}");
            }
        }
    }
}
