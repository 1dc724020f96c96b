//! The tentpole guarantee: a networked run is **bit-identical** to the
//! in-process engine — same seed, same config, same `RunTrace`, compared
//! as serialized JSON bytes. The loopback transport pushes every frame
//! through the real codec, so these tests cover everything TCP does
//! except the socket itself.

use ptf_core::{PtfConfig, PtfFedRec};
use ptf_data::{Dataset, SyntheticConfig};
use ptf_federated::{Engine, Participation};
use ptf_models::{ModelHyper, ModelKind};
use ptf_net::wire::Frame;
use ptf_net::{
    loopback_hub, run_server, run_shard, Event, NetError, NetServerOptions, ShardOptions, Straggle,
    StragglerDrop,
};
use std::time::Duration;

const CLIENT: ModelKind = ModelKind::Mf;
const SERVER: ModelKind = ModelKind::Mf;

fn dataset() -> Dataset {
    SyntheticConfig::new("net-parity", 24, 48, 10.0).generate(&mut ptf_data::test_rng(77))
}

fn config(threads: usize) -> PtfConfig {
    let mut cfg = PtfConfig::small();
    cfg.rounds = 3;
    cfg.client_epochs = 2;
    cfg.seed = 2024;
    cfg.threads = threads;
    cfg
}

fn server_options(cfg: &PtfConfig) -> NetServerOptions {
    NetServerOptions {
        cfg: cfg.clone(),
        client_kind: CLIENT,
        server_kind: SERVER,
        hyper: ModelHyper::small(),
        round_deadline: Duration::from_secs(30),
        gather_timeout: Duration::from_secs(30),
        verbose: false,
    }
}

/// Runs the in-process engine to completion and returns its trace JSON.
fn engine_trace_json(train: &Dataset, cfg: &PtfConfig) -> String {
    let protocol =
        PtfFedRec::try_new(train, CLIENT, SERVER, &ModelHyper::small(), cfg.clone()).unwrap();
    let mut engine = Engine::new(protocol);
    serde_json::to_string(&engine.run()).unwrap()
}

/// Runs a loopback networked run with the fleet split over `shards`
/// connections and returns (trace JSON, straggler drops).
fn loopback_trace_json(
    train: &Dataset,
    cfg: &PtfConfig,
    shards: &[Vec<u32>],
    straggle: Option<(usize, Straggle)>,
    deadline: Duration,
) -> (String, Vec<StragglerDrop>) {
    let (hub, events) = loopback_hub();
    let mut opts = server_options(cfg);
    opts.round_deadline = deadline;
    let report = std::thread::scope(|scope| {
        for (at, ids) in shards.iter().enumerate() {
            let hub = hub.clone();
            let shard_opts = ShardOptions {
                cfg: cfg.clone(),
                client_kind: CLIENT,
                server_kind: SERVER,
                hyper: ModelHyper::small(),
                ids: ids.clone(),
                straggle: straggle.and_then(|(s, plan)| (s == at).then_some(plan)),
            };
            scope.spawn(move || {
                let mut conn = hub.connect();
                run_shard(train, &mut conn, &shard_opts)
            });
        }
        let (report, _server) = run_server(train, &events, &opts).unwrap();
        report
    });
    (serde_json::to_string(&report.trace).unwrap(), report.stragglers)
}

fn whole_fleet_shards() -> Vec<Vec<u32>> {
    vec![(0..8).collect(), (8..16).collect(), (16..24).collect()]
}

#[test]
fn loopback_run_is_bit_identical_to_engine_at_one_thread() {
    let train = dataset();
    let cfg = config(1);
    let reference = engine_trace_json(&train, &cfg);
    let (net, stragglers) =
        loopback_trace_json(&train, &cfg, &whole_fleet_shards(), None, Duration::from_secs(30));
    assert!(stragglers.is_empty());
    assert_eq!(net, reference, "networked trace must match the engine byte-for-byte");
}

#[test]
fn loopback_run_is_bit_identical_to_engine_at_four_threads() {
    let train = dataset();
    let cfg = config(4);
    let reference = engine_trace_json(&train, &cfg);
    // the networked fleet shards differently than the engine threads —
    // parity must hold regardless
    let shards: Vec<Vec<u32>> = vec![(0..5).collect(), (5..23).collect(), vec![23]];
    let (net, stragglers) =
        loopback_trace_json(&train, &cfg, &shards, None, Duration::from_secs(30));
    assert!(stragglers.is_empty());
    assert_eq!(net, reference);
    // and the engine itself is thread-count invariant, so 4-thread
    // networked == 1-thread engine too
    assert_eq!(net, engine_trace_json(&train, &config(1)));
}

#[test]
fn loopback_partial_participation_matches_engine() {
    let train = dataset();
    let mut cfg = config(2);
    cfg.participation = Participation { fraction: 0.5, min_clients: 1 };
    let reference = engine_trace_json(&train, &cfg);
    let (net, stragglers) =
        loopback_trace_json(&train, &cfg, &whole_fleet_shards(), None, Duration::from_secs(30));
    assert!(stragglers.is_empty());
    assert_eq!(net, reference, "participation sampling must use the same RNG stream");
}

#[test]
fn uneven_shards_at_partial_participation_match_engine() {
    // clients 1 and 5 on shards of their own, the rest on a third: some
    // rounds announce nothing to the one-client shards, and the wide
    // shard's lanes refill as its clients finish
    let train = dataset();
    let mut cfg = config(1);
    cfg.participation = Participation { fraction: 0.4, min_clients: 1 };
    let shards: Vec<Vec<u32>> =
        vec![vec![1], vec![5], (0..24).filter(|&c| c != 1 && c != 5).collect()];
    let protocol =
        PtfFedRec::try_new(&train, CLIENT, SERVER, &ModelHyper::small(), cfg.clone()).unwrap();
    let sampled: Vec<Vec<u32>> = (0..cfg.rounds)
        .map(|r| ptf_core::rounds::sample_participants(&cfg, protocol.trainable(), r))
        .collect();
    for lone in [1, 5] {
        assert!(
            sampled.iter().any(|p| !p.contains(&lone)),
            "test needs a round that announces nothing to client {lone}'s shard"
        );
    }
    let reference = engine_trace_json(&train, &cfg);
    let (net, stragglers) =
        loopback_trace_json(&train, &cfg, &shards, None, Duration::from_secs(30));
    assert!(stragglers.is_empty());
    assert_eq!(net, reference);
}

#[test]
fn straggler_is_dropped_and_trace_matches_unsampled_reference() {
    let train = dataset();
    let cfg = config(1);
    let last_round = cfg.rounds - 1;
    let straggler = 7u32;

    // reference: run all but the last round normally, then the last
    // round with the straggler excluded from the participant set — the
    // trace a run would have had if the straggler were never sampled
    let protocol =
        PtfFedRec::try_new(&train, CLIENT, SERVER, &ModelHyper::small(), cfg.clone()).unwrap();
    let trainable = protocol.trainable().to_vec();
    assert!(trainable.contains(&straggler), "test needs a trainable straggler");
    let mut engine = Engine::new(protocol);
    let mut reference = ptf_federated::RunTrace::default();
    for _ in 0..last_round {
        reference.push(engine.run_round());
    }
    let reduced: Vec<u32> = trainable.iter().copied().filter(|&c| c != straggler).collect();
    reference.push(engine.run_round_external(&reduced).expect("protocol supports external sets"));
    let reference = serde_json::to_string(&reference).unwrap();

    // networked: the straggler's shard sleeps through the last round's
    // deadline and gets dropped for that round only
    let shards: Vec<Vec<u32>> =
        vec![(0..24).filter(|&c| c != straggler).collect(), vec![straggler]];
    let plan = Straggle { round: last_round, delay: Duration::from_millis(4000) };
    let (net, stragglers) =
        loopback_trace_json(&train, &cfg, &shards, Some((1, plan)), Duration::from_millis(1000));
    assert_eq!(stragglers, vec![StragglerDrop { round: last_round, client: straggler }]);
    assert_eq!(net, reference, "dropped straggler must equal an unsampled client");
}

#[test]
fn a_malformed_upload_drops_its_client_and_the_run_goes_on() {
    // one logical client speaks the protocol by hand and answers every
    // announcement with an upload the server cannot train on — an item
    // past the catalogue, then a NaN score, then a score above 1, then a
    // triple naming another user. Each is discarded on receipt and its
    // client dropped for that round like a straggler, so the run must
    // equal an engine run that never sampled it
    let train = dataset();
    let mut cfg = config(1);
    cfg.rounds = 4;
    let bad = 7u32;
    let num_items = train.num_items() as u32;
    let malformed = [(bad, num_items, 0.5), (bad, 3, f32::NAN), (bad, 3, 1.5), (bad + 1, 3, 0.5)];

    let protocol =
        PtfFedRec::try_new(&train, CLIENT, SERVER, &ModelHyper::small(), cfg.clone()).unwrap();
    let reduced: Vec<u32> = protocol.trainable().iter().copied().filter(|&c| c != bad).collect();
    assert!(reduced.len() + 1 == protocol.trainable().len(), "test needs a trainable offender");
    let mut engine = Engine::new(protocol);
    let mut reference = ptf_federated::RunTrace::default();
    for _ in 0..cfg.rounds {
        reference.push(engine.run_round_external(&reduced).expect("external sets are honored"));
    }

    let (hub, events) = loopback_hub();
    let opts = server_options(&cfg);
    let train = &train;
    let (report, dropped_notices) = std::thread::scope(|scope| {
        let shard_opts = ShardOptions {
            cfg: cfg.clone(),
            client_kind: CLIENT,
            server_kind: SERVER,
            hyper: ModelHyper::small(),
            ids: (0..24).filter(|&c| c != bad).collect(),
            straggle: None,
        };
        let honest = scope.spawn({
            let hub = hub.clone();
            move || run_shard(train, &mut hub.connect(), &shard_opts)
        });
        let offender = scope.spawn({
            let hub = hub.clone();
            let cfg = cfg.clone();
            move || {
                let mut conn = hub.connect();
                let fingerprint = ptf_net::config_fingerprint(
                    &cfg,
                    CLIENT,
                    SERVER,
                    &ModelHyper::small(),
                    train.num_users(),
                    train.num_items(),
                );
                conn.send(&Frame::Hello { client: bad, trainable: true, fingerprint }).unwrap();
                let mut dropped = Vec::new();
                loop {
                    match conn.recv().unwrap().expect("the server finishes the run") {
                        Frame::Announce { round, clients, .. } => {
                            assert_eq!(clients, [bad]);
                            let client = bad;
                            let triples = vec![(bad, 1, 0.25), malformed[round as usize]];
                            conn.send(&Frame::Upload { client, round, loss: 0.5, triples })
                                .unwrap();
                        }
                        Frame::Dropped { round, .. } => dropped.push(round),
                        Frame::Welcome { .. } => {}
                        Frame::Finished { .. } => return dropped,
                        other => panic!("unexpected frame for the offender: {other:?}"),
                    }
                }
            }
        });
        let (report, _server) = run_server(train, &events, &opts).unwrap();
        let summary = honest.join().unwrap().expect("the honest shard completes every round");
        assert_eq!(summary.rounds_finished, cfg.rounds);
        assert_eq!(summary.dropped, 0, "only the offender is dropped");
        (report, offender.join().unwrap())
    });
    let expected: Vec<StragglerDrop> =
        (0..cfg.rounds).map(|round| StragglerDrop { round, client: bad }).collect();
    assert_eq!(report.stragglers, expected);
    assert_eq!(dropped_notices, (0..cfg.rounds).collect::<Vec<_>>());
    assert_eq!(
        serde_json::to_string(&report.trace).unwrap(),
        serde_json::to_string(&reference).unwrap(),
        "a dropped offender must equal an unsampled client"
    );
}

#[test]
fn a_dispersal_outside_the_catalogue_is_an_error_not_a_panic() {
    // the server half is scripted: it welcomes one client, announces
    // round 0, reads the upload, disperses one bad triple — an item one
    // past the catalogue, or a triple naming another user — and announces
    // round 1. The shard must refuse the dispersal on receipt, before the
    // triple reaches the client's model
    let train = dataset();
    let cfg = config(1);
    let num_items = train.num_items() as u32;
    let client = (0..train.num_users() as u32).find(|&u| !train.user_items(u).is_empty()).unwrap();
    let cases = [((client, num_items, 0.5), format!("item {num_items}")), {
        let other = client + 1;
        ((other, 1, 0.5), format!("user {other}"))
    }];
    for (bad, names) in cases {
        let shard_opts = ShardOptions {
            cfg: cfg.clone(),
            client_kind: CLIENT,
            server_kind: SERVER,
            hyper: ModelHyper::small(),
            ids: vec![client],
            straggle: None,
        };
        let (hub, events) = loopback_hub();
        let train = &train;
        let joined = std::thread::scope(|scope| {
            let shard = scope.spawn(move || run_shard(train, &mut hub.connect(), &shard_opts));
            let peer = match events.recv().unwrap() {
                Event::Opened { peer, .. } => peer,
                _ => panic!("the shard's connection must open first"),
            };
            let next_frame = || loop {
                if let Event::Frame { frame, .. } = events.recv().unwrap() {
                    return frame;
                }
            };
            assert!(matches!(next_frame(), Frame::Hello { .. }));
            let fleet = train.num_users() as u32;
            peer.send(Frame::Welcome { client, fleet, rounds: cfg.rounds });
            peer.send(Frame::Announce { round: 0, deadline_ms: 30_000, clients: vec![client] });
            assert!(matches!(next_frame(), Frame::Upload { round: 0, .. }));
            peer.send(Frame::Disperse { client, round: 0, triples: vec![bad] });
            peer.send(Frame::Announce { round: 1, deadline_ms: 30_000, clients: vec![client] });
            // a shard that took the triple ends on the closed connection
            drop(peer);
            shard.join()
        });
        match joined.expect("a bad dispersal must not panic the shard") {
            Err(NetError::Protocol(why)) => {
                for part in [&format!("client {client}"), "round 0", &names] {
                    assert!(why.contains(part), "{why:?} does not name {part}");
                }
            }
            Err(e) => panic!("expected a protocol violation for {bad:?}, got {e}"),
            Ok(_) => panic!("the dispersal {bad:?} was accepted"),
        }
    }
}

/// Runs a two-client shard (ids 2 and 5) against a scripted server that
/// welcomes both and sends one round-2 announcement listing `announced`.
fn shard_against_one_announcement(announced: Vec<u32>) -> Result<(), NetError> {
    let train = dataset();
    let cfg = config(1);
    let shard_opts = ShardOptions {
        cfg: cfg.clone(),
        client_kind: CLIENT,
        server_kind: SERVER,
        hyper: ModelHyper::small(),
        ids: vec![2, 5],
        straggle: None,
    };
    let (hub, events) = loopback_hub();
    let train = &train;
    let joined = std::thread::scope(|scope| {
        let shard = scope.spawn(move || run_shard(train, &mut hub.connect(), &shard_opts));
        let peer = match events.recv().unwrap() {
            Event::Opened { peer, .. } => peer,
            _ => panic!("the shard's connection must open first"),
        };
        let fleet = train.num_users() as u32;
        let mut hellos = 0;
        while hellos < 2 {
            if let Event::Frame { frame: Frame::Hello { client, .. }, .. } = events.recv().unwrap()
            {
                peer.send(Frame::Welcome { client, fleet, rounds: cfg.rounds });
                hellos += 1;
            }
        }
        peer.send(Frame::Announce { round: 2, deadline_ms: 30_000, clients: announced });
        // a shard that accepted the announcement ends here instead of hanging
        peer.send(Frame::Finished { rounds: cfg.rounds });
        shard.join()
    });
    joined.expect("a bad announcement must not panic the shard").map(|_| ())
}

#[test]
fn a_bad_announcement_is_an_error_not_a_stall() {
    // a client the shard does not host, a repeated id and a descending
    // list: each must end the shard naming the round and the client,
    // instead of leaving the server to wait out its deadline
    for (announced, client) in [(vec![2, 7], 7), (vec![5, 5], 5), (vec![5, 2], 2)] {
        match shard_against_one_announcement(announced.clone()) {
            Err(NetError::Protocol(why)) => {
                for part in ["round 2".to_string(), format!("client {client}")] {
                    assert!(why.contains(&part), "{announced:?}: {why:?} does not name {part}");
                }
            }
            Err(e) => panic!("{announced:?}: expected a protocol violation, got {e}"),
            Ok(()) => panic!("{announced:?}: the shard finished a run it was never given"),
        }
    }
}

#[test]
fn client_reconnect_during_gather_still_reaches_parity() {
    let train = dataset();
    let cfg = config(1);
    let reference = engine_trace_json(&train, &cfg);

    let (hub, events) = loopback_hub();
    let opts = server_options(&cfg);
    let train = &train;

    // client 0 hellos and its connection dies before the server even
    // starts — the events (hello, then close) are queued ahead of the
    // rest of the fleet, so the server must notice the dead slot and
    // hold the gather open for the reconnect
    {
        let mut conn = hub.connect();
        let fp = ptf_net::config_fingerprint(
            &cfg,
            CLIENT,
            SERVER,
            &ModelHyper::small(),
            train.num_users(),
            train.num_items(),
        );
        conn.send(&ptf_net::wire::Frame::Hello { client: 0, trainable: true, fingerprint: fp })
            .unwrap();
    }
    // let the dead connection's pump threads enqueue hello + close
    std::thread::sleep(Duration::from_millis(50));

    let report = std::thread::scope(|scope| {
        // the rest of the fleet
        {
            let hub = hub.clone();
            let shard_opts = ShardOptions {
                cfg: cfg.clone(),
                client_kind: CLIENT,
                server_kind: SERVER,
                hyper: ModelHyper::small(),
                ids: (1..24).collect(),
                straggle: None,
            };
            scope.spawn(move || {
                let mut conn = hub.connect();
                run_shard(train, &mut conn, &shard_opts).unwrap();
            });
        }
        // client 0 reconnects from a fresh connection; a `DuplicateClient`
        // reject only means the server has not yet processed the old
        // connection's close — retry until the slot frees up
        {
            let hub = hub.clone();
            let shard_opts = ShardOptions {
                cfg: cfg.clone(),
                client_kind: CLIENT,
                server_kind: SERVER,
                hyper: ModelHyper::small(),
                ids: vec![0],
                straggle: None,
            };
            scope.spawn(move || {
                for _ in 0..500 {
                    let mut conn = hub.connect();
                    match run_shard(train, &mut conn, &shard_opts) {
                        Ok(_) => return,
                        Err(NetError::Handshake(msg)) if msg.contains("already connected") => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(e) => panic!("reconnect failed: {e}"),
                    }
                }
                panic!("client 0 never managed to reconnect");
            });
        }
        let (report, _server) = run_server(train, &events, &opts).unwrap();
        report
    });
    assert!(report.stragglers.is_empty(), "nobody straggled: {:?}", report.stragglers);
    assert!(report.connections >= 3, "the reconnect must show up as an extra connection");
    assert_eq!(serde_json::to_string(&report.trace).unwrap(), reference);
}

#[test]
fn a_transport_that_dies_mid_run_is_an_error_not_a_hang() {
    // one hand-driven shard speaks for the whole fleet and owns the only
    // hub: it answers round 0, then drops its connection and the hub on
    // round 1's announcement. With every sender gone the event
    // queue closes, and the server must report that long before the
    // round deadline instead of waiting it out
    let train = dataset();
    let cfg = config(1);
    let opts = server_options(&cfg);
    let (hub, events) = loopback_hub();
    let train = &train;
    let start = std::time::Instant::now();
    let served = std::thread::scope(|scope| {
        let shard = scope.spawn(move || {
            let mut conn = hub.connect();
            let fingerprint = ptf_net::config_fingerprint(
                &cfg,
                CLIENT,
                SERVER,
                &ModelHyper::small(),
                train.num_users(),
                train.num_items(),
            );
            for client in 0..train.num_users() as u32 {
                conn.send(&Frame::Hello { client, trainable: true, fingerprint }).unwrap();
            }
            loop {
                match conn.recv().unwrap().expect("the server is still running") {
                    Frame::Announce { round: 0, clients, .. } => {
                        for client in clients {
                            let triples = vec![(client, 1, 0.25)];
                            conn.send(&Frame::Upload { client, round: 0, loss: 0.5, triples })
                                .unwrap();
                        }
                    }
                    Frame::Announce { .. } => return, // drops `conn` and `hub`
                    _ => {}
                }
            }
        });
        let served = run_server(train, &events, &opts);
        shard.join().unwrap();
        served
    });
    match served {
        Err(NetError::Disconnected(_)) => {}
        Err(e) => panic!("expected a disconnect, got {e}"),
        Ok(_) => panic!("a run whose transport died must not succeed"),
    }
    assert!(
        start.elapsed() < opts.round_deadline / 3,
        "the closed queue was noticed only after {:?}",
        start.elapsed()
    );
}

#[test]
fn fingerprint_mismatch_is_rejected_at_handshake() {
    let train = dataset();
    let cfg = config(1);
    let (hub, events) = loopback_hub();
    let mut drifted = cfg.clone();
    drifted.seed += 1; // any semantic drift must be caught before round 0
    let mut opts = server_options(&cfg);
    opts.gather_timeout = Duration::from_millis(400);
    let train = &train;
    let (server_res, client_res) = std::thread::scope(|scope| {
        let shard = scope.spawn({
            let hub = hub.clone();
            move || {
                let mut conn = hub.connect();
                let shard_opts = ShardOptions {
                    cfg: drifted,
                    client_kind: CLIENT,
                    server_kind: SERVER,
                    hyper: ModelHyper::small(),
                    ids: vec![0],
                    straggle: None,
                };
                run_shard(train, &mut conn, &shard_opts)
            }
        });
        // the only client is rejected, so the gather must time out
        let server_res = run_server(train, &events, &opts);
        (server_res, shard.join().unwrap())
    });
    let server_err = match server_res {
        Err(e) => e,
        Ok(_) => panic!("the server must not gather a fleet of rejected clients"),
    };
    assert!(matches!(server_err, NetError::Timeout(_)), "got {server_err}");
    let client_err = client_res.unwrap_err();
    assert!(matches!(client_err, NetError::Handshake(_)), "got {client_err}");
}
