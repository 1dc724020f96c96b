//! Single-layer probes: small fixed inputs timed around one public call
//! each, best-of-batches (see `stats::ns_per_call`). They do not depend
//! on the workload's data, so every workload's traced pass reports them;
//! the README says which end-to-end metric each should move, and where.

use crate::stats::ns_per_call;
use crate::workload::{hyper, protocol_cfg};
use ptf_comm::{CommLedger, Payload};
use ptf_core::{rounds, PtfClient};
use ptf_data::negative::sample_negatives_into;
use ptf_federated::RoundScratch;
use ptf_metrics::rank_metrics_into;
use ptf_models::{build_model, ModelKind};
use ptf_net::wire::{decode_frame, Frame};
use ptf_net::{loopback_hub, Event};
use ptf_privacy::{sample_upload, swap_scores, SamplingConfig, ScoredItem};
use ptf_tensor::kernels;
use rand::Rng;
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;

/// Catalogue and profile sizes of the probes: the ML-100K shape.
const ITEMS: usize = 1_682;
const POSITIVES: usize = 85;
const DIM: usize = 32;

/// Every `step`-th item id, `n` of them, sorted.
fn spread_ids(n: usize) -> Vec<u32> {
    let step = ITEMS / n;
    (0..n).map(|i| (i * step) as u32).collect()
}

fn unit_vec(rng: &mut impl Rng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-0.1f32..0.1)).collect()
}

fn tensor(m: &mut BTreeMap<&'static str, f64>) {
    let mut rng = ptf_data::test_rng(1);
    let (a, b) = (unit_vec(&mut rng, DIM), unit_vec(&mut rng, DIM));
    m.insert(
        "tensor.dot32_ns",
        ns_per_call(|| {
            black_box(kernels::dot(black_box(&a), black_box(&b)));
        }),
    );

    // err and reg near zero: the update runs its full arithmetic but
    // the vectors stay bounded over millions of calls
    let (mut u, mut v) = (a.clone(), b.clone());
    m.insert(
        "tensor.mf_sgd_update_ns",
        ns_per_call(|| {
            kernels::mf_sgd_update(&mut u, &mut v, black_box(1e-9), 0.01, black_box(1e-9));
            black_box((&u, &v));
        }),
    );

    const ELEMS: usize = 1_024;
    let mut p = unit_vec(&mut rng, ELEMS);
    let g = unit_vec(&mut rng, ELEMS);
    let (mut m1, mut m2) = (vec![0.0f32; ELEMS], vec![0.0f32; ELEMS]);
    m.insert(
        "tensor.adam_update_ns_per_kelem",
        ns_per_call(|| {
            kernels::adam_update(
                &mut p,
                &mut m1,
                &mut m2,
                black_box(&g),
                1e-3,
                0.9,
                0.999,
                1e-8,
                0.1,
                0.001,
            );
            black_box(&p);
        }) / (ELEMS as f64 / 1_000.0),
    );
}

fn data(m: &mut BTreeMap<&'static str, f64>) {
    let positives = spread_ids(POSITIVES);
    let draws = POSITIVES * 4;
    let mut rng = ptf_data::test_rng(2);
    let (mut out, mut seen) = (Vec::new(), HashSet::new());
    m.insert(
        "data.negatives_ns_per_draw",
        ns_per_call(|| {
            sample_negatives_into(&positives, ITEMS, draws, &mut rng, &mut out, &mut seen);
            black_box(&out);
        }) / draws as f64,
    );
}

/// One mini-batch of `n` triples for users `0..users`.
fn batch(rng: &mut impl Rng, users: u32, n: usize) -> Vec<(u32, u32, f32)> {
    (0..n)
        .map(|k| {
            (rng.gen_range(0..users), rng.gen_range(0..ITEMS as u32), (k % 5 == 0) as u8 as f32)
        })
        .collect()
}

fn train_batch_us(kind: ModelKind, users: u32, batch_len: usize) -> f64 {
    let mut rng = ptf_data::test_rng(3);
    let mut model = build_model(kind, users as usize, ITEMS, &hyper(), &mut rng);
    if model.uses_graph() {
        // the server's soft-edge graph at this fleet size: every user
        // linked to a profile's worth of items
        let edges: Vec<(u32, u32, f32)> = (0..users)
            .flat_map(|u| {
                spread_ids(POSITIVES).into_iter().map(move |i| (u, (i + u) % ITEMS as u32, 0.9))
            })
            .collect();
        model.set_graph(&edges);
    }
    let samples = batch(&mut rng, users, batch_len);
    ns_per_call(|| {
        black_box(model.train_batch(black_box(&samples)));
    }) / 1e3
}

fn models(server_kind: ModelKind, server_users: u32, m: &mut BTreeMap<&'static str, f64>) {
    m.insert("models.mf_train_batch_us", train_batch_us(ModelKind::Mf, 1, 64));
    m.insert("models.neumf_train_batch_us", train_batch_us(ModelKind::NeuMf, 1, 64));
    m.insert("models.ngcf_train_batch_us", train_batch_us(ModelKind::Ngcf, 64, 1_024));

    // the hidden model's full-catalogue scoring pass, which dispersal
    // and evaluation both run once per user
    let mut rng = ptf_data::test_rng(4);
    let mut server = build_model(server_kind, server_users as usize, ITEMS, &hyper(), &mut rng);
    server.train_batch(&batch(&mut rng, server_users, 64));
    let mut scores = Vec::new();
    server.score_all_into(0, &mut scores); // graph models rebuild their cache once
    m.insert(
        "models.score_all_us",
        ns_per_call(|| {
            server.score_all_into(black_box(0), &mut scores);
            black_box(&scores);
        }) / 1e3,
    );
}

/// Export/import of one client's full model state — the cohort store's
/// unit of work. `client` must have trained at least one round, so its
/// optimizer state and materialized rows are what a stored client holds.
pub fn model_state(client: &mut PtfClient, m: &mut BTreeMap<&'static str, f64>) {
    let state = client.export_model_state().expect("client model supports full-state export");
    m.insert("models.state_kb", state.len() as f64 / 1024.0);
    m.insert(
        "models.export_state_ms",
        ns_per_call(|| {
            black_box(client.export_model_state());
        }) / 1e6,
    );
    m.insert(
        "models.import_state_ms",
        ns_per_call(|| {
            client.import_model_state(black_box(&state)).expect("own state imports");
        }) / 1e6,
    );
}

/// A client of the ML-100K shape after one local round (for
/// [`model_state`] on workloads whose own clients are not at hand).
pub fn trained_client(kind: ModelKind) -> PtfClient {
    let cfg = protocol_cfg(5, 1);
    let data = ptf_federated::ClientData { id: 0, positives: spread_ids(POSITIVES) };
    let mut client = PtfClient::new(data, kind, &hyper(), ITEMS, 5, &cfg);
    rounds::client_round(&mut client, &cfg, 0, &mut RoundScratch::default());
    client
}

fn metrics(m: &mut BTreeMap<&'static str, f64>) {
    let mut rng = ptf_data::test_rng(6);
    let scores = unit_vec(&mut rng, ITEMS);
    let excluded = spread_ids(POSITIVES);
    let relevant: Vec<u32> = spread_ids(21).into_iter().map(|i| i + 1).collect();
    let (mut candidates, mut head) = (Vec::new(), Vec::new());
    m.insert(
        "metrics.rank_user_us",
        ns_per_call(|| {
            black_box(rank_metrics_into(
                black_box(&scores),
                &excluded,
                &relevant,
                20,
                &mut candidates,
                &mut head,
            ));
        }) / 1e3,
    );
}

fn privacy(m: &mut BTreeMap<&'static str, f64>) {
    // a 500-item trained pool at the paper's 1:4 ratio
    let mut rng = ptf_data::test_rng(7);
    let pool = |rng: &mut rand::rngs::StdRng, n: usize| -> Vec<ScoredItem> {
        (0..n as u32).map(|i| (i, rng.gen_range(0.0f32..1.0))).collect()
    };
    let (pos, neg) = (pool(&mut rng, 100), pool(&mut rng, 400));
    let sampling = SamplingConfig::default();
    m.insert(
        "privacy.defend_upload_us",
        ns_per_call(|| {
            let s = sample_upload(pos.len(), neg.len(), &sampling, &mut rng);
            let mut p: Vec<ScoredItem> = s.positives.iter().map(|&i| pos[i]).collect();
            let mut n: Vec<ScoredItem> = s.negatives.iter().map(|&i| neg[i]).collect();
            swap_scores(&mut p, &mut n, 0.1, &mut rng);
            black_box((&p, &n));
        }) / 1e3,
    );
}

fn comm(m: &mut BTreeMap<&'static str, f64>) {
    // cycling over one round's fleet keeps the ledger's map at its
    // steady size instead of growing with the call count
    let mut ledger = CommLedger::new();
    let mut client = 0u32;
    m.insert(
        "comm.ledger_record_ns",
        ns_per_call(|| {
            ledger.upload(client, 0, "client-predictions", Payload::Triples { count: 300 });
            client = (client + 1) % 943;
        }),
    );
    black_box(ledger.total_bytes());
}

fn net(m: &mut BTreeMap<&'static str, f64>) {
    const TRIPLES: usize = 300;
    let mut rng = ptf_data::test_rng(8);
    let frame = Frame::Upload {
        client: 7,
        round: 3,
        loss: 0.5,
        triples: (0..TRIPLES as u32).map(|i| (7, i * 5, rng.gen_range(0.0f32..1.0))).collect(),
    };
    let mut buf = Vec::new();
    m.insert(
        "net.encode_ns_per_triple",
        ns_per_call(|| {
            buf.clear();
            black_box(&frame).encode(&mut buf);
            black_box(&buf);
        }) / TRIPLES as f64,
    );
    let bytes = frame.to_bytes();
    m.insert(
        "net.decode_ns_per_triple",
        ns_per_call(|| {
            black_box(decode_frame(black_box(&bytes)).expect("own encoding decodes"));
        }) / TRIPLES as f64,
    );

    // one small frame each way through the hub's pump threads; dropping
    // the connection, the peer and the queue ends those threads
    let (hub, events) = loopback_hub();
    let mut conn = hub.connect();
    let peer = match events.recv() {
        Ok(Event::Opened { peer, .. }) => peer,
        _ => panic!("the hub announces a new connection first"),
    };
    m.insert(
        "net.hub_rtt_us",
        ns_per_call(|| {
            conn.send(&Frame::Hello { client: 0, trainable: true, fingerprint: 1 })
                .expect("hub is up");
            match events.recv() {
                Ok(Event::Frame { .. }) => {}
                _ => panic!("the hub delivers the hello"),
            }
            assert!(peer.send(Frame::Welcome { client: 0, fleet: 1, rounds: 1 }));
            black_box(conn.recv().expect("hub is up"));
        }) / 1e3,
    );
}

/// Runs every data-independent probe. `server_kind`/`server_users` pick
/// the hidden model `models.score_all_us` scores with.
pub fn probe_all(server_kind: ModelKind, server_users: u32) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    tensor(&mut m);
    data(&mut m);
    models(server_kind, server_users, &mut m);
    metrics(&mut m);
    privacy(&mut m);
    comm(&mut m);
    net(&mut m);
    m
}
