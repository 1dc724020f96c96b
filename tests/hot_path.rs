//! Allocation accounting of the round hot path.
//!
//! This binary installs the `ptf_tensor::alloc::CountingAlloc` shim, so
//! every protocol round reports how many heap allocations happened
//! *inside* the parallel client phase (`PtfFedRec::last_round_client_allocs`).
//! The headline assertion: with an allocation-free client model (MF) and
//! the scratch-buffer pool warmed up, a steady-state PTF-FedRec round
//! performs **zero** client-path heap allocations — negative sampling,
//! training-pool assembly, local SGD, scoring, and upload staging all run
//! inside reused buffers.

use ptf_fedrec::core::{DefenseKind, PtfConfig, PtfFedRec};
use ptf_fedrec::data::{SyntheticConfig, TrainTestSplit};
use ptf_fedrec::federated::Engine;
use ptf_fedrec::models::{ModelHyper, ModelKind};
use ptf_fedrec::tensor::alloc;

#[global_allocator]
static COUNTER: alloc::CountingAlloc = alloc::CountingAlloc;

fn split() -> TrainTestSplit {
    split_over(96)
}

/// The 48-user fleet over an `items` catalogue. Every client is built
/// row-sparse; over 40 items (each client holds at least 4 positives, so
/// a round's pool covers half the catalogue) the first rounds' growth
/// turns every client dense.
fn split_over(items: usize) -> TrainTestSplit {
    let data =
        SyntheticConfig::new("hot", 48, items, 12.0).generate(&mut ptf_fedrec::data::test_rng(31));
    TrainTestSplit::split_80_20(&data, &mut ptf_fedrec::data::test_rng(32))
}

#[test]
fn steady_state_mf_rounds_allocate_nothing_on_the_client_path() {
    // the rounds it takes every client's growth to turn its table dense:
    // 25 of the 48 are dense after round 1, 36 after round 2, 43 after
    // round 3, all after round 4
    steady_state_dense_mf_rounds_allocate_nothing(DefenseKind::NoDefense, 4);
}

/// The paper's default defense draws its samples and swap partners into
/// per-worker workspaces and reserves the recycled upload for the whole
/// pool, so sampling and swapping leave the steady state allocation-free.
#[test]
fn steady_state_mf_rounds_under_sampling_and_swapping_allocate_nothing() {
    // under this defense the clients turn dense more slowly: all 48 are
    // dense after six rounds, and the
    // eighth still grows one lane's workspace to a larger client than it
    // served before
    steady_state_dense_mf_rounds_allocate_nothing(DefenseKind::SamplingSwapping, 8);
}

/// Runs `warm_up` rounds, after which every client must be dense, then
/// asserts two more allocate nothing on the client path.
fn steady_state_dense_mf_rounds_allocate_nothing(defense: DefenseKind, warm_up: u32) {
    let s = split_over(40);
    let mut cfg = PtfConfig::small();
    cfg.rounds = warm_up + 2;
    cfg.client_epochs = 2;
    cfg.alpha = 8;
    // one worker thread, so the same warmed scratch set serves every
    // round: its 48 participants pass through the worker's four MF lanes,
    // each lane refilled as its client finishes
    cfg.defense = defense;
    cfg.threads = 1;
    // dense client tables: once every item row exists, the strict
    // zero-allocation guarantee holds from the next round on (the
    // row-sparse path is covered by the sibling test below, where
    // allocations may only come from first-touch row materialization)
    let mut fed = Engine::new(
        PtfFedRec::try_new(&s.train, ModelKind::Mf, ModelKind::Mf, &ModelHyper::small(), cfg)
            .expect("valid config"),
    );
    assert_eq!(fed.protocol().dense_clients(), 0, "every client is built row-sparse");

    // warm-up: round 1 grows the scratch/upload buffers, round 2 first
    // sees server-dispersed soft labels (D̃ enlarges the training pool),
    // and by the end of round `warm_up` every client is dense
    for _ in 0..warm_up {
        fed.run_round();
    }
    assert!(alloc::total_allocs() > 0, "the counting shim must be live in this binary");
    assert_eq!(fed.protocol().dense_clients(), 48, "every client is dense after the warm-up");

    for round in warm_up..warm_up + 2 {
        fed.run_round();
        assert_eq!(
            fed.protocol().last_round_client_allocs(),
            0,
            "{defense:?}, round {round}: steady-state client path must not touch the heap"
        );
    }
}

#[test]
fn steady_state_scoped_mf_rounds_allocate_nothing_once_rows_settle() {
    // the Rows-scoped client guarantee: row growth may allocate on
    // FIRST touch only — once a client has touched every item
    // it will ever see, rounds are as allocation-free as full tables.
    // Every client holds exactly 2 positives over a 48-item catalogue
    // (more than 20× its positives, so it is built row-sparse); its
    // negatives and dispersed items coupon-collect the catalogue, so the
    // fleet's row set saturates during the long warm-up and the
    // assertion is deterministic.
    const WARM_UP: u32 = 40;
    let shape = SyntheticConfig {
        len_sigma: 0.0,
        min_profile_len: 2,
        ..SyntheticConfig::new("hot-scoped", 16, 48, 2.0)
    };
    let data = shape.generate(&mut ptf_fedrec::data::test_rng(7));
    let s = TrainTestSplit::split_80_20(&data, &mut ptf_fedrec::data::test_rng(8));
    let mut cfg = PtfConfig::small();
    cfg.rounds = WARM_UP + 2;
    cfg.client_epochs = 2;
    cfg.alpha = 8;
    cfg.defense = DefenseKind::NoDefense;
    cfg.threads = 1;
    let mut fed = Engine::new(
        PtfFedRec::try_new(&s.train, ModelKind::Mf, ModelKind::Mf, &ModelHyper::small(), cfg)
            .expect("valid config"),
    );

    let full_rows = s.train.num_users() * s.train.num_items();
    assert!(
        fed.protocol().materialized_item_rows() < full_rows / 2,
        "fresh scoped fleet should hold a fraction of {full_rows} rows"
    );

    // warm-up: scratch buffers + first-touch materialization of sampled
    // negatives and dispersed items
    for _ in 0..WARM_UP {
        fed.run_round();
    }
    let settled = fed.protocol().materialized_item_rows();
    for round in WARM_UP..WARM_UP + 2 {
        fed.run_round();
        assert_eq!(
            fed.protocol().materialized_item_rows(),
            settled,
            "round {round}: row set was expected to be saturated by warm-up"
        );
        assert_eq!(
            fed.protocol().last_round_client_allocs(),
            0,
            "round {round}: a scoped steady-state round (no new rows) must not touch the heap"
        );
    }
}

#[test]
fn eviction_keeps_client_rows_bounded_over_fifty_rounds() {
    // Without eviction, a sparse client's row set grows monotonically —
    // every round's fresh negatives coupon-collect the catalogue. With
    // `evict_interval`/`evict_budget` set, each client is trimmed back to
    // its budget every interval, so 50 rounds stay bounded while the
    // no-eviction control keeps climbing past the same budget.
    let data =
        SyntheticConfig::new("bounded", 12, 400, 8.0).generate(&mut ptf_fedrec::data::test_rng(21));
    let s = TrainTestSplit::split_80_20(&data, &mut ptf_fedrec::data::test_rng(22));
    let mut cfg = PtfConfig::small();
    cfg.rounds = 50;
    cfg.client_epochs = 1;
    cfg.defense = DefenseKind::NoDefense;
    cfg.threads = 1;
    cfg.storage.evict_interval = 5;
    // comfortably above any single round's pool (positives + 4× negatives
    // + dispersed items ≈ 50 ids) so the working set is never churned
    let budget = 120;
    cfg.storage.evict_budget = budget;
    let control_cfg = {
        let mut c = cfg.clone();
        c.storage.evict_interval = 0;
        c.storage.evict_budget = 0;
        c
    };
    let build = |cfg: PtfConfig| {
        Engine::new(
            PtfFedRec::try_new(&s.train, ModelKind::Mf, ModelKind::Mf, &ModelHyper::small(), cfg)
                .expect("valid config"),
        )
    };
    let mut evicting = build(cfg);
    let mut control = build(control_cfg);

    let num_users = s.train.num_users() as u32;
    let mut plateau = Vec::new();
    for round in 1..=50u32 {
        evicting.run_round();
        control.run_round();
        if round % 5 == 0 {
            let max_rows =
                (0..num_users).map(|u| evicting.protocol().client(u).item_rows()).max().unwrap();
            assert!(
                max_rows <= budget,
                "round {round}: a client holds {max_rows} rows, budget {budget}"
            );
            plateau.push(evicting.protocol().materialized_item_rows());
        }
    }
    // boundedness is a plateau, not a slowed climb: the fleet's row count
    // at interval boundaries stops growing once the budget binds
    let mid = plateau[plateau.len() / 2];
    let last = *plateau.last().unwrap();
    assert!(
        last <= mid + num_users as usize,
        "fleet rows still climbing at boundaries: {plateau:?}"
    );
    // and the control demonstrates the problem being solved
    let control_max =
        (0..num_users).map(|u| control.protocol().client(u).item_rows()).max().unwrap();
    assert!(
        control_max > budget,
        "control never exceeded the budget ({control_max} rows) — test shape too small"
    );
}

#[test]
fn a_stored_client_round_does_not_allocate_per_parameter() {
    // One MF client-round of the cohort runtime: restore the client from
    // its envelope, train, park it, append the dispersal. Parameter
    // buffers travel as one packed string each, so the count is a
    // function of the envelope's *fields*, never of the ~8.5 k parameters
    // a 256-row, 32-dim client holds — the decimal encoding took ≈ 18.7 k
    // allocations for the same round. Appending D̃ instead of decoding and
    // re-encoding the whole envelope took it from 292 to 199, counted in
    // an in-process store; the on-disk store adds path joins and file
    // handles, and the round took 222. Since the state codec writes and
    // reads envelopes in one pass — no JSON value tree, no intermediate
    // copy of the model text, park and deliver through one reused buffer —
    // it took 63. Restoring over an empty item scope, evicting in the
    // scratch buffers and drawing the defense's samples into workspaces
    // took it to 45. Reading the envelope into a pooled buffer instead of
    // a fresh `String` saves one more, and the engine's trace doubling its
    // capacity at this, its fifth, round costs one: 45 again, the bound,
    // so a value tree cannot creep back.
    use ptf_fedrec::core::{CohortData, CohortFedRec, CohortOptions, ServerScope, StoreKind};
    let data =
        SyntheticConfig::new("stored", 6, 3000, 40.0).generate(&mut ptf_fedrec::data::test_rng(51));
    let mut cfg = PtfConfig::paper();
    cfg.rounds = 6;
    cfg.threads = 1;
    cfg.storage.evict_interval = 1;
    cfg.storage.evict_budget = 256;
    let root = std::env::temp_dir().join(format!("ptf-hot-stored-{}", std::process::id()));
    let protocol = CohortFedRec::try_new(
        CohortData::Mem(data),
        ModelKind::Mf,
        ModelKind::Mf,
        &ModelHyper::default(),
        cfg,
        CohortOptions {
            cohort: 0,
            store: StoreKind::Disk(root.clone()),
            server_scope: ServerScope::FullFleet,
        },
    )
    .expect("valid config");
    let mut engine = Engine::new(protocol);
    let client = [engine.protocol().trainable()[0]];
    // warm-up: the first round builds the client, the next ones grow its
    // row set to the eviction budget and the scratch buffers to size
    for _ in 0..4 {
        engine.run_round_external(&client).expect("external participant sets are honored");
    }
    // a single participant runs on this thread, so the thread counter
    // sees the whole round (server phase included)
    let before = alloc::thread_allocs();
    let trace = engine.run_round_external(&client).expect("external participant sets are honored");
    let allocs = alloc::thread_allocs() - before;
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(trace.participants, 1);
    assert!(allocs > 0, "the counting shim must see the envelope buffers");
    assert!(
        allocs <= 45,
        "one stored client-round took {allocs} allocations; the envelope codec is allocating \
         per parameter, or delivering D̃ rewrites the envelope again"
    );
}

#[test]
fn a_steady_state_mf_server_phase_allocates_once_per_participant() {
    // The server's serial half: train the hidden model on the uploads,
    // then score the catalogue and select D̃ for every participant.
    // The training triples are one pre-sized buffer; scores, taken-marks
    // and the hard-share buffer are scratch the server keeps, so what is
    // left is the dispersal set handed to each client plus a constant — where selecting per
    // participant from freshly collected candidates took ≈ 32 each. The
    // lint cannot see this: it bounds constructs per function, not calls.
    use ptf_fedrec::core::rounds;
    use ptf_fedrec::federated::{RoundCtx, RoundScratch};
    let s = split();
    let mut cfg = PtfConfig::small();
    cfg.alpha = 8;
    cfg.threads = 1;
    let hyper = ModelHyper::small();
    let users = s.train.num_users() as u32;
    let mut scratch = RoundScratch::default();
    let uploads: Vec<_> = (0..users)
        .map(|id| {
            let mut client = rounds::build_client(&s.train, id, ModelKind::Mf, &hyper, &cfg);
            rounds::client_round(&mut client, &cfg, 0, &mut scratch).0
        })
        .collect();
    let mut server =
        rounds::build_server(users as usize, s.train.num_items(), ModelKind::Mf, &hyper, &cfg);
    for round in 0..2 {
        let mut ctx = RoundCtx::detached(round);
        rounds::server_phase(&mut server, &cfg, round, &uploads, &mut ctx, None);
    }
    let before = alloc::thread_allocs();
    let (_, dispersals) =
        rounds::server_phase(&mut server, &cfg, 2, &uploads, &mut RoundCtx::detached(2), None);
    let allocs = alloc::thread_allocs() - before;
    assert_eq!(dispersals.len(), uploads.len());
    assert!(dispersals.iter().all(|(_, items)| items.len() == cfg.alpha));
    assert!(
        allocs <= uploads.len() as u64 + 16,
        "a server phase over {} participants took {allocs} allocations",
        uploads.len()
    );
}

#[test]
fn default_neumf_rounds_report_their_client_allocations() {
    // the counter itself must work for allocating models too — a NeuMF
    // client's first round grows its working buffers and its scoring
    // calls allocate theirs, and the shim has to see it
    let s = split();
    let mut cfg = PtfConfig::small();
    cfg.rounds = 2;
    cfg.client_epochs = 1;
    cfg.threads = 1;
    let mut fed = Engine::new(
        PtfFedRec::try_new(&s.train, ModelKind::NeuMf, ModelKind::NeuMf, &ModelHyper::small(), cfg)
            .expect("valid config"),
    );
    fed.run_round();
    assert!(
        fed.protocol().last_round_client_allocs() > 0,
        "NeuMF clients allocate; a zero reading would mean the bracket is broken"
    );
}

#[test]
fn a_steady_state_neumf_client_round_allocates_a_constant() {
    // The paper's client model: once its working buffers have grown to
    // the round's batches, a dense NeuMF client-round allocates only the
    // upload it hands over and the block buffers of its two `&self`
    // scoring calls — a count that does not depend on how many batches
    // the round trained (the tape build took 54 here, 109 at the paper's
    // three layers). The lint cannot see this: it bounds constructs per
    // function, not calls.
    use ptf_fedrec::core::rounds;
    use ptf_fedrec::federated::RoundScratch;
    let s = split();
    let mut cfg = PtfConfig::small();
    cfg.alpha = 8;
    cfg.threads = 1;
    // client 0 holds 7 positives over 96 items: built row-sparse, its
    // warm-up rounds grow it until it promotes (exact growth waits for
    // ≈ 97 % of the catalogue)
    let mut client =
        rounds::build_client(&s.train, 0, ModelKind::NeuMf, &ModelHyper::small(), &cfg);
    let mut scratch = RoundScratch::default();
    let mut round = 0;
    while round < 3 || !client.item_scope().is_full() {
        assert!(round < 32, "32 warm-up rounds did not turn the client dense");
        let (upload, _) = rounds::client_round(&mut client, &cfg, round, &mut scratch);
        client.recycle_upload(upload);
        round += 1;
    }
    assert!(client.item_scope().is_full(), "the warm-up did not turn the client dense");
    let before = alloc::thread_allocs();
    let (upload, loss) = rounds::client_round(&mut client, &cfg, round, &mut scratch);
    let allocs = alloc::thread_allocs() - before;
    assert!(loss.is_finite() && !upload.predictions.is_empty());
    assert!(allocs <= 24, "a steady-state NeuMF client-round took {allocs} allocations");
}

#[test]
fn neumf_server_batch_loop_is_allocation_free_after_warmup() {
    // The server phase trains its hidden model (NeuMF here) on the
    // crowdsourced pool batch after batch, every round, for the lifetime
    // of the federation. The hand-derived step works in buffers the
    // model owns — staged rows, activations, the two `dz` blocks, the
    // reused gradient store — so after the first batch has grown every
    // capacity, further batches of the same shape may not touch the heap
    // at all (mixed users: one run per row, the worst case for staging).
    use ptf_fedrec::models::{ModelHyper, NeuMf, Recommender, ScopeView};
    let cfg = ModelHyper { dim: 8, mlp_layers: vec![16, 8], lr: 1e-3, ..ModelHyper::default() };
    let mut m = NeuMf::new_scoped(6, &cfg, ScopeView::Full(24), 11);
    let batch: Vec<(u32, u32, f32)> =
        (0..32u32).map(|k| (k % 6, (k * 7) % 24, if k % 2 == 0 { 1.0 } else { 0.3 })).collect();
    for _ in 0..3 {
        m.train_batch(&batch);
    }
    let t0 = alloc::thread_allocs();
    for _ in 0..20 {
        m.train_batch(&batch);
    }
    assert_eq!(alloc::thread_allocs() - t0, 0, "NeuMF training must not allocate once warm");
}

#[test]
fn ngcf_server_batch_loop_is_allocation_free_after_warmup() {
    // The paper's hidden server model: its hand-derived step works in
    // buffers the model owns — per-layer forward blocks, dropout bits,
    // the gradient blocks, the reused gradient store — so once the first
    // batches have grown them, further batches of the same shape may not
    // touch the heap (dropout on, three layers, a soft-edge graph).
    use ptf_fedrec::models::{ModelHyper, Ngcf, Recommender, ScopeView};
    let cfg = ModelHyper { dim: 16, ngcf_reg: 1e-3, ..ModelHyper::default() };
    let mut m = Ngcf::new_scoped(6, &cfg, ScopeView::Full(24), 11);
    let edges: Vec<(u32, u32, f32)> = (0..30u32).map(|k| (k % 6, (k * 5) % 24, 0.9)).collect();
    m.set_graph(&edges);
    let batch: Vec<(u32, u32, f32)> =
        (0..32u32).map(|k| (k % 6, (k * 7) % 24, if k % 2 == 0 { 1.0 } else { 0.3 })).collect();
    for _ in 0..3 {
        m.train_batch(&batch);
    }
    let t0 = alloc::thread_allocs();
    for _ in 0..20 {
        m.train_batch(&batch);
    }
    assert_eq!(alloc::thread_allocs() - t0, 0, "NGCF training must not allocate once warm");
}

#[test]
fn an_ngcf_servers_scoring_does_not_allocate_once_its_cache_is_built() {
    // dispersal scores the catalogue once per participant and evaluation
    // once per user: after the first call has built the final-embedding
    // cache (and the caller's buffer has grown), scoring is a read of it
    // — cold items included, whose final rows go through a thread-local
    // buffer
    use ptf_fedrec::models::{ModelHyper, Ngcf, Recommender, ScopeView};
    let cfg = ModelHyper { dim: 16, ngcf_reg: 1e-3, ..ModelHyper::default() };
    let mut m = Ngcf::new_scoped(6, &cfg, ScopeView::Rows { num_items: 40, ids: &[3, 9] }, 5);
    m.prepare_items(&[3, 9, 12, 20]);
    m.set_graph(&[(0, 3, 0.9), (1, 9, 0.8), (2, 12, 0.7)]);
    m.train_batch(&[(0, 3, 1.0), (4, 20, 0.0)]);
    let mut scores = Vec::new();
    m.score_all_into(0, &mut scores);
    assert_eq!(scores.len(), 40);
    let t0 = alloc::thread_allocs();
    for user in 0..6 {
        m.score_all_into(user, &mut scores);
    }
    assert_eq!(alloc::thread_allocs() - t0, 0, "scoring through a built cache allocated");
    // and training, which invalidates the cache, rebuilds it into the
    // buffers it already holds
    for _ in 0..2 {
        m.train_batch(&[(0, 3, 1.0), (4, 20, 0.0)]);
        m.score_all_into(0, &mut scores);
    }
    let t0 = alloc::thread_allocs();
    m.train_batch(&[(0, 3, 1.0), (4, 20, 0.0)]);
    m.score_all_into(0, &mut scores);
    assert_eq!(alloc::thread_allocs() - t0, 0, "a cache rebuild allocated");
}

#[test]
fn a_steady_state_sparse_lightgcn_client_round_allocates_a_constant() {
    // A LightGCN client: each round re-sets its ego graph, trains through
    // the hand-derived step and scores twice. The count does not depend on
    // how many batches the round trained — the tape build took 45. Of
    // what is left, 16 are two rebuilds of the propagation operator (8
    // each): one when the round's fresh negatives materialize, one for
    // the new ego graph.
    use ptf_fedrec::core::rounds;
    use ptf_fedrec::federated::RoundScratch;
    let s = split();
    let mut cfg = PtfConfig::small();
    cfg.alpha = 8;
    cfg.threads = 1;
    // the first client whose catalogue is more than 20× its positives,
    // which keeps it row-sparse
    let id = (0..s.train.num_users() as u32)
        .find(|&u| 20 * s.train.user_items(u).len() < s.train.num_items())
        .expect("the fleet has a sparse client");
    let mut client =
        rounds::build_client(&s.train, id, ModelKind::LightGcn, &ModelHyper::small(), &cfg);
    let mut scratch = RoundScratch::default();
    for round in 0..3 {
        let (upload, _) = rounds::client_round(&mut client, &cfg, round, &mut scratch);
        client.recycle_upload(upload);
    }
    let before = alloc::thread_allocs();
    let (upload, loss) = rounds::client_round(&mut client, &cfg, 3, &mut scratch);
    let allocs = alloc::thread_allocs() - before;
    assert!(loss.is_finite() && !upload.predictions.is_empty());
    assert!(allocs <= 30, "a steady-state sparse LightGCN client-round took {allocs} allocations");
}

#[test]
fn counters_track_allocations() {
    // race-free assertions only: sibling tests allocate concurrently, so
    // this checks per-thread counters and lower bounds the global peak
    // (the instant the 4 MiB block is live, current ≥ 4 MiB, and the
    // peak is a fetch_max over current — no reset_peak here, which
    // would race the other tests in this binary)
    let t0 = alloc::thread_allocs();
    let buf: Vec<u8> = vec![0; 4 << 20];
    assert!(alloc::thread_allocs() > t0, "thread-local counter must see the allocation");
    assert!(alloc::peak_bytes() >= buf.len(), "peak must cover the live 4 MiB block");
    assert!(alloc::total_bytes() >= buf.len() as u64);
    drop(buf);
}
