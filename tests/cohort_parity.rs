//! Cohort-sharded runtime parity — the tentpole guarantee of the
//! million-user runtime.
//!
//! [`CohortFedRec`] keeps clients alive only while they train, parking
//! their cross-round state in envelopes between participations; the whole
//! point is that this is a *memory* optimization, never a *semantic*
//! one. These tests pin the contract:
//!
//! * a cohort run's `RunTrace` (and the trained server's ranking
//!   report) is bit-identical to the unsharded [`PtfFedRec`] engine at
//!   every thread count;
//! * a store root that already holds envelopes changes nothing: a run
//!   starts from an empty store;
//! * a checkpointed-then-resumed run reproduces the uninterrupted run's
//!   trace byte for byte, with the ledger carrying over exactly;
//! * resume refuses (with an error, not a panic) manifests that are
//!   truncated, corrupt, or fingerprinted by a different config.

use ptf_fedrec::core::{
    checkpoint, config_fingerprint, CheckpointError, CohortData, CohortFedRec, CohortOptions,
    PtfConfig, PtfFedRec, ServerScope, StoreKind,
};
use ptf_fedrec::data::{SyntheticConfig, TrainTestSplit};
use ptf_fedrec::federated::{Engine, FederatedProtocol, Participation, RunTrace};
use ptf_fedrec::metrics::RankingReport;
use ptf_fedrec::models::{ModelHyper, ModelKind};
use std::path::PathBuf;

fn split(users: usize) -> TrainTestSplit {
    let data = SyntheticConfig::new("cohort", users, 80, 10.0)
        .generate(&mut ptf_fedrec::data::test_rng(41));
    TrainTestSplit::split_80_20(&data, &mut ptf_fedrec::data::test_rng(42))
}

fn cfg(threads: usize) -> PtfConfig {
    let mut cfg = PtfConfig::small();
    cfg.rounds = 3;
    cfg.client_epochs = 1;
    cfg.alpha = 6;
    cfg.threads = threads;
    cfg
}

/// A client store or checkpoint root of one test, removed when dropped —
/// also when an assertion fails first.
struct StoreRoot(PathBuf);

impl StoreRoot {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ptf-cohort-{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear temp dir");
        }
        Self(dir)
    }

    /// Full-fleet cohort options over this root (the cohort size bounds
    /// nothing).
    fn opts(&self) -> CohortOptions {
        CohortOptions {
            cohort: 0,
            store: StoreKind::Disk(self.0.clone()),
            server_scope: ServerScope::FullFleet,
        }
    }
}

impl Drop for StoreRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs a cohort protocol to completion and evaluates it.
fn run_cohort(
    s: &TrainTestSplit,
    client: ModelKind,
    server: ModelKind,
    cfg: PtfConfig,
    opts: CohortOptions,
) -> (RunTrace, RankingReport) {
    let protocol = CohortFedRec::try_new(
        CohortData::Mem(s.train.clone()),
        client,
        server,
        &ModelHyper::small(),
        cfg,
        opts,
    )
    .expect("valid config");
    let mut engine = Engine::new(protocol);
    let trace = engine.run();
    let report = engine.evaluate(&s.train, &s.test, 10);
    (trace, report)
}

/// The headline acceptance matrix: threads {1, 2, 3, 4}, each bit-identical
/// to the unsharded engine, over 150 users with full participation. At 3
/// threads the fleet splits into odd slices, so some lanes run partly
/// empty.
#[test]
fn cohort_runs_match_unsharded_bit_for_bit() {
    let s = split(150);
    let reference = {
        let mut engine = Engine::new(
            PtfFedRec::try_new(
                &s.train,
                ModelKind::Mf,
                ModelKind::NeuMf,
                &ModelHyper::small(),
                cfg(1),
            )
            .expect("valid config"),
        );
        let trace = engine.run();
        let report = engine.evaluate(&s.train, &s.test, 10);
        (trace, report)
    };
    assert!(reference.0.num_rounds() > 0, "empty reference run");
    // one root for every run: each starts from an emptied store
    let root = StoreRoot::new("matrix");
    for threads in [1usize, 2, 3, 4] {
        let got = run_cohort(&s, ModelKind::Mf, ModelKind::NeuMf, cfg(threads), root.opts());
        assert_eq!(reference.0, got.0, "RunTrace diverged at threads={threads}");
        assert_eq!(reference.1, got.1, "RankingReport diverged at threads={threads}");
    }
}

/// Every model family round-trips through envelopes identically —
/// including the graph models (per-round ego-graph rebuild + RwLock
/// propagation caches) and NGCF's message-dropout RNG stream.
#[test]
fn cohort_parity_holds_for_every_architecture() {
    let s = split(30);
    let root = StoreRoot::new("arch");
    for (client, server) in [
        (ModelKind::NeuMf, ModelKind::NeuMf),
        (ModelKind::LightGcn, ModelKind::NeuMf),
        (ModelKind::Ngcf, ModelKind::LightGcn),
    ] {
        let mut c = cfg(2);
        c.rounds = 2;
        let reference = {
            let mut engine = Engine::new(
                PtfFedRec::try_new(&s.train, client, server, &ModelHyper::small(), c.clone())
                    .expect("valid config"),
            );
            (engine.run(), engine.evaluate(&s.train, &s.test, 10))
        };
        let got = run_cohort(&s, client, server, c, root.opts());
        assert_eq!(reference.0, got.0, "{client}->{server}: RunTrace diverged");
        assert_eq!(reference.1, got.1, "{client}->{server}: RankingReport diverged");
    }
}

/// Clients whose growth turns their tables dense between participations:
/// over a 40-item catalogue every client is built row-sparse, and the
/// first rounds' pools promote most of them. Each later participation
/// restores a dense envelope into a freshly built sparse client. The
/// trace and report must equal the resident fleet's, whose clients
/// promote in place.
#[test]
fn clients_that_promote_between_participations_match_the_resident_fleet() {
    let data = SyntheticConfig::new("cohort-dense", 30, 40, 8.0)
        .generate(&mut ptf_fedrec::data::test_rng(43));
    let s = TrainTestSplit::split_80_20(&data, &mut ptf_fedrec::data::test_rng(44));
    let root = StoreRoot::new("promote");
    for (client, server) in [
        (ModelKind::Mf, ModelKind::Mf),
        (ModelKind::NeuMf, ModelKind::NeuMf),
        (ModelKind::Ngcf, ModelKind::LightGcn),
    ] {
        let mut c = cfg(2);
        c.rounds = 4;
        let mut engine = Engine::new(
            PtfFedRec::try_new(&s.train, client, server, &ModelHyper::small(), c.clone())
                .expect("valid config"),
        );
        assert_eq!(engine.protocol().dense_clients(), 0, "{client}: clients start row-sparse");
        let mut trace = RunTrace::default();
        trace.push(engine.run_round());
        let after_one = engine.protocol().dense_clients();
        assert!(after_one > 0, "{client}: no client promoted in round 0");
        for _ in 1..c.rounds {
            trace.push(engine.run_round());
        }
        assert!(
            engine.protocol().dense_clients() > after_one,
            "{client}: no client promoted between participations"
        );
        let resident = (trace, engine.evaluate(&s.train, &s.test, 10));
        let got = run_cohort(&s, client, server, c, root.opts());
        assert_eq!(resident.0, got.0, "{client}->{server}: RunTrace diverged");
        assert_eq!(resident.1, got.1, "{client}->{server}: RankingReport diverged");
    }
}

/// Eviction every round: a restored client merges its recency index,
/// ranks and compacts it, and drops rows exactly as the resident one does,
/// at one worker and at four, for MF clients (the lanes) and NeuMF
/// clients (trained alone). Under the lower budget every pool exceeds it,
/// so each participant keeps exactly its pool; under the higher one the
/// pools fit and are topped up from the recency index to the budget. Both
/// hold fewer rows than a fleet that never evicts.
#[test]
fn evicting_cohort_runs_match_the_resident_fleet() {
    let s = split(40);
    let root = StoreRoot::new("evict");
    for (client, budget) in
        [(ModelKind::Mf, 16), (ModelKind::Mf, 64), (ModelKind::NeuMf, 16), (ModelKind::NeuMf, 64)]
    {
        let evicting = |threads: usize, evict_interval: u32| {
            let mut c = cfg(threads);
            c.storage.evict_interval = evict_interval;
            c.storage.evict_budget = budget;
            c
        };
        let resident = |c: PtfConfig| {
            let mut engine = Engine::new(
                PtfFedRec::try_new(&s.train, client, ModelKind::Mf, &ModelHyper::small(), c)
                    .expect("valid config"),
            );
            let trace = engine.run();
            let report = engine.evaluate(&s.train, &s.test, 10);
            (trace, report, engine)
        };
        let (trace, report, engine) = resident(evicting(1, 1));
        let (.., kept_all) = resident(evicting(1, 0));
        let fleet = engine.protocol();
        let rows: Vec<usize> =
            fleet.trainable().iter().map(|&u| fleet.client(u).item_rows()).collect();
        match budget {
            16 => assert!(rows.iter().all(|&r| r > budget), "{client}: a pool fit in {budget}"),
            _ => assert!(rows.contains(&budget), "{client}: no top-up reached {budget}"),
        }
        assert!(
            fleet.materialized_item_rows() < kept_all.protocol().materialized_item_rows(),
            "{client}: eviction to {budget} dropped no row"
        );
        for threads in [1usize, 4] {
            let got = run_cohort(&s, client, ModelKind::Mf, evicting(threads, 1), root.opts());
            let at = format!("{client}, budget {budget}, threads {threads}");
            assert_eq!(trace, got.0, "{at}: RunTrace diverged");
            assert_eq!(report, got.1, "{at}: RankingReport diverged");
        }
    }
}

/// A fresh run over a store root an earlier run left its envelopes in
/// trains from scratch: the earlier clients are not restored, so the
/// trace equals a run over an empty root.
#[test]
fn a_fresh_run_ignores_envelopes_left_in_its_store_root() {
    let s = split(40);
    let root = StoreRoot::new("reused");
    let empty = StoreRoot::new("empty");
    let first = run_cohort(&s, ModelKind::Mf, ModelKind::NeuMf, cfg(1), root.opts());
    let planted = std::fs::read_dir(&root.0).expect("the first run parked clients").count();
    assert!(planted > 0, "the first run left no envelopes to plant");
    let again = run_cohort(&s, ModelKind::Mf, ModelKind::NeuMf, cfg(1), root.opts());
    let fresh = run_cohort(&s, ModelKind::Mf, ModelKind::NeuMf, cfg(1), empty.opts());
    assert_eq!(first, fresh, "the same run over two empty roots diverged");
    assert_eq!(fresh, again, "a run restored clients an earlier run parked");
}

/// `Engine::run_round_external` — the entry point a networked round
/// server and the repo benchmark's cohort workload drive — must filter,
/// order and dedup a handed-in participant set identically at every
/// client host: unsorted, duplicated and unknown ids, and an empty round.
#[test]
fn external_participant_sets_match_across_hosts() {
    let s = split(40);
    let sets: [&[u32]; 4] = [&[17, 3, 3, 29, 4000], &[], &[5, 17, 1, 1, 3], &[39, 0, 17, 3]];
    fn drive<P: FederatedProtocol>(
        protocol: P,
        sets: &[&[u32]],
        s: &TrainTestSplit,
    ) -> (String, RankingReport) {
        let mut engine = Engine::new(protocol);
        for set in sets {
            engine.run_round_external(set).expect("PTF-FedRec honors external sets");
        }
        assert_eq!(engine.ledger().summary().rounds, sets.len() as u32);
        let trace = serde_json::to_string(engine.trace()).expect("RunTrace serializes");
        (trace, engine.evaluate(&s.train, &s.test, 10))
    }
    let root = StoreRoot::new("external");
    let cohort = CohortFedRec::try_new(
        CohortData::Mem(s.train.clone()),
        ModelKind::Mf,
        ModelKind::NeuMf,
        &ModelHyper::small(),
        cfg(2),
        root.opts(),
    )
    .expect("valid config");
    let resident =
        PtfFedRec::try_new(&s.train, ModelKind::Mf, ModelKind::NeuMf, &ModelHyper::small(), cfg(1))
            .expect("valid config");
    let reference = drive(resident, &sets, &s);
    assert!(reference.0.contains("\"participants\":3"), "sets were not deduped: {}", reference.0);
    assert_eq!(reference, drive(cohort, &sets, &s), "cohort host diverged");
}

/// `ServerScope::ActiveParticipants` is a different run than
/// `FullFleet` (smaller server user table ⇒ different init draws) but
/// must be self-consistent: the same trace at every thread count, and a
/// server table sized by the active union, not the fleet.
#[test]
fn active_scope_is_self_consistent_across_cohorts_and_threads() {
    let s = split(60);
    let mut base = cfg(1);
    base.participation = Participation { fraction: 0.3, min_clients: 4 };
    base.rounds = 4;
    let root = StoreRoot::new("active");
    let build = |threads: usize| {
        let mut c = base.clone();
        c.threads = threads;
        CohortFedRec::try_new(
            CohortData::Mem(s.train.clone()),
            ModelKind::Mf,
            ModelKind::NeuMf,
            &ModelHyper::small(),
            c,
            CohortOptions { server_scope: ServerScope::ActiveParticipants, ..root.opts() },
        )
        .expect("valid config")
    };
    let reference_protocol = build(1);
    let active_users = reference_protocol.server_users();
    assert!(
        active_users < s.train.num_users(),
        "partial participation should leave some users outside the active set \
         ({active_users} of {})",
        s.train.num_users()
    );
    let reference = Engine::new(reference_protocol).run();
    assert!(reference.num_rounds() > 0);
    for threads in [3usize, 4] {
        let got = Engine::new(build(threads)).run();
        assert_eq!(reference, got, "active-scope trace diverged at threads={threads}");
    }
}

/// Kill-and-resume byte parity at the library level: run 2 of 5 rounds,
/// checkpoint, rebuild everything from the manifest, finish — the
/// stitched trace, the final ledger and the final `server.json` must
/// equal the uninterrupted run's exactly. The graph servers restore a
/// soft-edge memory and rebuild their graph from it on resume.
#[test]
fn checkpoint_resume_reproduces_uninterrupted_run() {
    for (client, server) in [
        (ModelKind::Mf, ModelKind::NeuMf),
        (ModelKind::NeuMf, ModelKind::Ngcf),
        (ModelKind::Mf, ModelKind::LightGcn),
    ] {
        resume_matches_uninterrupted(client, server, 0);
    }
}

/// The same under eviction every round, with a budget some pools exceed
/// and others are topped up to: the committed envelopes carry compacted
/// recency indexes and evicted tables, and the resumed run ranks and
/// evicts on from them as the uninterrupted run does.
#[test]
fn checkpoint_resume_under_eviction_reproduces_uninterrupted_run() {
    resume_matches_uninterrupted(ModelKind::Mf, ModelKind::Mf, 48);
}

/// Kill-and-resume of a `client`/`server` run; an `evict_budget` above 0
/// evicts every round down to it.
fn resume_matches_uninterrupted(client: ModelKind, server: ModelKind, evict_budget: usize) {
    let s = split(40);
    let mut c = cfg(2);
    c.rounds = 5;
    c.storage.evict_interval = u32::from(evict_budget > 0);
    c.storage.evict_budget = evict_budget;
    let hyper = ModelHyper::small();
    let fingerprint =
        config_fingerprint(&c, client, server, &hyper, s.train.num_users(), s.train.num_items());
    // every build empties the store: the resumed run's is refilled from
    // the commit, not left over from the interrupted run
    // the eviction and plain cases run as two tests at once: their roots
    // differ by the budget
    let tag = |name: &str| StoreRoot::new(&format!("{name}-{evict_budget}"));
    let root = tag("resume-store");
    let build = || {
        CohortFedRec::try_new(
            CohortData::Mem(s.train.clone()),
            client,
            server,
            &hyper,
            c.clone(),
            root.opts(),
        )
        .expect("valid config")
    };
    let pair = format!("{client}/{server}");
    // the server envelope a final commit of `engine` writes
    let final_server = |engine: &Engine<CohortFedRec>, name: &str| {
        let dir = tag(name);
        checkpoint::save_checkpoint(
            &dir.0,
            engine.protocol(),
            engine.ledger(),
            &engine.trace().rounds,
            fingerprint,
        )
        .expect("checkpoint saves");
        std::fs::read(checkpoint::commit_dir(&dir.0, 5).join("server.json"))
            .expect("server.json written")
    };

    let (full_trace, at_commit, full_report, full_ledger, full_server) = {
        let mut engine = Engine::new(build());
        let first = [engine.run_round(), engine.run_round()];
        let at_commit = engine.evaluate(&s.train, &s.test, 10);
        let trace = engine.run();
        assert_eq!(trace.rounds[..2], first, "{pair}: run() dropped the rounds before it");
        let report = engine.evaluate(&s.train, &s.test, 10);
        let server = final_server(&engine, "final-full");
        (trace, at_commit, report, engine.ledger().summary(), server)
    };
    let no_edges = String::from_utf8_lossy(&full_server).contains(r#""edge_users":[]"#);
    let graph = matches!(server, ModelKind::Ngcf | ModelKind::LightGcn);
    assert_eq!(no_edges, !graph, "{pair}: a soft-edge memory exactly for a graph server");

    let ckpt_root = tag("ckpt");
    let ckpt = &ckpt_root.0;
    {
        let mut engine = Engine::new(build());
        engine.run_round();
        engine.run_round();
        let traces = &engine.trace().rounds;
        checkpoint::save_checkpoint(ckpt, engine.protocol(), engine.ledger(), traces, fingerprint)
            .expect("checkpoint saves");
        // the interrupted run trains one more round *after* the commit;
        // resume must discard it, not replay on top of it
        engine.run_round();
    }

    let manifest = checkpoint::load_manifest(ckpt).expect("manifest loads");
    manifest.verify_fingerprint(fingerprint).expect("fingerprint matches");
    assert_eq!(manifest.next_round, 2);
    let mut engine = checkpoint::resume(ckpt, manifest, build()).expect("resume succeeds");
    assert_eq!(engine.rounds_completed(), 2, "{pair}: resumed at the wrong round");
    assert_eq!(
        engine.trace().rounds,
        full_trace.rounds[..2],
        "{pair}: the resumed engine does not hold the committed rounds"
    );
    // a graph server's graph is rebuilt from the restored soft edges before
    // any round trains it again
    let resumed = engine.evaluate(&s.train, &s.test, 10);
    assert_eq!(at_commit, resumed, "{pair}: the resumed server scores differently");
    let whole = engine.run();
    let report = engine.evaluate(&s.train, &s.test, 10);

    assert_eq!(full_trace, whole, "{pair}: resumed trace diverged from the uninterrupted run");
    assert_eq!(&whole, engine.trace(), "{pair}: run() returned another trace than the engine's");
    assert_eq!(full_report, report, "{pair}: resumed model diverged from the uninterrupted run");
    assert_eq!(full_ledger, engine.ledger().summary(), "{pair}: resumed ledger diverged");
    let server_json = final_server(&engine, "final-resumed");
    assert!(full_server == server_json, "{pair}: resumed server.json diverged");
}

/// Retention: every commit prunes the `commit-r<N>` directories the new
/// manifest does not point at — a stale one planted by hand included —
/// and leaves the live client store and every other entry alone.
#[test]
fn checkpoint_commits_keep_only_the_manifests_round() {
    let s = split(40);
    let mut c = cfg(2);
    c.rounds = 4;
    let hyper = ModelHyper::small();
    let fingerprint = config_fingerprint(
        &c,
        ModelKind::Mf,
        ModelKind::NeuMf,
        &hyper,
        s.train.num_users(),
        s.train.num_items(),
    );
    let root = StoreRoot::new("retain");
    let dir = root.0.clone();
    let protocol = CohortFedRec::try_new(
        CohortData::Mem(s.train.clone()),
        ModelKind::Mf,
        ModelKind::NeuMf,
        &hyper,
        c,
        CohortOptions {
            cohort: 0,
            store: StoreKind::Disk(dir.join("clients")),
            server_scope: ServerScope::FullFleet,
        },
    )
    .expect("valid config");
    let mut engine = Engine::new(protocol);
    let commit = |engine: &mut Engine<CohortFedRec>| {
        engine.run_round();
        let traces = &engine.trace().rounds;
        checkpoint::save_checkpoint(&dir, engine.protocol(), engine.ledger(), traces, fingerprint)
            .expect("checkpoint saves");
    };
    let entries = || {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .expect("checkpoint dir lists")
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort_unstable();
        names
    };

    for _ in 0..3 {
        commit(&mut engine);
    }
    assert_eq!(entries(), ["clients", "commit-r3", "manifest.json"]);

    // a stale commit the next save must remove, and entries it must not
    std::fs::create_dir_all(dir.join("commit-r1")).expect("plant a stale commit");
    std::fs::write(dir.join("commit-r1").join("0.json"), "{}").expect("plant an envelope");
    std::fs::create_dir_all(dir.join("commit-rlatest")).expect("plant a look-alike");
    std::fs::write(dir.join("notes.txt"), "operator notes").expect("plant a file");
    commit(&mut engine);
    assert_eq!(entries(), ["clients", "commit-r4", "commit-rlatest", "manifest.json", "notes.txt"]);
    assert_eq!(checkpoint::load_manifest(&dir).expect("manifest loads").next_round, 4);
}

/// Resume robustness: a missing manifest is an `Io` error, a truncated
/// or garbage manifest is `Corrupt`, a foreign fingerprint is
/// `Mismatch` — all plain `Err`s a CLI can turn into exit 1.
#[test]
fn checkpoint_loading_rejects_damage_without_panicking() {
    let root = StoreRoot::new("damage");
    let dir = root.0.clone();
    assert!(
        matches!(checkpoint::load_manifest(&dir), Err(CheckpointError::Io { .. })),
        "missing checkpoint dir must be an Io error"
    );

    std::fs::create_dir_all(&dir).expect("mkdir");
    let manifest_file = checkpoint::manifest_path(&dir);
    std::fs::write(&manifest_file, "{not json").expect("write");
    assert!(
        matches!(checkpoint::load_manifest(&dir), Err(CheckpointError::Corrupt(_))),
        "garbage manifest must be Corrupt"
    );

    // a real manifest, truncated mid-file
    let s = split(20);
    let c = cfg(1);
    let hyper = ModelHyper::small();
    let fingerprint = config_fingerprint(
        &c,
        ModelKind::Mf,
        ModelKind::NeuMf,
        &hyper,
        s.train.num_users(),
        s.train.num_items(),
    );
    let protocol = CohortFedRec::try_new(
        CohortData::Mem(s.train.clone()),
        ModelKind::Mf,
        ModelKind::NeuMf,
        &hyper,
        c.clone(),
        CohortOptions {
            cohort: 0,
            store: StoreKind::Disk(dir.join("clients")),
            server_scope: ServerScope::FullFleet,
        },
    )
    .expect("valid config");
    let mut engine = Engine::new(protocol);
    let t0 = engine.run_round();
    checkpoint::save_checkpoint(&dir, engine.protocol(), engine.ledger(), &[t0], fingerprint)
        .expect("checkpoint saves");
    let intact = std::fs::read_to_string(&manifest_file).expect("read manifest");
    std::fs::write(&manifest_file, &intact[..intact.len() / 2]).expect("truncate");
    assert!(
        matches!(checkpoint::load_manifest(&dir), Err(CheckpointError::Corrupt(_))),
        "truncated manifest must be Corrupt"
    );

    // restore the manifest; a different config fingerprint must refuse
    std::fs::write(&manifest_file, &intact).expect("restore manifest");
    let manifest = checkpoint::load_manifest(&dir).expect("intact manifest loads");
    assert!(
        matches!(manifest.verify_fingerprint(fingerprint ^ 1), Err(CheckpointError::Mismatch(_))),
        "foreign fingerprint must be Mismatch"
    );
    manifest.verify_fingerprint(fingerprint).expect("own fingerprint verifies");
}
