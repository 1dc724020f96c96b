//! `scale100k-cohort-disk`: the million-user runtime at 100 000 users.
//!
//! `ScaleConfig::new("scale-100k-bench", 100_000)` streamed to an on-disk
//! arena; `CohortFedRec` with `StoreKind::Disk`, cohort 1 024,
//! `ServerScope::FullFleet`, MF/MF, eviction on (`evict_interval = 1`,
//! `evict_budget = 256`); a fixed hot cohort of [`HOT`] trainable users
//! (every ⌊n/HOT⌋-th) handed to `Engine::run_round_external` every round.
//! Over 90 % of a round is envelope encode/parse and file I/O, the same
//! layer used both ways in one round (restore beside save and the
//! dispersal rewrite). Eviction is on because without it envelopes grow
//! with every participation and no steady state exists; with it rounds
//! plateau after a few participations and the store stops growing.
//!
//! The traced pass cannot reach the engine's private store, so it shadows
//! it with public calls — arena row read → `PtfClient::new` → file read →
//! `import_model_state` → `client_round` → `export_model_state` →
//! tmp+rename write — and reports what the real engine round spends
//! beyond that shadow (the JSON-in-JSON envelope wrap, the dispersal
//! rewrite) as `core.cohort_other_s`.

use crate::choreo::{self, Layers};
use crate::layers;
use crate::report::{Checks, Outcome};
use crate::spans::{Tracer, ROUND};
use crate::stats::{self, time};
use crate::tmp::TmpDir;
use crate::workload::{
    attempted, hyper, protocol_cfg, run_window, Plan, Run, Workload, TOP_K, TRACED_ROUNDS,
    TRACED_SKIP,
};
use ptf_comm::CommLedger;
use ptf_core::{
    checkpoint, config_fingerprint, rounds, CohortData, CohortFedRec, CohortOptions, PtfClient,
    PtfConfig, ServerScope, StoreKind,
};
use ptf_data::{CsrArena, Dataset, ScaleConfig};
use ptf_federated::{
    derive_seed, ClientData, Engine, RngStream, RoundCtx, RoundObserver, RoundScratch, RunTrace,
};
use ptf_models::{evaluate_model_with_threads, ModelKind, Recommender};
use ptf_privacy::ScoredItem;
use ptf_tensor::alloc;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const USERS: usize = 100_000;
/// Clients that train every round.
const HOT: usize = 64;
const COHORT: usize = 1_024;
const KIND: ModelKind = ModelKind::Mf;

pub struct Cohort {
    seed: u64,
    out_dir: PathBuf,
    tmp: TmpDir,
    /// Numbers the per-set-up subdirectories of `tmp`.
    next_dir: Cell<u32>,
}

/// A federation ready for its first round.
struct Ready {
    engine: Engine<CohortFedRec>,
    hot: Vec<u32>,
    arena_path: PathBuf,
    store: PathBuf,
}

fn scale_cfg() -> ScaleConfig {
    ScaleConfig::new("scale-100k-bench", USERS)
}

fn cohort_cfg(seed: u64, rounds: u32) -> PtfConfig {
    let mut cfg = protocol_cfg(seed, rounds);
    cfg.storage.evict_interval = 1;
    cfg.storage.evict_budget = 256;
    cfg
}

/// Every ⌊n/HOT⌋-th trainable user, ascending.
fn hot_users(trainable: &[u32]) -> Vec<u32> {
    let step = trainable.len() / HOT;
    (0..HOT).map(|i| trainable[i * step]).collect()
}

/// `(envelope files, their total bytes)` under a sharded store root.
fn store_size(root: &Path) -> (usize, u64) {
    let mut files = 0;
    let mut bytes = 0;
    for shard in std::fs::read_dir(root).into_iter().flatten().flatten() {
        for file in std::fs::read_dir(shard.path()).into_iter().flatten().flatten() {
            if file.path().extension().is_some_and(|e| e == "json") {
                files += 1;
                bytes += file.metadata().map_or(0, |m| m.len());
            }
        }
    }
    (files, bytes)
}

impl Cohort {
    pub fn new(seed: u64, out_dir: PathBuf) -> Self {
        let tmp = TmpDir::new(&out_dir, "cohort");
        Self { seed, out_dir, tmp, next_dir: Cell::new(0) }
    }

    fn fresh_dir(&self) -> PathBuf {
        let k = self.next_dir.get();
        self.next_dir.set(k + 1);
        let dir = self.tmp.path().join(format!("setup-{k}"));
        std::fs::create_dir_all(&dir).expect("scratch subdirectory");
        dir
    }

    fn write_arena(&self, dir: &Path) -> PathBuf {
        let path = dir.join("data.arena");
        scale_cfg().write_arena(self.seed, &path).expect("arena streams to disk");
        path
    }

    fn build(&self, arena_path: PathBuf, dir: &Path, rounds: u32) -> Ready {
        let arena = CsrArena::open(&arena_path).expect("fresh arena opens");
        let store = dir.join("store");
        let protocol = CohortFedRec::try_new(
            CohortData::Arena(arena),
            KIND,
            KIND,
            &hyper(),
            cohort_cfg(self.seed, rounds),
            CohortOptions {
                cohort: COHORT,
                store: StoreKind::Disk(store.clone()),
                server_scope: ServerScope::FullFleet,
            },
        )
        .expect("the benchmark's config is valid");
        let hot = hot_users(protocol.trainable());
        Ready { engine: Engine::new(protocol), hot, arena_path, store }
    }

    fn set_up(&self, dir: &Path, rounds: u32) -> Ready {
        self.build(self.write_arena(dir), dir, rounds)
    }
}

/// In-sample ranking quality over the hot users: their own rows as the
/// relevant sets, nothing excluded.
fn in_sample_eval(model: &dyn Recommender, arena: &CsrArena, hot: &[u32]) -> f64 {
    let (users, items) = (arena.num_users(), arena.num_items());
    let mut relevant = Dataset::builder("hot-rows", items, users, 0);
    let mut excluded = Dataset::builder("nothing", items, users, 0);
    let mut row = Vec::new();
    let mut hot = hot.iter().copied().peekable();
    for u in 0..users as u32 {
        row.clear();
        if hot.peek() == Some(&u) {
            hot.next();
            arena.read_user_into(u, &mut row).expect("arena row read");
        }
        relevant.push_user(&row);
        excluded.push_user(&[]);
    }
    evaluate_model_with_threads(model, &excluded.finish(), &relevant.finish(), TOP_K, 1)
        .metrics
        .ndcg
}

fn timed_rounds(engine: &mut Engine<CohortFedRec>, hot: &[u32], n: u32) -> (Vec<f64>, RunTrace) {
    let mut secs = Vec::with_capacity(n as usize);
    let mut trace = RunTrace::default();
    for _ in 0..n {
        let (round, s) = time(|| engine.run_round_external(hot));
        secs.push(s);
        trace.push(round.expect("the cohort runtime honors external participant sets"));
    }
    (secs, trace)
}

impl Workload for Cohort {
    fn name(&self) -> &'static str {
        "scale100k-cohort-disk"
    }

    fn plan(&self) -> Plan {
        // round 0 is cold (no envelopes yet); rounds plateau by round 4
        Plan::new(6, 20)
    }

    /// 64 of 100 000 users teach the hidden model for a few dozen rounds:
    /// its ranking stays at chance level, so there is no floor to hold.
    fn ndcg20_floor(&self) -> f64 {
        0.0
    }

    fn sample_set_up(&self) -> f64 {
        let dir = self.fresh_dir();
        let (ready, secs) = time(|| self.set_up(&dir, 1));
        drop(ready);
        let _ = std::fs::remove_dir_all(&dir);
        secs
    }

    fn run(&self, seconds: u32) -> Run {
        let dir = self.fresh_dir();
        let plan = self.plan();
        let Ready { mut engine, hot, arena_path, store } = self.set_up(&dir, plan.total());
        let arena = CsrArena::open(&arena_path).expect("arena reopens");
        let run = run_window(
            &mut engine,
            plan,
            seconds,
            |engine| {
                engine
                    .run_round_external(&hot)
                    .expect("the cohort runtime honors external participant sets")
            },
            |engine| {
                let ndcg20 = in_sample_eval(engine.protocol().server().model(), &arena, &hot);
                (ndcg20, store_size(&store))
            },
        );
        let (ndcg20, (files, bytes)) = run.outputs;

        let mut checks = Checks::default();
        checks.check(format!("store holds exactly {HOT} envelopes"), files == HOT);
        checks.check(
            format!("all {HOT} hot clients trained every round"),
            run.trace.rounds.iter().all(|r| r.participants == HOT),
        );
        let notes =
            vec![format!("store: {:.1} KB per client at rest", bytes as f64 / 1024.0 / HOT as f64)];
        let run = Run {
            timed_secs: run.timed_secs,
            trace: run.trace,
            ndcg20,
            client_kb_per_round: run.client_kb_per_round,
            peak_bytes: run.peak_bytes,
            // an envelope missing from the store is a dispersal never delivered
            dropped: (HOT - files.min(HOT)) as u64,
            checks,
            notes,
        };
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
        run
    }

    fn trace(&self) -> Outcome {
        let mut t = Tracer::new();
        let mut metrics = layers::probe_all(KIND, 943);
        let mut checks = Checks::default();
        let dir = self.fresh_dir();
        let cfg = cohort_cfg(self.seed, TRACED_ROUNDS);

        // set-up under spans
        let arena_path = t.leaf("data.arena_write", USERS as u64, || self.write_arena(&dir));
        let Ready { mut engine, hot, store, .. } =
            t.leaf("core.build_server", 1, || self.build(arena_path.clone(), &dir, TRACED_ROUNDS));
        let arena = CsrArena::open(&arena_path).expect("arena reopens");

        // the engine's own rounds, untraced, as the reference, alternating
        // with the same rounds through the shadow store under spans, so both
        // sides of every comparison see the same host conditions
        let mut shadow = Shadow::new(&dir, &arena, cfg.clone());
        let (mut engine_secs, mut engine_trace) = (Vec::new(), RunTrace::default());
        let mut traced_trace = RunTrace::default();
        let mut round_allocs = 0;
        for round in 0..TRACED_ROUNDS {
            let allocs_before = alloc::total_allocs();
            let (secs, trace) = timed_rounds(&mut engine, &hot, 1);
            round_allocs = alloc::total_allocs() - allocs_before;
            engine_secs.extend(secs);
            engine_trace.rounds.extend(trace.rounds);
            traced_trace.push(shadow.round(round, &hot, &mut t));
        }
        metrics.insert("tensor.allocs_per_round", round_allocs as f64);
        metrics.insert("core.cohort_cold_round_s", engine_secs[0]);

        let (files, bytes) = store_size(&store);
        checks.check(format!("store holds exactly {HOT} envelopes"), files == HOT);
        metrics.insert("core.store_kb_per_client", bytes as f64 / 1024.0 / files.max(1) as f64);

        let fingerprint =
            config_fingerprint(&cfg, KIND, KIND, &hyper(), arena.num_users(), arena.num_items());
        let (saved, commit_s) = time(|| {
            checkpoint::save_checkpoint(
                &dir.join("checkpoint"),
                engine.protocol(),
                engine.ledger(),
                &engine_trace.rounds,
                fingerprint,
            )
        });
        checks.check("checkpoint commits", saved.is_ok());
        metrics.insert("core.checkpoint_commit_s", commit_s);

        let mut eval_secs = Vec::new();
        let mut evaluate = |model: &dyn Recommender| {
            let (ndcg, s) = time(|| in_sample_eval(model, &arena, &hot));
            eval_secs.push(s);
            ndcg
        };
        let engine_ndcg = evaluate(engine.protocol().server().model());
        drop(engine);

        let traced_ndcg = evaluate(shadow.server.model());
        choreo::check_parity(
            &mut checks,
            "shadow",
            (&traced_trace, traced_ndcg),
            (&engine_trace, engine_ndcg),
        );

        let layers = Layers::of(&t);
        choreo::common_layer_metrics(&layers, &t, &engine_secs, &mut metrics);
        choreo::comm_metrics(&shadow.ledger.summary(), &mut metrics);
        let uncovered = layers.check_coverage(&mut checks);
        // the shadow does less than the engine (that difference is
        // `core.cohort_other_s`), so tracing cost is the uncovered share
        metrics.insert("federated.trace_overhead_pct", uncovered * 100.0);
        let per_call = |name: &str| layers.secs(name) / layers.calls(name).max(1.0);
        metrics.insert("data.arena_write_s", choreo::root_secs(&t, "data.arena_write"));
        metrics.insert("data.arena_row_read_us", per_call("data.arena_row_read") * 1e6);
        metrics.insert("core.build_server_s", choreo::root_secs(&t, "core.build_server"));
        metrics.insert("core.build_clients_s", layers.secs("core.build_client"));
        metrics.insert("core.store_read_s", layers.secs("core.store_read"));
        metrics.insert("core.store_write_s", layers.secs("core.store_write"));
        metrics.insert("models.export_state_ms", per_call("models.export_state") * 1e3);
        metrics.insert("models.import_state_ms", per_call("models.import_state") * 1e3);
        metrics.insert(
            "models.state_kb",
            layers.count("models.export_state")
                / layers.calls("models.export_state").max(1.0)
                / 1024.0,
        );
        // best-of-N on both sides, like the gated timings
        let engine_best = stats::min(&engine_secs[TRACED_SKIP as usize..]);
        metrics.insert("core.cohort_other_s", engine_best - stats::min(&layers.round_secs()));
        metrics.insert("core.item_rows", shadow.item_rows as f64);
        metrics.insert("metrics.ndcg20", engine_ndcg);
        metrics.insert("metrics.eval_s", stats::min(&eval_secs));

        let attempted = attempted(&traced_trace);
        metrics.insert("federated.failed_share", shadow.diverged as f64 / attempted as f64);

        let notes =
            choreo::write_spans(&t, &layers, &self.out_dir, self.name(), self.seed, &mut checks);
        let failed = shadow.diverged;
        drop(shadow);
        let _ = std::fs::remove_dir_all(&dir);
        Outcome { metrics, attempted, failed, checks, notes }
    }
}

/// What a stored client carries across rounds besides its model state.
#[derive(Default)]
struct AtRest {
    local_rounds: u32,
    touched: Vec<(u32, u32)>,
    dispersed: Vec<ScoredItem>,
}

/// The cohort round rebuilt from public calls (see module docs): model
/// states live in files under `root`, the rest of a client's envelope in
/// memory.
struct Shadow<'a> {
    root: PathBuf,
    arena: &'a CsrArena,
    cfg: PtfConfig,
    server: ptf_core::PtfServer,
    at_rest: BTreeMap<u32, AtRest>,
    scratch: RoundScratch,
    ledger: CommLedger,
    diverged: u64,
    /// Item rows the last round's clients held when they were stored.
    item_rows: usize,
}

impl<'a> Shadow<'a> {
    fn new(dir: &Path, arena: &'a CsrArena, cfg: PtfConfig) -> Self {
        let root = dir.join("shadow-store");
        std::fs::create_dir_all(&root).expect("shadow store directory");
        let server =
            rounds::build_server(arena.num_users(), arena.num_items(), KIND, &hyper(), &cfg);
        Self {
            root,
            arena,
            cfg,
            server,
            at_rest: BTreeMap::new(),
            scratch: RoundScratch::default(),
            ledger: CommLedger::new(),
            diverged: 0,
            item_rows: 0,
        }
    }

    /// One round in the order `CohortFedRec::round_with` runs it.
    fn round(
        &mut self,
        round: u32,
        participants: &[u32],
        t: &mut Tracer,
    ) -> ptf_federated::RoundTrace {
        let root = t.open(ROUND);
        let mut ctx = RoundCtx::new(round, vec![&mut self.ledger as &mut dyn RoundObserver]);
        ctx.begin(participants);

        let phase = t.open("core.client_phase");
        let mut uploads = Vec::with_capacity(participants.len());
        let mut losses = Vec::with_capacity(participants.len());
        let mut row = Vec::new();
        self.item_rows = 0;
        for &id in participants {
            let file = self.root.join(format!("{id}.state"));
            t.leaf("data.arena_row_read", 1, || {
                self.arena.read_user_into(id, &mut row).expect("arena row read")
            });
            let mut client = t.leaf("core.build_client", 1, || {
                let seed = derive_seed(self.cfg.seed, 0, RngStream::ClientInit(id).id());
                let data = ClientData { id, positives: row.clone() };
                PtfClient::new(data, KIND, &hyper(), self.arena.num_items(), seed, &self.cfg)
            });
            if let Some(rest) = self.at_rest.get(&id) {
                let span = t.open("core.store_read");
                let state = std::fs::read_to_string(&file).expect("shadow state file reads");
                t.close(span, state.len() as u64);
                t.leaf("models.import_state", state.len() as u64, || {
                    client.import_model_state(&state).expect("stored state imports")
                });
                client.restore_eviction_state(rest.local_rounds, rest.touched.clone());
                client.receive_disperse(rest.dispersed.clone());
            }
            let span = t.open("core.client_round");
            let (upload, loss) =
                rounds::client_round(&mut client, &self.cfg, round, &mut self.scratch);
            t.close(span, upload.len() as u64);
            self.diverged += u64::from(!loss.is_finite());

            let span = t.open("models.export_state");
            let state = client.export_model_state().expect("MF exports its full state");
            t.close(span, state.len() as u64);
            t.leaf("core.store_write", state.len() as u64, || {
                let tmp = file.with_extension("state.tmp");
                std::fs::write(&tmp, &state).expect("shadow state file writes");
                std::fs::rename(&tmp, &file).expect("shadow state file renames");
            });
            let (local_rounds, touched) = client.eviction_state();
            let rest = self.at_rest.entry(id).or_default();
            rest.local_rounds = local_rounds;
            rest.touched = touched.to_vec();
            self.item_rows += client.item_rows();
            uploads.push(upload);
            losses.push(loss);
        }
        t.close(phase, participants.len() as u64);

        let (server_loss, disperses) =
            choreo::server_phase(&mut self.server, &self.cfg, round, &uploads, &mut ctx, t);
        t.leaf("core.receive", disperses.len() as u64, || {
            for (client, items) in disperses {
                self.at_rest.get_mut(&client).expect("participant was stored").dispersed = items;
            }
        });
        let trace = rounds::round_trace(round, &losses, server_loss, &ctx);
        t.close(root, round as u64);
        trace
    }
}
