//! `ptf` — the command-line entry point of the PTF-FedRec reproduction.
//!
//! See `ptf help` (or [`ptf_fedrec::cli::usage`]) for the commands. Every
//! protocol — PTF-FedRec and all baselines — runs through the same
//! `FederatedProtocol`-typed engine path: one `match` builds a
//! `Box<dyn FederatedProtocol>`, and every `ptf train` ends in
//! [`finish_train`]. Everything printed to stdout goes through [`emit`].

use ptf_fedrec::baselines::{
    Centralized, CentralizedConfig, Fcf, FcfConfig, FedMf, FedMfConfig, MetaMf, MetaMfConfig,
};
use ptf_fedrec::cli::{
    parse, usage, ClientArgs, Command, DataChoice, FleetArgs, PrivacyArgs, ProtocolChoice,
    ServeArgs, TrainArgs,
};
use ptf_fedrec::comm::{format_bytes, CommLedger, LedgerSummary};
use ptf_fedrec::core::{
    checkpoint, config_fingerprint, CohortData, CohortFedRec, CohortOptions, DefenseKind,
    PtfConfig, PtfFedRec, ServerScope, StoragePolicy, StoreKind,
};
use ptf_fedrec::data::{
    CsrArena, Dataset, DatasetPreset, DatasetStats, ScaleConfig, TrainTestSplit,
};
use ptf_fedrec::federated::{
    Engine, FederatedProtocol, Participation, RoundObserver, RoundTrace, RunTrace, TraceRecorder,
};
use ptf_fedrec::metrics::RankingReport;
use ptf_fedrec::models::{evaluate_model, ModelHyper, ModelKind};
use ptf_fedrec::net::{
    run_server, run_shard, tcp, NetServerOptions, ShardOptions, ShardSummary, Straggle,
    StragglerDrop,
};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&args).map(run) {
        Ok(Ok(())) | Ok(Err(Failure::StdoutClosed)) => 0,
        Ok(Err(Failure::Message(e))) => {
            eprintln!("error: {e}");
            1
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Why a run stopped early.
enum Failure {
    /// Exit 1 with this message.
    Message(String),
    /// The reader of stdout went away (`ptf … | head`): nobody is left to
    /// tell, so the run unwinds — temp dirs are still removed — and ends
    /// quietly.
    StdoutClosed,
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Self::Message(message)
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Self {
        Self::Message(message.to_string())
    }
}

/// The one place this binary writes to stdout.
fn emit(text: &str) -> Result<(), Failure> {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    match writeln!(stdout, "{text}").and_then(|()| stdout.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Err(Failure::StdoutClosed),
        Err(e) => Err(format!("cannot write to stdout: {e}").into()),
    }
}

fn print_json<T: Serialize>(value: &T) -> Result<(), Failure> {
    emit(&serde_json::to_string_pretty(value).map_err(|e| e.to_string())?)
}

/// The Table IV line of a text report.
fn print_traffic(summary: &LedgerSummary) -> Result<(), Failure> {
    emit(&format!(
        "communication: {} per client-round (total {})",
        format_bytes(summary.avg_client_bytes_per_round),
        format_bytes(summary.total_bytes as f64)
    ))
}

/// The config a networked run uses. `ptf serve` and every `ptf client`
/// build this independently from the same flags — the handshake
/// fingerprint rejects the connection if they disagree.
fn net_config(f: &FleetArgs) -> PtfConfig {
    let mut cfg = PtfConfig { seed: f.seed, ..PtfConfig::at(f.scale) };
    cfg.rounds = f.rounds.unwrap_or(cfg.rounds);
    cfg.participation.fraction = f.participation;
    cfg
}

/// The PTF-FedRec config of every `ptf train` path.
fn train_config(a: &TrainArgs) -> PtfConfig {
    let mut cfg = PtfConfig { seed: a.seed, ..PtfConfig::at(a.scale) };
    cfg.rounds = a.rounds.unwrap_or(cfg.rounds);
    cfg.threads = a.threads;
    cfg.storage = StoragePolicy { evict_interval: a.evict_interval, evict_budget: a.evict_budget };
    cfg
}

/// One `match`, one `Box<dyn FederatedProtocol>`: everything downstream
/// (run, evaluate, report, JSON) is protocol-agnostic.
fn build_protocol(a: &TrainArgs, train: &Dataset) -> Result<Box<dyn FederatedProtocol>, String> {
    let hyper = ModelHyper::at(a.scale);
    Ok(match a.protocol {
        ProtocolChoice::Ptf => Box::new(
            PtfFedRec::try_new(train, a.client, a.server, &hyper, train_config(a))
                .map_err(|e| e.to_string())?,
        ),
        ProtocolChoice::Fcf => {
            let mut cfg = FcfConfig::at(a.scale);
            cfg.seed = a.seed;
            cfg.threads = a.threads;
            cfg.rounds = a.rounds.unwrap_or(cfg.rounds);
            Box::new(Fcf::new(train, cfg))
        }
        ProtocolChoice::FedMf => {
            let mut cfg = FedMfConfig::at(a.scale);
            cfg.base.seed = a.seed;
            cfg.base.threads = a.threads;
            cfg.base.rounds = a.rounds.unwrap_or(cfg.base.rounds);
            Box::new(FedMf::new(train, cfg))
        }
        ProtocolChoice::MetaMf => {
            let mut cfg = MetaMfConfig::at(a.scale);
            cfg.seed = a.seed;
            cfg.threads = a.threads;
            cfg.rounds = a.rounds.unwrap_or(cfg.rounds);
            Box::new(MetaMf::new(train, cfg))
        }
        ProtocolChoice::Centralized => {
            let mut cfg = CentralizedConfig::at(a.scale);
            cfg.seed = a.seed;
            cfg.threads = a.threads;
            cfg.epochs = a.rounds.unwrap_or(cfg.epochs);
            Box::new(Centralized::new(a.server, train, &hyper, cfg))
        }
    })
}

fn log_round(t: &RoundTrace) {
    eprintln!(
        "  round {:>3}: client loss {:.4}, server loss {:.4}",
        t.round, t.mean_client_loss, t.server_loss
    );
}

/// The machine-readable shape of `ptf train --json`.
#[derive(Serialize)]
struct TrainJson {
    protocol: String,
    dataset: String,
    seed: u64,
    trace: RunTrace,
    report: RankingReport,
    communication: LedgerSummary,
}

/// The machine-readable shape of `ptf train --json` on a `scale-*`
/// dataset: streamed data has no held-out split, so there is no ranking
/// report — the trace and the Table IV communication numbers are the run.
#[derive(Serialize)]
struct ScaleTrainJson {
    protocol: String,
    dataset: String,
    users: usize,
    seed: u64,
    trace: RunTrace,
    communication: LedgerSummary,
}

/// Why `--save` is refused for a model without full-state support.
const UNSAVABLE: &str = "this model does not support checkpointing";

/// The tail of every `ptf train`: evaluate when there is a held-out split
/// (a streamed fleet of `users` has none), report as JSON or text, and
/// honour `--save`.
fn finish_train<P: FederatedProtocol>(
    a: &TrainArgs,
    engine: &Engine<P>,
    trace: RunTrace,
    held_out: Option<&TrainTestSplit>,
    users: usize,
) -> Result<(), Failure> {
    let protocol = engine.protocol().name().to_string();
    let dataset = a.dataset.name().to_string();
    let communication = engine.ledger().summary();
    let report = held_out.map(|split| engine.evaluate(&split.train, &split.test, a.k));
    if a.json {
        let seed = a.seed;
        match report {
            Some(report) => {
                print_json(&TrainJson { protocol, dataset, seed, trace, report, communication })?
            }
            None => print_json(&ScaleTrainJson {
                protocol,
                dataset,
                users,
                seed,
                trace,
                communication,
            })?,
        }
    } else {
        match report {
            Some(report) => emit(&report.to_string())?,
            None => {
                emit(&format!("scale run: {} rounds over {users} users", communication.rounds))?
            }
        }
        print_traffic(&communication)?;
    }
    if let Some(path) = &a.save {
        let state = engine.protocol().recommender().export_full_state().ok_or(UNSAVABLE)?;
        std::fs::write(path, state).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("trained model checkpointed to {path}");
    }
    Ok(())
}

/// Builds (and on `--resume` rewinds) a cohort protocol, then drives it
/// to its round budget — or to `--halt-after` — committing a durable
/// checkpoint every `--checkpoint-every` completed rounds plus one at the
/// stopping point whenever `--checkpoint` is set. Returns the engine
/// (for evaluation/export) and the trace, which after a resume is the
/// *whole* run's: the manifest's committed rounds are replayed into the
/// recorder before the first live round.
fn run_cohort_engine(
    a: &TrainArgs,
    data: CohortData,
    cfg: PtfConfig,
    opts: CohortOptions,
) -> Result<(Engine<CohortFedRec>, RunTrace), String> {
    let hyper = ModelHyper::at(a.scale);
    let ckpt = a.checkpoint.as_deref().map(Path::new);
    let fingerprint =
        config_fingerprint(&cfg, a.client, a.server, &hyper, data.num_users(), data.num_items());
    let budget = cfg.rounds;
    let mut protocol = CohortFedRec::try_new(data, a.client, a.server, &hyper, cfg, opts)
        .map_err(|e| e.to_string())?;
    let recorder = TraceRecorder::new();
    let mut engine = if a.resume {
        let dir = ckpt.ok_or("--resume requires --checkpoint DIR")?;
        let manifest = checkpoint::load_manifest(dir).map_err(|e| e.to_string())?;
        manifest.verify_fingerprint(fingerprint).map_err(|e| e.to_string())?;
        checkpoint::resume_protocol(dir, &manifest, &mut protocol).map_err(|e| e.to_string())?;
        let ledger = CommLedger::restore(&manifest.ledger);
        let mut replay = recorder.clone();
        for t in &manifest.traces {
            replay.on_round_end(t);
        }
        eprintln!("resumed at round {} from {}", manifest.next_round, dir.display());
        Engine::resume(protocol, ledger, manifest.next_round)
    } else {
        Engine::new(protocol)
    }
    .with_observer(recorder.clone());
    while engine.rounds_completed() < budget {
        if a.halt_after.is_some_and(|h| engine.rounds_completed() >= h) {
            break;
        }
        log_round(&engine.run_round());
        let done = engine.rounds_completed();
        let at_end = done >= budget;
        let halting = a.halt_after.is_some_and(|h| done >= h);
        if let Some(dir) = ckpt {
            let due = a.checkpoint_every > 0 && done % a.checkpoint_every == 0;
            if at_end || halting || due {
                checkpoint::save_checkpoint(
                    dir,
                    engine.protocol(),
                    engine.ledger(),
                    &recorder.trace().rounds,
                    fingerprint,
                )
                .map_err(|e| e.to_string())?;
                eprintln!("checkpoint committed at round {done} to {}", dir.display());
            }
        }
        if halting && !at_end {
            eprintln!("halting after round {done} (--halt-after)");
            break;
        }
    }
    let trace = recorder.trace();
    Ok((engine, trace))
}

/// `ptf train` on one of the in-RAM Table II presets: through the classic
/// engine path (any protocol, whole fleet resident), or — under `--cohort`
/// and/or `--checkpoint` — through the cohort engine, where
/// `ServerScope::FullFleet` keeps the run bit-identical to the classic one.
fn run_train_preset(preset: DatasetPreset, a: &TrainArgs, cohort: bool) -> Result<(), Failure> {
    let split = preset.split(a.scale, a.seed);
    let (users, items) = (split.train.num_users(), split.train.num_items());
    let sizes = format!("{} ({users} clients, {items} items)", preset.name());
    if cohort {
        let (root, _cleanup) = work_dir(a);
        let opts = CohortOptions {
            cohort: a.cohort.unwrap_or(0),
            store: StoreKind::Disk(root.join("clients")),
            server_scope: ServerScope::FullFleet,
        };
        eprintln!("training PTF-FedRec/cohort on {sizes}");
        let data = CohortData::Mem(split.train.clone());
        let (engine, trace) = run_cohort_engine(a, data, train_config(a), opts)?;
        finish_train(a, &engine, trace, Some(&split), users)
    } else {
        let protocol = build_protocol(a, &split.train)?;
        // a model without full-state support cannot honour --save: say so
        // before the first round, not after the last
        if a.save.is_some() && protocol.recommender().export_full_state().is_none() {
            return Err(UNSAVABLE.into());
        }
        eprintln!("training {} on {sizes}", protocol.name());
        let mut engine = Engine::new(protocol);
        let trace = engine.run();
        trace.rounds.iter().for_each(log_round);
        finish_train(a, &engine, trace, Some(&split), users)
    }
}

/// `ptf train` on a streamed `scale-*` dataset: the fleet is generated
/// into an on-disk CSR arena (never materialized), clients live in
/// on-disk envelopes, the server is scoped to the ever-participating
/// users, and ranking evaluation is skipped (there is no held-out
/// split at this scale).
fn run_train_scale(name: &'static str, a: &TrainArgs) -> Result<(), Failure> {
    let mut sc = ScaleConfig::preset(name).ok_or_else(|| format!("unknown scale preset {name}"))?;
    if let Some(u) = a.users {
        if u == 0 {
            return Err("--users must be > 0".into());
        }
        sc.num_users = u;
    }
    if a.participants == Some(0) {
        return Err("--participants must be > 0".into());
    }
    let mut cfg = train_config(a);
    // exact per-round participant count: fraction 0 defers to min_clients
    let p = a.participants.unwrap_or(64).min(sc.num_users);
    cfg.participation = Participation { fraction: 0.0, min_clients: p };
    // a bad config must fail before the arena is streamed to disk
    cfg.validate().map_err(|e| e.to_string())?;
    // the arena is part of what a resume needs, so it lives beside the store
    let (root, _cleanup) = work_dir(a);
    std::fs::create_dir_all(&root).map_err(|e| format!("cannot create {}: {e}", root.display()))?;
    let arena_path = root.join("data.arena");
    // The sidecar pins what the arena was generated from; matching file
    // dimensions alone would silently accept an arena streamed under a
    // different seed.
    let meta_path = root.join("data.arena.meta");
    let meta = format!("{} seed={} users={} items={}", sc.name, a.seed, sc.num_users, sc.num_items);
    if !arena_path.exists() {
        eprintln!("streaming {} users into {}", sc.num_users, arena_path.display());
        sc.write_arena(a.seed, &arena_path)
            .map_err(|e| format!("cannot write {}: {e}", arena_path.display()))?;
        std::fs::write(&meta_path, &meta)
            .map_err(|e| format!("cannot write {}: {e}", meta_path.display()))?;
    } else {
        let found = std::fs::read_to_string(&meta_path)
            .map_err(|e| format!("cannot read {}: {e}", meta_path.display()))?;
        if found != meta {
            return Err(format!(
                "{} was generated as \"{found}\" but this run wants \"{meta}\" — \
                 delete it or point --checkpoint at a fresh directory",
                arena_path.display(),
            )
            .into());
        }
    }
    let arena = CsrArena::open(&arena_path)
        .map_err(|e| format!("cannot open {}: {e}", arena_path.display()))?;
    if arena.num_users() != sc.num_users || arena.num_items() != sc.num_items {
        return Err(format!(
            "{} holds {} users x {} items but this run wants {} x {} — \
             delete it or point --checkpoint at a fresh directory",
            arena_path.display(),
            arena.num_users(),
            arena.num_items(),
            sc.num_users,
            sc.num_items,
        )
        .into());
    }
    let opts = CohortOptions {
        cohort: a.cohort.unwrap_or(1024),
        store: StoreKind::Disk(root.join("clients")),
        server_scope: ServerScope::ActiveParticipants,
    };
    eprintln!(
        "training PTF-FedRec/cohort on {} ({} clients, {} items, {} participants/round)",
        name, sc.num_users, sc.num_items, p,
    );
    let (engine, trace) = run_cohort_engine(a, CohortData::Arena(arena), cfg, opts)?;
    finish_train(a, &engine, trace, None, sc.num_users)
}

/// A cohort run's working directory, which holds its client store under
/// `clients/` (and a scale run's arena): the checkpoint dir when the run
/// is durable, else a per-process temp dir, removed on every exit path by
/// the returned guard. Not created here: the store and the arena do that.
fn work_dir(a: &TrainArgs) -> (PathBuf, Option<RemoveOnDrop>) {
    match &a.checkpoint {
        Some(dir) => (PathBuf::from(dir), None),
        None => {
            let tmp =
                std::env::temp_dir().join(format!("ptf-work-{}-{}", std::process::id(), a.seed));
            (tmp.clone(), Some(RemoveOnDrop(tmp)))
        }
    }
}

/// Deletes a directory tree when dropped (errors ignored: there is
/// nothing useful to do about a temp dir that will not go away).
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `ptf train`: the cross-flag rules, then the run path the dataset and
/// the cohort/checkpoint flags select.
fn run_train(a: &TrainArgs) -> Result<(), Failure> {
    let is_scale = matches!(a.dataset, DataChoice::Scale(_));
    let cohort = is_scale || a.cohort.is_some() || a.checkpoint.is_some();
    if a.resume && a.checkpoint.is_none() {
        return Err("--resume requires --checkpoint DIR".into());
    }
    if a.checkpoint_every > 0 && a.checkpoint.is_none() {
        return Err("--checkpoint-every requires --checkpoint DIR".into());
    }
    if (a.users.is_some() || a.participants.is_some()) && !is_scale {
        return Err("--users/--participants apply only to the scale-* datasets".into());
    }
    if a.halt_after.is_some() && !cohort {
        return Err("--halt-after requires --checkpoint, --cohort, or a scale-* dataset".into());
    }
    if cohort && a.protocol != ProtocolChoice::Ptf {
        return Err("cohort scheduling and checkpointing support --protocol ptf only".into());
    }
    if (a.evict_interval > 0 || a.evict_budget > 0) && a.protocol != ProtocolChoice::Ptf {
        return Err("--evict-interval/--evict-budget apply to --protocol ptf only".into());
    }
    if a.evict_budget > 0 && a.evict_interval == 0 {
        return Err("--evict-budget requires --evict-interval".into());
    }
    // a fresh run would overwrite the checkpoint another run committed
    let holds_checkpoint = |dir: &&str| checkpoint::manifest_path(Path::new(dir)).exists();
    if let Some(dir) = a.checkpoint.as_deref().filter(|_| !a.resume).filter(holds_checkpoint) {
        let hint = "add --resume to continue that run, or point --checkpoint at a fresh directory";
        return Err(format!("{dir} already holds a checkpoint: {hint}").into());
    }
    match a.dataset {
        DataChoice::Scale(name) => run_train_scale(name, a),
        DataChoice::Preset(preset) => run_train_preset(preset, a, cohort),
    }
}

/// The machine-readable shape of `ptf privacy --json`.
#[derive(Serialize)]
struct PrivacyJson {
    defense: String,
    attack_f1: f64,
    dataset: String,
    seed: u64,
    trace: RunTrace,
    report: RankingReport,
    communication: LedgerSummary,
}

fn run_privacy(a: &PrivacyArgs) -> Result<(), Failure> {
    let defense = match (a.defense, a.epsilon) {
        (DefenseKind::Ldp { .. }, Some(epsilon)) => DefenseKind::Ldp { epsilon },
        (defense, None) => defense,
        (_, Some(_)) => return Err("--epsilon applies only to --defense ldp".into()),
    };
    let split = a.dataset.split(a.scale, a.seed);
    let cfg = PtfConfig { seed: a.seed, threads: a.threads, defense, ..PtfConfig::at(a.scale) };
    let hyper = ModelHyper::at(a.scale);
    let mut fed = Engine::new(
        PtfFedRec::try_new(&split.train, ModelKind::NeuMf, ModelKind::Ngcf, &hyper, cfg)
            .map_err(|e| e.to_string())?,
    );
    let trace = fed.run();
    let f1 = fed.protocol().attack_f1();
    let report = fed.evaluate(&split.train, &split.test, 20);
    if a.json {
        print_json(&PrivacyJson {
            defense: defense.name().to_string(),
            attack_f1: f1,
            dataset: a.dataset.name().to_string(),
            seed: a.seed,
            trace,
            report,
            communication: fed.ledger().summary(),
        })
    } else {
        emit(&format!(
            "defense: {}\ntop-guess attack F1: {f1:.4} (lower = better privacy)\n{report}",
            defense.name()
        ))
    }
}

/// The machine-readable shape of `ptf serve --json` — `ptf train`'s
/// fields plus the networked extras.
#[derive(Serialize)]
struct ServeJson {
    dataset: String,
    seed: u64,
    trace: RunTrace,
    report: RankingReport,
    communication: LedgerSummary,
    stragglers: Vec<StragglerDrop>,
    connections: usize,
}

fn run_serve(a: &ServeArgs) -> Result<(), Failure> {
    let f = &a.fleet;
    let split = f.dataset.split(f.scale, f.seed);
    let opts = NetServerOptions {
        cfg: net_config(f),
        client_kind: f.client,
        server_kind: f.server,
        hyper: ModelHyper::at(f.scale),
        round_deadline: Duration::from_millis(a.deadline_ms),
        gather_timeout: Duration::from_millis(a.gather_ms),
        verbose: true,
    };
    let endpoint = tcp::serve(("127.0.0.1", a.port))
        .map_err(|e| format!("cannot bind 127.0.0.1:{}: {e}", a.port))?;
    // the smoke tests (and humans scripting ephemeral ports) parse
    // this line, so it goes out before anything blocks
    eprintln!("listening on {}", endpoint.local_addr);
    eprintln!(
        "serving ptf-fedrec on {} ({} clients, {} items, {} rounds)",
        f.dataset.name(),
        split.train.num_users(),
        split.train.num_items(),
        opts.cfg.rounds,
    );
    let (report, trained) =
        run_server(&split.train, &endpoint.events, &opts).map_err(|e| e.to_string())?;
    let ranking = evaluate_model(trained.model(), &split.train, &split.test, a.k);
    if f.json {
        return print_json(&ServeJson {
            dataset: f.dataset.name().to_string(),
            seed: f.seed,
            trace: report.trace,
            report: ranking,
            communication: report.communication,
            stragglers: report.stragglers,
            connections: report.connections,
        });
    }
    emit(&ranking.to_string())?;
    print_traffic(&report.communication)?;
    emit(&format!(
        "connections: {}, stragglers dropped: {}",
        report.connections,
        report.stragglers.len()
    ))?;
    report
        .stragglers
        .iter()
        .try_for_each(|s| emit(&format!("  round {:>3}: dropped client {}", s.round, s.client)))
}

/// The machine-readable shape of `ptf client --json`.
#[derive(Serialize)]
struct ClientJson {
    dataset: String,
    seed: u64,
    addr: String,
    summary: ShardSummary,
}

fn run_client(a: &ClientArgs) -> Result<(), Failure> {
    let f = &a.fleet;
    let split = f.dataset.split(f.scale, f.seed);
    let fleet = split.train.num_users() as u32;
    // checked before the range is materialized: `--ids 0-4294967295`
    // would otherwise allocate 16 GiB of ids to be told this by the shard
    let (lo, hi) = a.ids.unwrap_or((0, fleet.saturating_sub(1)));
    if hi >= fleet {
        return Err(format!("client id {hi} outside fleet 0..{fleet}").into());
    }
    let opts = ShardOptions {
        cfg: net_config(f),
        client_kind: f.client,
        server_kind: f.server,
        hyper: ModelHyper::at(f.scale),
        ids: (lo..=hi).collect(),
        straggle: a
            .straggle_round
            .map(|round| Straggle { round, delay: Duration::from_millis(a.straggle_ms) }),
    };
    eprintln!("hosting clients {lo}..={hi} of {fleet} on {}", a.addr);
    let mut conn =
        tcp::connect(a.addr.as_str()).map_err(|e| format!("cannot connect to {}: {e}", a.addr))?;
    let summary = run_shard(&split.train, &mut conn, &opts).map_err(|e| e.to_string())?;
    if f.json {
        let (dataset, seed) = (f.dataset.name().to_string(), f.seed);
        return print_json(&ClientJson { dataset, seed, addr: a.addr.clone(), summary });
    }
    emit(&format!(
        "shard done: {} clients, {} uploads, {} dropped, {} rounds, {} up / {} down",
        summary.clients,
        summary.participations,
        summary.dropped,
        summary.rounds_finished,
        format_bytes(summary.bytes_up as f64),
        format_bytes(summary.bytes_down as f64),
    ))
}

fn run(cmd: Command) -> Result<(), Failure> {
    match cmd {
        Command::Help => emit(&usage()),
        Command::Stats { scale, seed } => DatasetPreset::ALL.iter().try_for_each(|preset| {
            emit(&DatasetStats::of(&preset.generate(scale, seed)).to_string())
        }),
        Command::Train(args) => run_train(&args),
        Command::Privacy(args) => run_privacy(&args),
        Command::Serve(args) => run_serve(&args),
        Command::Client(args) => run_client(&args),
        Command::Generate { dataset, out, scale, seed } => {
            let data = dataset.generate(scale, seed);
            std::fs::write(&out, data.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
            emit(&format!("wrote {} ({})", out, DatasetStats::of(&data)))
        }
    }
}
