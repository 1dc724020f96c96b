//! `ptf` — the command-line entry point of the PTF-FedRec reproduction.
//!
//! See `ptf help` (or [`ptf_fedrec::cli::USAGE`]) for the commands. Every
//! protocol — PTF-FedRec and all baselines — runs through the same
//! `FederatedProtocol`-typed engine path: one `match` builds a
//! `Box<dyn FederatedProtocol>`, and run/evaluate/report plumbing below it
//! is written exactly once.

use ptf_fedrec::baselines::{
    Centralized, CentralizedConfig, Fcf, FcfConfig, FedMf, FedMfConfig, MetaMf, MetaMfConfig,
};
use ptf_fedrec::cli::{
    parse, Command, DataChoice, DefenseChoice, ProtocolChoice, StorageChoice, USAGE,
};
use ptf_fedrec::comm::{format_bytes, CommLedger, LedgerSummary};
use ptf_fedrec::core::{
    checkpoint, config_fingerprint, CohortData, CohortFedRec, CohortOptions, DefenseKind,
    Federation, PtfConfig, PtfFedRec, ServerScope, StorageMode, StoragePolicy, StoreKind,
};
use ptf_fedrec::data::{CsrArena, DatasetPreset, DatasetStats, Scale, ScaleConfig, TrainTestSplit};
use ptf_fedrec::federated::{
    Engine, FederatedProtocol, Participation, RoundObserver, RunTrace, TraceRecorder,
};
use ptf_fedrec::metrics::RankingReport;
use ptf_fedrec::models::{evaluate_model, ModelHyper, ModelKind};
use ptf_fedrec::net::{
    run_server, run_shard, tcp, NetServerOptions, ShardOptions, ShardSummary, Straggle,
    StragglerDrop,
};
use ptf_fedrec::privacy::TopGuessAttack;
use rand::SeedableRng;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(cmd) => {
            if let Err(e) = run(cmd) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn scaled_hyper(scale: Scale) -> ModelHyper {
    match scale {
        Scale::Paper => ModelHyper::default(),
        Scale::Small => ModelHyper::small(),
    }
}

fn scaled_config(scale: Scale, seed: u64) -> PtfConfig {
    let mut cfg = match scale {
        Scale::Paper => PtfConfig::paper(),
        Scale::Small => PtfConfig::small(),
    };
    cfg.seed = seed;
    cfg
}

fn load_split(dataset: DatasetPreset, scale: Scale, seed: u64) -> TrainTestSplit {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let data = dataset.generate(scale, &mut rng);
    TrainTestSplit::split_80_20(&data, &mut rng)
}

/// The config a networked run uses. `ptf serve` and every `ptf client`
/// build this independently from the same flags — the handshake
/// fingerprint rejects the connection if they disagree.
fn net_config(scale: Scale, seed: u64, rounds: Option<u32>, participation: f64) -> PtfConfig {
    let mut cfg = scaled_config(scale, seed);
    if let Some(r) = rounds {
        cfg.rounds = r;
    }
    cfg.participation.fraction = participation;
    cfg
}

/// One `match`, one `Box<dyn FederatedProtocol>`: everything downstream
/// (run, evaluate, report, JSON) is protocol-agnostic.
#[allow(clippy::too_many_arguments)]
fn build_protocol(
    choice: ProtocolChoice,
    train: &ptf_fedrec::data::Dataset,
    client: ModelKind,
    server: ModelKind,
    rounds: Option<u32>,
    scale: Scale,
    seed: u64,
    threads: usize,
    storage: StoragePolicy,
) -> Result<Box<dyn FederatedProtocol>, String> {
    let small = matches!(scale, Scale::Small);
    Ok(match choice {
        ProtocolChoice::Ptf => {
            let mut cfg = scaled_config(scale, seed);
            cfg.threads = threads;
            cfg.storage = storage;
            if let Some(r) = rounds {
                cfg.rounds = r;
            }
            Box::new(
                PtfFedRec::try_new(train, client, server, &scaled_hyper(scale), cfg)
                    .map_err(|e| e.to_string())?,
            )
        }
        ProtocolChoice::Fcf => {
            let mut cfg = if small { FcfConfig::small() } else { FcfConfig::default() };
            cfg.seed = seed;
            cfg.threads = threads;
            if let Some(r) = rounds {
                cfg.rounds = r;
            }
            Box::new(Fcf::new(train, cfg))
        }
        ProtocolChoice::FedMf => {
            let mut cfg = if small { FedMfConfig::small() } else { FedMfConfig::default() };
            cfg.base.seed = seed;
            cfg.base.threads = threads;
            if let Some(r) = rounds {
                cfg.base.rounds = r;
            }
            Box::new(FedMf::new(train, cfg))
        }
        ProtocolChoice::MetaMf => {
            let mut cfg = if small { MetaMfConfig::small() } else { MetaMfConfig::default() };
            cfg.seed = seed;
            cfg.threads = threads;
            if let Some(r) = rounds {
                cfg.rounds = r;
            }
            Box::new(MetaMf::new(train, cfg))
        }
        ProtocolChoice::Centralized => {
            let mut cfg =
                if small { CentralizedConfig::small() } else { CentralizedConfig::default() };
            cfg.seed = seed;
            cfg.threads = threads;
            if let Some(r) = rounds {
                cfg.epochs = r;
            }
            Box::new(Centralized::new(server, train, &scaled_hyper(scale), cfg))
        }
    })
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

/// Everything `ptf train` parsed, bundled so the three run paths (plain
/// engine, cohort-scheduled preset, streamed scale) share one signature.
struct TrainArgs {
    protocol: ProtocolChoice,
    client: ModelKind,
    server: ModelKind,
    rounds: Option<u32>,
    scale: Scale,
    seed: u64,
    k: usize,
    threads: usize,
    save: Option<String>,
    policy: StoragePolicy,
    users: Option<usize>,
    cohort: Option<usize>,
    participants: Option<usize>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: u32,
    resume: bool,
    halt_after: Option<u32>,
    json: bool,
}

/// Builds (and on `--resume` rewinds) a cohort protocol, then drives it
/// to its round budget — or to `--halt-after` — committing a durable
/// checkpoint every `checkpoint_every` completed rounds plus one at the
/// stopping point whenever `--checkpoint` is set. Returns the engine
/// (for evaluation/export) and the recorder, which after a resume holds
/// the *whole* run's trace: the manifest's committed rounds are replayed
/// into it before the first live round.
#[allow(clippy::too_many_arguments)]
fn run_cohort_engine(
    data: CohortData,
    client: ModelKind,
    server: ModelKind,
    hyper: &ModelHyper,
    cfg: PtfConfig,
    opts: CohortOptions,
    ckpt: Option<&Path>,
    checkpoint_every: u32,
    resume: bool,
    halt_after: Option<u32>,
) -> Result<(Engine<CohortFedRec>, TraceRecorder), String> {
    let fingerprint =
        config_fingerprint(&cfg, client, server, hyper, data.num_users(), data.num_items());
    let budget = cfg.rounds;
    let mut protocol =
        CohortFedRec::try_new(data, client, server, hyper, cfg, opts).map_err(|e| e.to_string())?;
    let recorder = TraceRecorder::new();
    let mut engine = if resume {
        let dir = ckpt.ok_or("--resume requires --checkpoint DIR")?;
        let manifest = checkpoint::load_manifest(dir).map_err(|e| e.to_string())?;
        manifest.verify_fingerprint(fingerprint).map_err(|e| e.to_string())?;
        checkpoint::resume_protocol(dir, &manifest, &mut protocol).map_err(|e| e.to_string())?;
        let ledger = CommLedger::restore(&manifest.ledger)
            .map_err(|e| format!("checkpoint corrupt: {e}"))?;
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
        if halt_after.is_some_and(|h| engine.rounds_completed() >= h) {
            break;
        }
        let t = engine.run_round();
        eprintln!(
            "  round {:>3}: client loss {:.4}, server loss {:.4}",
            t.round, t.mean_client_loss, t.server_loss
        );
        let done = engine.rounds_completed();
        let at_end = done >= budget;
        let halting = halt_after.is_some_and(|h| done >= h);
        if let Some(dir) = ckpt {
            if at_end || halting || (checkpoint_every > 0 && done % checkpoint_every == 0) {
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
    Ok((engine, recorder))
}

/// `ptf train` on an in-RAM preset through the classic engine path (any
/// protocol, whole fleet resident, no checkpointing).
fn run_train_plain(preset: DatasetPreset, a: TrainArgs) -> Result<(), String> {
    let split = load_split(preset, a.scale, a.seed);
    let boxed = build_protocol(
        a.protocol,
        &split.train,
        a.client,
        a.server,
        a.rounds,
        a.scale,
        a.seed,
        a.threads,
        a.policy,
    )?;
    eprintln!(
        "training {} on {} ({} clients, {} items)",
        boxed.name(),
        preset.name(),
        split.train.num_users(),
        split.train.num_items(),
    );
    let recorder = TraceRecorder::new();
    let mut engine = Engine::new(boxed).with_observer(recorder.clone());
    let trace = engine.run();
    for r in &trace.rounds {
        eprintln!(
            "  round {:>3}: client loss {:.4}, server loss {:.4}",
            r.round, r.mean_client_loss, r.server_loss
        );
    }
    let report = engine.evaluate(&split.train, &split.test, a.k);
    let summary = engine.ledger().summary();
    if a.json {
        let out = TrainJson {
            protocol: engine.protocol().name().to_string(),
            dataset: preset.name().to_string(),
            seed: a.seed,
            trace: recorder.trace(),
            report,
            communication: summary,
        };
        println!("{}", serde_json::to_string_pretty(&out).map_err(|e| e.to_string())?);
    } else {
        println!("{report}");
        println!(
            "communication: {} per client-round (total {})",
            format_bytes(summary.avg_client_bytes_per_round),
            format_bytes(summary.total_bytes as f64)
        );
    }
    save_trained_model(&engine, a.save.as_deref())
}

/// `ptf train` on one of the in-RAM Table II presets under cohort
/// scheduling and/or durable checkpointing. `ServerScope::FullFleet`
/// keeps the run bit-identical to the plain engine path.
fn run_train_cohort_preset(preset: DatasetPreset, a: TrainArgs) -> Result<(), String> {
    let split = load_split(preset, a.scale, a.seed);
    let mut cfg = scaled_config(a.scale, a.seed);
    cfg.threads = a.threads;
    cfg.storage = a.policy;
    if let Some(r) = a.rounds {
        cfg.rounds = r;
    }
    let store = match &a.checkpoint {
        Some(dir) => StoreKind::Disk(dir.join("clients")),
        None => StoreKind::Memory,
    };
    let opts = CohortOptions {
        cohort: a.cohort.unwrap_or(0),
        store,
        server_scope: ServerScope::FullFleet,
    };
    eprintln!(
        "training PTF-FedRec/cohort on {} ({} clients, {} items)",
        preset.name(),
        split.train.num_users(),
        split.train.num_items(),
    );
    let (engine, recorder) = run_cohort_engine(
        CohortData::Mem(split.train.clone()),
        a.client,
        a.server,
        &scaled_hyper(a.scale),
        cfg,
        opts,
        a.checkpoint.as_deref(),
        a.checkpoint_every,
        a.resume,
        a.halt_after,
    )?;
    let report = engine.evaluate(&split.train, &split.test, a.k);
    let summary = engine.ledger().summary();
    if a.json {
        let out = TrainJson {
            protocol: engine.protocol().name().to_string(),
            dataset: preset.name().to_string(),
            seed: a.seed,
            trace: recorder.trace(),
            report,
            communication: summary,
        };
        println!("{}", serde_json::to_string_pretty(&out).map_err(|e| e.to_string())?);
    } else {
        println!("{report}");
        println!(
            "communication: {} per client-round (total {})",
            format_bytes(summary.avg_client_bytes_per_round),
            format_bytes(summary.total_bytes as f64)
        );
    }
    save_trained_model(&engine, a.save.as_deref())
}

/// `ptf train` on a streamed `scale-*` dataset: the fleet is generated
/// into an on-disk CSR arena (never materialized), clients live in
/// on-disk envelopes, the server is scoped to the ever-participating
/// users, and ranking evaluation is skipped (there is no held-out
/// split at this scale).
fn run_train_scale(name: &'static str, a: TrainArgs) -> Result<(), String> {
    let mut sc = ScaleConfig::preset(name).ok_or_else(|| format!("unknown scale preset {name}"))?;
    if let Some(u) = a.users {
        if u == 0 {
            return Err("--users must be > 0".to_string());
        }
        sc.num_users = u;
    }
    let mut cfg = scaled_config(a.scale, a.seed);
    cfg.threads = a.threads;
    cfg.storage = a.policy;
    if let Some(r) = a.rounds {
        cfg.rounds = r;
    }
    // exact per-round participant count: fraction 0 defers to min_clients
    let p = a.participants.unwrap_or(64).clamp(1, sc.num_users);
    cfg.participation = Participation { fraction: 0.0, min_clients: p };
    // a bad config must fail before the arena is streamed to disk
    cfg.validate().map_err(|e| e.to_string())?;
    // The run's working directory: the checkpoint dir when durable (the
    // arena is part of what a resume needs), a temp dir otherwise —
    // removed on every exit path, since the arena and envelopes in it
    // were working files of this run only.
    let (root, _cleanup) = match &a.checkpoint {
        Some(dir) => (dir.clone(), None),
        None => {
            let tmp =
                std::env::temp_dir().join(format!("ptf-scale-{}-{}", std::process::id(), a.seed));
            (tmp.clone(), Some(RemoveOnDrop(tmp)))
        }
    };
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
            ));
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
        ));
    }
    let opts = CohortOptions {
        cohort: a.cohort.unwrap_or(1024),
        store: StoreKind::Disk(root.join("clients")),
        server_scope: ServerScope::ActiveParticipants,
    };
    eprintln!(
        "training PTF-FedRec/cohort on {} ({} clients, {} items, cohort {}, {} participants/round)",
        name,
        sc.num_users,
        sc.num_items,
        if opts.cohort == 0 { sc.num_users } else { opts.cohort },
        p,
    );
    let num_users = sc.num_users;
    let (engine, recorder) = run_cohort_engine(
        CohortData::Arena(arena),
        a.client,
        a.server,
        &scaled_hyper(a.scale),
        cfg,
        opts,
        a.checkpoint.as_deref(),
        a.checkpoint_every,
        a.resume,
        a.halt_after,
    )?;
    let summary = engine.ledger().summary();
    if a.json {
        let out = ScaleTrainJson {
            protocol: engine.protocol().name().to_string(),
            dataset: name.to_string(),
            users: num_users,
            seed: a.seed,
            trace: recorder.trace(),
            communication: summary,
        };
        println!("{}", serde_json::to_string_pretty(&out).map_err(|e| e.to_string())?);
    } else {
        println!("scale run: {} rounds over {} users", summary.rounds, num_users);
        println!(
            "communication: {} per client-round (total {})",
            format_bytes(summary.avg_client_bytes_per_round),
            format_bytes(summary.total_bytes as f64)
        );
    }
    save_trained_model(&engine, a.save.as_deref())
}

/// Deletes a directory tree when dropped (errors ignored: there is
/// nothing useful to do about a temp dir that will not go away).
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `--save FILE`: export the trained (server) model's full state.
fn save_trained_model<P: FederatedProtocol>(
    engine: &Engine<P>,
    save: Option<&str>,
) -> Result<(), String> {
    if let Some(path) = save {
        let state = engine
            .protocol()
            .recommender()
            .export_full_state()
            .ok_or("this model does not support checkpointing")?;
        std::fs::write(path, state).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("trained model checkpointed to {path}");
    }
    Ok(())
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

/// The machine-readable shape of `ptf client --json`.
#[derive(Serialize)]
struct ClientJson {
    dataset: String,
    seed: u64,
    addr: String,
    summary: ShardSummary,
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

fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Stats { scale, seed } => {
            for preset in DatasetPreset::ALL {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let data = preset.generate(scale, &mut rng);
                println!("{}", DatasetStats::of(&data));
            }
            Ok(())
        }
        Command::Train {
            dataset,
            protocol,
            client,
            server,
            rounds,
            scale,
            seed,
            k,
            threads,
            save,
            storage,
            evict_interval,
            evict_budget,
            users,
            cohort,
            participants,
            checkpoint,
            checkpoint_every,
            resume,
            halt_after,
            json,
        } => {
            let policy = StoragePolicy {
                mode: match storage {
                    StorageChoice::Auto => StoragePolicy::default().mode,
                    StorageChoice::Sparse => StorageMode::Sparse,
                    StorageChoice::Dense => StorageMode::Dense,
                },
                evict_interval,
                evict_budget,
            };
            let is_scale = matches!(dataset, DataChoice::Scale(_));
            let wants_cohort = is_scale || cohort.is_some() || checkpoint.is_some();
            if resume && checkpoint.is_none() {
                return Err("--resume requires --checkpoint DIR".to_string());
            }
            if checkpoint_every > 0 && checkpoint.is_none() {
                return Err("--checkpoint-every requires --checkpoint DIR".to_string());
            }
            if (users.is_some() || participants.is_some()) && !is_scale {
                return Err("--users/--participants apply only to the scale-* datasets".to_string());
            }
            if halt_after.is_some() && !wants_cohort {
                return Err("--halt-after requires --checkpoint, --cohort, or a scale-* dataset"
                    .to_string());
            }
            if wants_cohort && protocol != ProtocolChoice::Ptf {
                return Err(
                    "cohort scheduling and checkpointing support --protocol ptf only".to_string()
                );
            }
            let args = TrainArgs {
                protocol,
                client,
                server,
                rounds,
                scale,
                seed,
                k,
                threads,
                save,
                policy,
                users,
                cohort,
                participants,
                checkpoint: checkpoint.map(PathBuf::from),
                checkpoint_every,
                resume,
                halt_after,
                json,
            };
            match dataset {
                DataChoice::Scale(name) => run_train_scale(name, args),
                DataChoice::Preset(preset) if wants_cohort => run_train_cohort_preset(preset, args),
                DataChoice::Preset(preset) => run_train_plain(preset, args),
            }
        }
        Command::Privacy { dataset, defense, epsilon, scale, seed, threads, json } => {
            let split = load_split(dataset, scale, seed);
            let mut cfg = scaled_config(scale, seed);
            cfg.threads = threads;
            cfg.defense = match defense {
                DefenseChoice::None => DefenseKind::NoDefense,
                DefenseChoice::Ldp => DefenseKind::Ldp { epsilon },
                DefenseChoice::Sampling => DefenseKind::Sampling,
                DefenseChoice::Full => DefenseKind::SamplingSwapping,
            };
            let defense_name = cfg.defense.name();
            let recorder = TraceRecorder::new();
            let mut fed = Federation::builder(&split.train)
                .client_model(ModelKind::NeuMf)
                .server_model(ModelKind::Ngcf)
                .hyper(scaled_hyper(scale))
                .config(cfg)
                .observer(recorder.clone())
                .build()
                .map_err(|e| e.to_string())?;
            fed.run();
            let f1 = TopGuessAttack::default().mean_f1(
                fed.protocol()
                    .last_uploads()
                    .iter()
                    .map(|u| (u.predictions.as_slice(), u.audit_positives.as_slice())),
            );
            let report = fed.evaluate(&split.train, &split.test, 20);
            if json {
                let out = PrivacyJson {
                    defense: defense_name.to_string(),
                    attack_f1: f1,
                    dataset: dataset.name().to_string(),
                    seed,
                    trace: recorder.trace(),
                    report,
                    communication: fed.ledger().summary(),
                };
                println!("{}", serde_json::to_string_pretty(&out).map_err(|e| e.to_string())?);
            } else {
                println!("defense: {defense_name}");
                println!("top-guess attack F1: {f1:.4} (lower = better privacy)");
                println!("{report}");
            }
            Ok(())
        }
        Command::Serve {
            dataset,
            client,
            server,
            rounds,
            scale,
            seed,
            k,
            port,
            participation,
            deadline_ms,
            gather_ms,
            json,
        } => {
            let split = load_split(dataset, scale, seed);
            let opts = NetServerOptions {
                cfg: net_config(scale, seed, rounds, participation),
                client_kind: client,
                server_kind: server,
                hyper: scaled_hyper(scale),
                round_deadline: Duration::from_millis(deadline_ms),
                gather_timeout: Duration::from_millis(gather_ms),
                verbose: true,
            };
            let endpoint = tcp::serve(("127.0.0.1", port))
                .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?;
            // the smoke tests (and humans scripting ephemeral ports) parse
            // this line, so it goes out before anything blocks
            eprintln!("listening on {}", endpoint.local_addr);
            eprintln!(
                "serving ptf-fedrec on {} ({} clients, {} items, {} rounds)",
                dataset.name(),
                split.train.num_users(),
                split.train.num_items(),
                opts.cfg.rounds,
            );
            let (report, trained) =
                run_server(&split.train, &endpoint.events, &opts).map_err(|e| e.to_string())?;
            let ranking = evaluate_model(trained.model(), &split.train, &split.test, k);
            if json {
                let out = ServeJson {
                    dataset: dataset.name().to_string(),
                    seed,
                    trace: report.trace,
                    report: ranking,
                    communication: report.communication,
                    stragglers: report.stragglers,
                    connections: report.connections,
                };
                println!("{}", serde_json::to_string_pretty(&out).map_err(|e| e.to_string())?);
            } else {
                println!("{ranking}");
                println!(
                    "communication: {} per client-round (total {})",
                    format_bytes(report.communication.avg_client_bytes_per_round),
                    format_bytes(report.communication.total_bytes as f64)
                );
                println!(
                    "connections: {}, stragglers dropped: {}",
                    report.connections,
                    report.stragglers.len()
                );
                for s in &report.stragglers {
                    println!("  round {:>3}: dropped client {}", s.round, s.client);
                }
            }
            Ok(())
        }
        Command::Client {
            addr,
            dataset,
            client,
            server,
            rounds,
            scale,
            seed,
            ids,
            participation,
            straggle_round,
            straggle_ms,
            json,
        } => {
            let split = load_split(dataset, scale, seed);
            let fleet = split.train.num_users() as u32;
            let ids: Vec<u32> = match ids {
                Some((lo, hi)) => (lo..=hi).collect(),
                None => (0..fleet).collect(),
            };
            let opts = ShardOptions {
                cfg: net_config(scale, seed, rounds, participation),
                client_kind: client,
                server_kind: server,
                hyper: scaled_hyper(scale),
                ids,
                straggle: straggle_round
                    .map(|round| Straggle { round, delay: Duration::from_millis(straggle_ms) }),
            };
            eprintln!(
                "hosting clients {}..={} of {} on {}",
                opts.ids.first().copied().unwrap_or(0),
                opts.ids.last().copied().unwrap_or(0),
                fleet,
                addr,
            );
            let mut conn = tcp::connect(addr.as_str())
                .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            let summary = run_shard(&split.train, &mut conn, &opts).map_err(|e| e.to_string())?;
            if json {
                let out = ClientJson { dataset: dataset.name().to_string(), seed, addr, summary };
                println!("{}", serde_json::to_string_pretty(&out).map_err(|e| e.to_string())?);
            } else {
                println!(
                    "shard done: {} clients, {} uploads, {} dropped, {} rounds, {} up / {} down",
                    summary.clients,
                    summary.participations,
                    summary.dropped,
                    summary.rounds_finished,
                    format_bytes(summary.bytes_up as f64),
                    format_bytes(summary.bytes_down as f64),
                );
            }
            Ok(())
        }
        Command::Generate { dataset, out, scale, seed } => {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let data = dataset.generate(scale, &mut rng);
            std::fs::write(&out, data.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("wrote {} ({})", out, DatasetStats::of(&data));
            Ok(())
        }
    }
}
