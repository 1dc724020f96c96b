//! Command-line interface for the `ptf` binary.
//!
//! Hand-rolled argument parsing (no CLI dependency) kept separate from the
//! binary so it is unit-testable. [`USAGE`] lists the commands and flags;
//! `ptf-lint` checks it against the README.

use ptf_data::{DatasetPreset, Scale};
use ptf_models::ModelKind;

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Print Table II style statistics of the three synthetic presets.
    Stats { scale: Scale, seed: u64 },
    /// Run a federated protocol and report metrics + traffic.
    Train {
        dataset: DataChoice,
        /// Which protocol drives the run (all share one engine code path).
        protocol: ProtocolChoice,
        client: ModelKind,
        server: ModelKind,
        rounds: Option<u32>,
        scale: Scale,
        seed: u64,
        k: usize,
        /// Worker threads for the parallel client phase (`0` = every
        /// hardware thread, the default). Runs are bit-identical at any
        /// value.
        threads: usize,
        /// Write the trained model's checkpoint here after training.
        save: Option<String>,
        /// Per-client storage representation policy.
        storage: StorageChoice,
        /// Evict cold embedding rows every N local rounds (`0` = never).
        evict_interval: u32,
        /// Row budget an eviction pass trims each client back to.
        evict_budget: usize,
        /// Override a scale preset's user count (scale datasets only).
        users: Option<usize>,
        /// Clients resident in memory at once during the parallel phase
        /// (`0` = the whole fleet; cohorting is what bounds peak heap).
        /// Defaults to the whole fleet on the in-RAM presets and 1024 on
        /// the scale presets.
        cohort: Option<usize>,
        /// Exact number of participants sampled per round (scale
        /// datasets only; default 64 there).
        participants: Option<usize>,
        /// Durable checkpoint directory (written every
        /// `--checkpoint-every` rounds and at the end of the run).
        checkpoint: Option<String>,
        /// Commit a checkpoint every N completed rounds (`0` = only at
        /// the end of the run).
        checkpoint_every: u32,
        /// Resume from `--checkpoint` instead of starting from round 0.
        resume: bool,
        /// Stop (with a checkpoint, if configured) after N completed
        /// rounds — the kill half of kill-and-resume tests.
        halt_after: Option<u32>,
        /// Emit the run as machine-readable JSON on stdout.
        json: bool,
    },
    /// Run the Top-Guess privacy audit under one defense.
    Privacy {
        dataset: DatasetPreset,
        defense: DefenseChoice,
        epsilon: f64,
        scale: Scale,
        seed: u64,
        /// Worker threads for the parallel client phase (`0` = all).
        threads: usize,
        /// Emit the audit as machine-readable JSON on stdout.
        json: bool,
    },
    /// Export a synthetic dataset as JSON.
    Generate { dataset: DatasetPreset, out: String, scale: Scale, seed: u64 },
    /// Run the networked round server (`ptf serve`).
    Serve {
        dataset: DatasetPreset,
        client: ModelKind,
        server: ModelKind,
        rounds: Option<u32>,
        scale: Scale,
        seed: u64,
        k: usize,
        /// TCP port to bind on 127.0.0.1 (`0` = ephemeral; the bound
        /// address is printed to stderr).
        port: u16,
        /// Fraction of trainable clients sampled per round (must match
        /// the clients' `--participation`).
        participation: f64,
        /// Per-round upload deadline; clients past it are dropped for
        /// that round.
        deadline_ms: u64,
        /// How long to wait for the full fleet to connect before
        /// giving up.
        gather_ms: u64,
        /// Emit the run as machine-readable JSON on stdout.
        json: bool,
    },
    /// Run a networked client shard (`ptf client`).
    Client {
        /// Server address, e.g. `127.0.0.1:7878`.
        addr: String,
        dataset: DatasetPreset,
        client: ModelKind,
        server: ModelKind,
        rounds: Option<u32>,
        scale: Scale,
        seed: u64,
        /// Inclusive client-id range `A-B` (or a single id `A`) this
        /// process hosts; `None` hosts the whole fleet.
        ids: Option<(u32, u32)>,
        /// Must match the server's `--participation`.
        participation: f64,
        /// Test/chaos hook: before uploading in this round, sleep
        /// `--straggle-ms` (the server drops the shard for that round).
        straggle_round: Option<u32>,
        straggle_ms: u64,
        /// Emit the shard summary as machine-readable JSON on stdout.
        json: bool,
    },
    /// Print usage.
    Help,
}

/// What `ptf train --dataset` names: a Table II synthetic preset or a
/// streamed million-user scale preset (`ptf_data::ScaleConfig`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataChoice {
    /// One of the paper's three synthetic presets (materialized in RAM).
    Preset(DatasetPreset),
    /// A `ScaleConfig` preset name (`scale-10k`/`scale-100k`/`scale-1m`),
    /// streamed to an on-disk CSR arena instead of materialized.
    Scale(&'static str),
}

impl DataChoice {
    /// Display name of the dataset (the `dataset` field in `--json`).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Preset(p) => p.name(),
            Self::Scale(name) => name,
        }
    }
}

/// CLI-level storage selector (maps onto `ptf_core::StorageMode`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageChoice {
    /// Per-client density heuristic (the default).
    Auto,
    /// Force item-scoped tables on every client.
    Sparse,
    /// Force full tables on every client.
    Dense,
}

/// CLI-level defense selector (maps onto `ptf_core::DefenseKind`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DefenseChoice {
    None,
    Ldp,
    Sampling,
    Full,
}

/// CLI-level protocol selector — every variant runs through the same
/// `ptf_federated::FederatedProtocol` engine path in the binary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolChoice {
    /// PTF-FedRec itself (default).
    Ptf,
    Fcf,
    FedMf,
    MetaMf,
    Centralized,
}

pub const USAGE: &str = "\
ptf — PTF-FedRec: parameter transmission-free federated recommendation

USAGE:
    ptf stats    [--scale small|paper] [--seed N]
    ptf train    --dataset ml100k|steam|gowalla|scale-10k|scale-100k|scale-1m
                 [--protocol ptf|fcf|fedmf|metamf|centralized]
                 [--client neumf|ngcf|lightgcn|mf] [--server neumf|ngcf|lightgcn|mf]
                 [--rounds N] [--scale S] [--seed N] [--k K] [--threads N]
                 [--storage auto|sparse|dense] [--evict-interval N]
                 [--evict-budget N] [--users N] [--cohort N] [--participants N]
                 [--checkpoint DIR] [--checkpoint-every N] [--resume]
                 [--halt-after N] [--save checkpoint.json] [--json]
    ptf privacy  --dataset D [--defense none|ldp|sampling|full] [--epsilon E]
                 [--scale S] [--seed N] [--threads N] [--json]
    ptf generate --dataset D --out FILE [--scale S] [--seed N]
    ptf serve    --dataset D [--port P] [--client M] [--server M] [--rounds N]
                 [--scale S] [--seed N] [--k K] [--participation F]
                 [--deadline-ms N] [--gather-ms N] [--json]
    ptf client   --addr HOST:PORT --dataset D [--ids A-B] [--client M]
                 [--server M] [--rounds N] [--scale S] [--seed N]
                 [--participation F] [--straggle-round N] [--straggle-ms N]
                 [--json]

`--client`/`--server` select the model architectures for the ptf protocol;
centralized trains the --server architecture (ignoring --client), and the
MF-family baselines (fcf, fedmf, metamf) use their paper dimensions and
ignore both. `--json` prints {trace, report, communication} for tooling.
`--threads N` sizes the parallel client scheduler (default: every hardware
thread); with the same seed the output is byte-identical at any N.
`--storage` picks the per-client table representation (auto = density
heuristic); `--evict-interval`/`--evict-budget` bound client memory by
resetting cold embedding rows every N local rounds.

The `scale-*` datasets stream a deterministic synthetic fleet
(10k/100k/1M users; `--users N` overrides) into an on-disk CSR arena and
train with cohort scheduling: `--cohort N` clients are resident at once
(default 1024 there; `0` = whole fleet), `--participants N` are sampled
per round (default 64), client state lives in per-client envelopes on
disk, and ranking evaluation is skipped. `--cohort` also works on the
in-RAM presets. `--checkpoint DIR` makes any ptf-protocol cohort run
durable: a crash-safe commit every `--checkpoint-every N` rounds (and at
the end), resumed with `--resume` to a byte-identical trace;
`--halt-after N` stops early after N rounds for kill-and-resume testing.

`serve`/`client` run the same protocol over TCP: the server binds
127.0.0.1:PORT (default 7878, 0 = ephemeral — the bound address is
printed to stderr) and waits for every client id to connect; client
processes host `--ids A-B` each (default: the whole fleet). Both sides
must agree on dataset, scale, seed, rounds, models, and participation —
a config-fingerprint handshake rejects drift. With the same seed the
run's trace is byte-identical to `ptf train`. See docs/wire-protocol.md.
";

fn parse_dataset(s: &str) -> Result<DatasetPreset, String> {
    match s.to_ascii_lowercase().as_str() {
        "ml100k" | "ml-100k" | "movielens" => Ok(DatasetPreset::MovieLens100K),
        "steam" | "steam200k" | "steam-200k" => Ok(DatasetPreset::Steam200K),
        "gowalla" => Ok(DatasetPreset::Gowalla),
        other => Err(format!("unknown dataset {other:?} (ml100k|steam|gowalla)")),
    }
}

/// `--dataset` for `train`: the Table II presets plus the streamed scale
/// presets. The canonical scale names match `ScaleConfig::preset`.
fn parse_data(s: &str) -> Result<DataChoice, String> {
    match s.to_ascii_lowercase().as_str() {
        "scale-10k" | "scale10k" => Ok(DataChoice::Scale("scale-10k")),
        "scale-100k" | "scale100k" => Ok(DataChoice::Scale("scale-100k")),
        "scale-1m" | "scale1m" => Ok(DataChoice::Scale("scale-1m")),
        _ => parse_dataset(s).map(DataChoice::Preset).map_err(|_| {
            format!("unknown dataset {s:?} (ml100k|steam|gowalla|scale-10k|scale-100k|scale-1m)")
        }),
    }
}

fn parse_scale(s: &str) -> Result<Scale, String> {
    match s.to_ascii_lowercase().as_str() {
        "small" => Ok(Scale::Small),
        "paper" => Ok(Scale::Paper),
        other => Err(format!("unknown scale {other:?} (small|paper)")),
    }
}

fn parse_model(s: &str) -> Result<ModelKind, String> {
    ModelKind::parse(s).ok_or_else(|| format!("unknown model {s:?} (neumf|ngcf|lightgcn|mf)"))
}

fn parse_storage(s: &str) -> Result<StorageChoice, String> {
    match s.to_ascii_lowercase().as_str() {
        "auto" => Ok(StorageChoice::Auto),
        "sparse" | "scoped" => Ok(StorageChoice::Sparse),
        "dense" | "full" => Ok(StorageChoice::Dense),
        other => Err(format!("unknown storage {other:?} (auto|sparse|dense)")),
    }
}

fn parse_defense(s: &str) -> Result<DefenseChoice, String> {
    match s.to_ascii_lowercase().as_str() {
        "none" => Ok(DefenseChoice::None),
        "ldp" => Ok(DefenseChoice::Ldp),
        "sampling" => Ok(DefenseChoice::Sampling),
        "full" | "sampling+swapping" => Ok(DefenseChoice::Full),
        other => Err(format!("unknown defense {other:?} (none|ldp|sampling|full)")),
    }
}

fn parse_protocol(s: &str) -> Result<ProtocolChoice, String> {
    match s.to_ascii_lowercase().as_str() {
        "ptf" | "ptf-fedrec" | "ptffedrec" => Ok(ProtocolChoice::Ptf),
        "fcf" => Ok(ProtocolChoice::Fcf),
        "fedmf" => Ok(ProtocolChoice::FedMf),
        "metamf" => Ok(ProtocolChoice::MetaMf),
        "centralized" | "central" => Ok(ProtocolChoice::Centralized),
        other => Err(format!("unknown protocol {other:?} (ptf|fcf|fedmf|metamf|centralized)")),
    }
}

/// Parsed `--key value` options plus valueless `--flag` switches.
struct Options {
    values: std::collections::HashMap<String, String>,
    flags: std::collections::HashSet<String>,
}

impl Options {
    fn get(&self, key: &str) -> Option<&String> {
        self.values.get(key)
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.contains(key)
    }
}

/// Consumes `--key value` options and valueless `--flag` switches into a
/// lookup, rejecting unknowns and duplicates.
fn parse_options(args: &[String], allowed: &[&str], flags: &[&str]) -> Result<Options, String> {
    let mut out = Options {
        values: std::collections::HashMap::new(),
        flags: std::collections::HashSet::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let key = &args[i];
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("unexpected argument {key:?}"));
        };
        if flags.contains(&name) {
            if !out.flags.insert(name.to_string()) {
                return Err(format!("--{name} given twice"));
            }
            i += 1;
            continue;
        }
        if !allowed.contains(&name) {
            return Err(format!("unknown option --{name}"));
        }
        let value = args.get(i + 1).ok_or_else(|| format!("--{name} needs a value"))?.clone();
        if out.values.insert(name.to_string(), value).is_some() {
            return Err(format!("--{name} given twice"));
        }
        i += 2;
    }
    Ok(out)
}

/// Parses a full argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "stats" => {
            let opts = parse_options(rest, &["scale", "seed"], &[])?;
            Ok(Command::Stats {
                scale: opts
                    .get("scale")
                    .map(|s| parse_scale(s))
                    .transpose()?
                    .unwrap_or(Scale::Small),
                seed: parse_seed(&opts)?,
            })
        }
        "train" => {
            let opts = parse_options(
                rest,
                &[
                    "dataset",
                    "protocol",
                    "client",
                    "server",
                    "rounds",
                    "scale",
                    "seed",
                    "k",
                    "threads",
                    "save",
                    "storage",
                    "evict-interval",
                    "evict-budget",
                    "users",
                    "cohort",
                    "participants",
                    "checkpoint",
                    "checkpoint-every",
                    "halt-after",
                ],
                &["json", "resume"],
            )?;
            Ok(Command::Train {
                dataset: parse_data(opts.get("dataset").ok_or("train requires --dataset")?)?,
                protocol: opts
                    .get("protocol")
                    .map(|s| parse_protocol(s))
                    .transpose()?
                    .unwrap_or(ProtocolChoice::Ptf),
                client: opts
                    .get("client")
                    .map(|s| parse_model(s))
                    .transpose()?
                    .unwrap_or(ModelKind::NeuMf),
                server: opts
                    .get("server")
                    .map(|s| parse_model(s))
                    .transpose()?
                    .unwrap_or(ModelKind::Ngcf),
                rounds: opts
                    .get("rounds")
                    .map(|s| s.parse().map_err(|_| format!("bad --rounds {s:?}")))
                    .transpose()?,
                scale: opts
                    .get("scale")
                    .map(|s| parse_scale(s))
                    .transpose()?
                    .unwrap_or(Scale::Small),
                seed: parse_seed(&opts)?,
                k: parse_k(&opts)?,
                threads: parse_threads(&opts)?,
                save: opts.get("save").cloned(),
                storage: opts
                    .get("storage")
                    .map(|s| parse_storage(s))
                    .transpose()?
                    .unwrap_or(StorageChoice::Auto),
                evict_interval: opts
                    .get("evict-interval")
                    .map(|s| s.parse().map_err(|_| format!("bad --evict-interval {s:?}")))
                    .transpose()?
                    .unwrap_or(0),
                evict_budget: opts
                    .get("evict-budget")
                    .map(|s| s.parse().map_err(|_| format!("bad --evict-budget {s:?}")))
                    .transpose()?
                    .unwrap_or(0),
                users: opts
                    .get("users")
                    .map(|s| s.parse().map_err(|_| format!("bad --users {s:?}")))
                    .transpose()?,
                cohort: opts
                    .get("cohort")
                    .map(|s| s.parse().map_err(|_| format!("bad --cohort {s:?}")))
                    .transpose()?,
                participants: opts
                    .get("participants")
                    .map(|s| s.parse().map_err(|_| format!("bad --participants {s:?}")))
                    .transpose()?,
                checkpoint: opts.get("checkpoint").cloned(),
                checkpoint_every: opts
                    .get("checkpoint-every")
                    .map(|s| s.parse().map_err(|_| format!("bad --checkpoint-every {s:?}")))
                    .transpose()?
                    .unwrap_or(0),
                resume: opts.flag("resume"),
                halt_after: opts
                    .get("halt-after")
                    .map(|s| match s.parse::<u32>() {
                        Ok(0) => Err("--halt-after must be > 0".to_string()),
                        Ok(n) => Ok(n),
                        Err(_) => Err(format!("bad --halt-after {s:?}")),
                    })
                    .transpose()?,
                json: opts.flag("json"),
            })
        }
        "privacy" => {
            let opts = parse_options(
                rest,
                &["dataset", "defense", "epsilon", "scale", "seed", "threads"],
                &["json"],
            )?;
            Ok(Command::Privacy {
                dataset: parse_dataset(opts.get("dataset").ok_or("privacy requires --dataset")?)?,
                defense: opts
                    .get("defense")
                    .map(|s| parse_defense(s))
                    .transpose()?
                    .unwrap_or(DefenseChoice::Full),
                epsilon: opts
                    .get("epsilon")
                    .map(|s| match s.parse::<f64>() {
                        Ok(e) if e > 0.0 && e.is_finite() => Ok(e),
                        Ok(_) => Err("--epsilon must be > 0".to_string()),
                        Err(_) => Err(format!("bad --epsilon {s:?}")),
                    })
                    .transpose()?
                    .unwrap_or(5.0),
                scale: opts
                    .get("scale")
                    .map(|s| parse_scale(s))
                    .transpose()?
                    .unwrap_or(Scale::Small),
                seed: parse_seed(&opts)?,
                threads: parse_threads(&opts)?,
                json: opts.flag("json"),
            })
        }
        "generate" => {
            let opts = parse_options(rest, &["dataset", "out", "scale", "seed"], &[])?;
            Ok(Command::Generate {
                dataset: parse_dataset(opts.get("dataset").ok_or("generate requires --dataset")?)?,
                out: opts.get("out").ok_or("generate requires --out")?.clone(),
                scale: opts
                    .get("scale")
                    .map(|s| parse_scale(s))
                    .transpose()?
                    .unwrap_or(Scale::Small),
                seed: parse_seed(&opts)?,
            })
        }
        "serve" => {
            let opts = parse_options(
                rest,
                &[
                    "dataset",
                    "client",
                    "server",
                    "rounds",
                    "scale",
                    "seed",
                    "k",
                    "port",
                    "participation",
                    "deadline-ms",
                    "gather-ms",
                ],
                &["json"],
            )?;
            Ok(Command::Serve {
                dataset: parse_dataset(opts.get("dataset").ok_or("serve requires --dataset")?)?,
                client: opts
                    .get("client")
                    .map(|s| parse_model(s))
                    .transpose()?
                    .unwrap_or(ModelKind::NeuMf),
                server: opts
                    .get("server")
                    .map(|s| parse_model(s))
                    .transpose()?
                    .unwrap_or(ModelKind::Ngcf),
                rounds: opts
                    .get("rounds")
                    .map(|s| s.parse().map_err(|_| format!("bad --rounds {s:?}")))
                    .transpose()?,
                scale: opts
                    .get("scale")
                    .map(|s| parse_scale(s))
                    .transpose()?
                    .unwrap_or(Scale::Small),
                seed: parse_seed(&opts)?,
                k: parse_k(&opts)?,
                port: opts
                    .get("port")
                    .map(|s| s.parse().map_err(|_| format!("bad --port {s:?}")))
                    .transpose()?
                    .unwrap_or(7878),
                participation: parse_participation(&opts)?,
                deadline_ms: opts
                    .get("deadline-ms")
                    .map(|s| s.parse().map_err(|_| format!("bad --deadline-ms {s:?}")))
                    .transpose()?
                    .unwrap_or(30_000),
                gather_ms: opts
                    .get("gather-ms")
                    .map(|s| s.parse().map_err(|_| format!("bad --gather-ms {s:?}")))
                    .transpose()?
                    .unwrap_or(30_000),
                json: opts.flag("json"),
            })
        }
        "client" => {
            let opts = parse_options(
                rest,
                &[
                    "addr",
                    "dataset",
                    "client",
                    "server",
                    "rounds",
                    "scale",
                    "seed",
                    "ids",
                    "participation",
                    "straggle-round",
                    "straggle-ms",
                ],
                &["json"],
            )?;
            Ok(Command::Client {
                addr: opts.get("addr").ok_or("client requires --addr HOST:PORT")?.clone(),
                dataset: parse_dataset(opts.get("dataset").ok_or("client requires --dataset")?)?,
                client: opts
                    .get("client")
                    .map(|s| parse_model(s))
                    .transpose()?
                    .unwrap_or(ModelKind::NeuMf),
                server: opts
                    .get("server")
                    .map(|s| parse_model(s))
                    .transpose()?
                    .unwrap_or(ModelKind::Ngcf),
                rounds: opts
                    .get("rounds")
                    .map(|s| s.parse().map_err(|_| format!("bad --rounds {s:?}")))
                    .transpose()?,
                scale: opts
                    .get("scale")
                    .map(|s| parse_scale(s))
                    .transpose()?
                    .unwrap_or(Scale::Small),
                seed: parse_seed(&opts)?,
                ids: opts.get("ids").map(|s| parse_ids(s)).transpose()?,
                participation: parse_participation(&opts)?,
                straggle_round: opts
                    .get("straggle-round")
                    .map(|s| s.parse().map_err(|_| format!("bad --straggle-round {s:?}")))
                    .transpose()?,
                straggle_ms: opts
                    .get("straggle-ms")
                    .map(|s| s.parse().map_err(|_| format!("bad --straggle-ms {s:?}")))
                    .transpose()?
                    .unwrap_or(0),
                json: opts.flag("json"),
            })
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

/// `--ids A-B` (inclusive) or a single id `--ids A`.
fn parse_ids(s: &str) -> Result<(u32, u32), String> {
    let bad = || format!("bad --ids {s:?} (expected A-B or a single id A)");
    let (lo, hi) = match s.split_once('-') {
        Some((lo, hi)) => (lo, hi),
        None => (s, s),
    };
    let lo: u32 = lo.trim().parse().map_err(|_| bad())?;
    let hi: u32 = hi.trim().parse().map_err(|_| bad())?;
    if lo > hi {
        return Err(format!("bad --ids {s:?}: {lo} > {hi}"));
    }
    Ok((lo, hi))
}

/// `--participation F` in (0, 1]; the default `1.0` samples every client.
fn parse_participation(opts: &Options) -> Result<f64, String> {
    let f = opts
        .get("participation")
        .map(|s| s.parse::<f64>().map_err(|_| format!("bad --participation {s:?}")))
        .transpose()?
        .unwrap_or(1.0);
    if !(f > 0.0 && f <= 1.0) {
        return Err(format!("--participation must be in (0, 1], got {f}"));
    }
    Ok(f)
}

/// `--k N`, the ranking cutoff of the evaluation (default 20).
fn parse_k(opts: &Options) -> Result<usize, String> {
    let k = opts
        .get("k")
        .map(|s| s.parse().map_err(|_| format!("bad --k {s:?}")))
        .transpose()?
        .unwrap_or(20);
    if k == 0 {
        return Err("--k must be > 0".to_string());
    }
    Ok(k)
}

fn parse_seed(opts: &Options) -> Result<u64, String> {
    opts.get("seed")
        .map(|s| s.parse().map_err(|_| format!("bad --seed {s:?}")))
        .transpose()
        .map(|o| o.unwrap_or(2024))
}

/// `--threads N`; the default `0` means "every hardware thread".
fn parse_threads(opts: &Options) -> Result<usize, String> {
    opts.get("threads")
        .map(|s| s.parse().map_err(|_| format!("bad --threads {s:?}")))
        .transpose()
        .map(|o| o.unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn train_with_defaults() {
        let cmd = parse(&argv("train --dataset ml100k")).unwrap();
        assert_eq!(
            cmd,
            Command::Train {
                dataset: DataChoice::Preset(DatasetPreset::MovieLens100K),
                protocol: ProtocolChoice::Ptf,
                client: ModelKind::NeuMf,
                server: ModelKind::Ngcf,
                rounds: None,
                scale: Scale::Small,
                seed: 2024,
                k: 20,
                threads: 0,
                save: None,
                storage: StorageChoice::Auto,
                evict_interval: 0,
                evict_budget: 0,
                users: None,
                cohort: None,
                participants: None,
                checkpoint: None,
                checkpoint_every: 0,
                resume: false,
                halt_after: None,
                json: false,
            }
        );
    }

    #[test]
    fn storage_and_eviction_flags_parse() {
        match parse(&argv(
            "train --dataset ml100k --storage sparse --evict-interval 5 --evict-budget 512",
        ))
        .unwrap()
        {
            Command::Train { storage, evict_interval, evict_budget, .. } => {
                assert_eq!(storage, StorageChoice::Sparse);
                assert_eq!(evict_interval, 5);
                assert_eq!(evict_budget, 512);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        for (s, want) in [
            ("auto", StorageChoice::Auto),
            ("dense", StorageChoice::Dense),
            ("full", StorageChoice::Dense),
            ("scoped", StorageChoice::Sparse),
        ] {
            match parse(&argv(&format!("train --dataset ml100k --storage {s}"))).unwrap() {
                Command::Train { storage, .. } => assert_eq!(storage, want, "{s}"),
                other => panic!("wrong parse: {other:?}"),
            }
        }
        let err = parse(&argv("train --dataset ml100k --storage ram")).unwrap_err();
        assert!(err.contains("unknown storage"), "{err}");
        let err = parse(&argv("train --dataset ml100k --evict-interval soon")).unwrap_err();
        assert!(err.contains("--evict-interval"), "{err}");
    }

    #[test]
    fn train_full_options() {
        let cmd = parse(&argv(
            "train --dataset gowalla --client lightgcn --server neumf --rounds 7 --scale paper --seed 9 --k 10",
        ))
        .unwrap();
        match cmd {
            Command::Train { dataset, client, server, rounds, scale, seed, k, save, .. } => {
                assert_eq!(dataset, DataChoice::Preset(DatasetPreset::Gowalla));
                assert_eq!(save, None);
                assert_eq!(client, ModelKind::LightGcn);
                assert_eq!(server, ModelKind::NeuMf);
                assert_eq!(rounds, Some(7));
                assert_eq!(scale, Scale::Paper);
                assert_eq!(seed, 9);
                assert_eq!(k, 10);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn threads_option_parses_on_train_and_privacy() {
        match parse(&argv("train --dataset ml100k --threads 4")).unwrap() {
            Command::Train { threads, .. } => assert_eq!(threads, 4),
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv("privacy --dataset steam --threads 2")).unwrap() {
            Command::Privacy { threads, .. } => assert_eq!(threads, 2),
            other => panic!("wrong parse: {other:?}"),
        }
        // default: 0 = every hardware thread
        match parse(&argv("privacy --dataset steam")).unwrap() {
            Command::Privacy { threads, .. } => assert_eq!(threads, 0),
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("train --dataset ml100k --threads many"))
            .unwrap_err()
            .contains("--threads"));
    }

    #[test]
    fn scale_datasets_and_cohort_flags_parse() {
        for (s, want) in
            [("scale-10k", "scale-10k"), ("SCALE-100K", "scale-100k"), ("scale1m", "scale-1m")]
        {
            match parse(&argv(&format!("train --dataset {s}"))).unwrap() {
                Command::Train { dataset, .. } => {
                    assert_eq!(dataset, DataChoice::Scale(want), "{s}")
                }
                other => panic!("wrong parse: {other:?}"),
            }
        }
        match parse(&argv("train --dataset scale-10k --users 5000 --cohort 256 --participants 32"))
            .unwrap()
        {
            Command::Train { users, cohort, participants, .. } => {
                assert_eq!(users, Some(5000));
                assert_eq!(cohort, Some(256));
                assert_eq!(participants, Some(32));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // unset: defaults are decided by the binary per dataset kind
        match parse(&argv("train --dataset scale-1m")).unwrap() {
            Command::Train { users, cohort, participants, .. } => {
                assert_eq!(users, None);
                assert_eq!(cohort, None);
                assert_eq!(participants, None);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let err = parse(&argv("train --dataset scale-2g")).unwrap_err();
        assert!(err.contains("scale-1m"), "{err}");
    }

    #[test]
    fn checkpoint_flags_parse() {
        match parse(&argv(
            "train --dataset ml100k --checkpoint ckpt --checkpoint-every 2 --halt-after 3",
        ))
        .unwrap()
        {
            Command::Train { checkpoint, checkpoint_every, resume, halt_after, .. } => {
                assert_eq!(checkpoint.as_deref(), Some("ckpt"));
                assert_eq!(checkpoint_every, 2);
                assert!(!resume);
                assert_eq!(halt_after, Some(3));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // --resume is a valueless flag: it must not swallow the next option
        match parse(&argv("train --dataset ml100k --checkpoint ckpt --resume --rounds 4")).unwrap()
        {
            Command::Train { resume, rounds, .. } => {
                assert!(resume);
                assert_eq!(rounds, Some(4));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let err = parse(&argv("train --dataset ml100k --checkpoint-every soon")).unwrap_err();
        assert!(err.contains("--checkpoint-every"), "{err}");
        // halting before the first round would commit nothing to resume from
        let err =
            parse(&argv("train --dataset ml100k --checkpoint ckpt --halt-after 0")).unwrap_err();
        assert_eq!(err, "--halt-after must be > 0");
    }

    #[test]
    fn zero_ranking_cutoff_is_rejected() {
        for cmd in ["train", "serve"] {
            let err = parse(&argv(&format!("{cmd} --dataset ml100k --k 0"))).unwrap_err();
            assert_eq!(err, "--k must be > 0", "{cmd}");
            assert!(parse(&argv(&format!("{cmd} --dataset ml100k --k 1"))).is_ok(), "{cmd}");
        }
    }

    #[test]
    fn non_positive_epsilon_is_rejected() {
        for bad in ["0", "-1", "nan", "inf"] {
            let err =
                parse(&argv(&format!("privacy --dataset steam --defense ldp --epsilon {bad}")))
                    .unwrap_err();
            assert_eq!(err, "--epsilon must be > 0", "{bad}");
        }
        assert!(parse(&argv("privacy --dataset steam --defense ldp --epsilon 0.5")).is_ok());
    }

    #[test]
    fn train_requires_dataset() {
        let err = parse(&argv("train")).unwrap_err();
        assert!(err.contains("--dataset"), "{err}");
    }

    #[test]
    fn every_protocol_parses() {
        for (s, want) in [
            ("ptf", ProtocolChoice::Ptf),
            ("PTF-FedRec", ProtocolChoice::Ptf),
            ("fcf", ProtocolChoice::Fcf),
            ("fedmf", ProtocolChoice::FedMf),
            ("metamf", ProtocolChoice::MetaMf),
            ("centralized", ProtocolChoice::Centralized),
        ] {
            let cmd = parse(&argv(&format!("train --dataset ml100k --protocol {s}"))).unwrap();
            match cmd {
                Command::Train { protocol, .. } => assert_eq!(protocol, want, "{s}"),
                other => panic!("wrong parse: {other:?}"),
            }
        }
        let err = parse(&argv("train --dataset ml100k --protocol hogwarts")).unwrap_err();
        assert!(err.contains("unknown protocol"), "{err}");
    }

    #[test]
    fn json_is_a_valueless_flag() {
        match parse(&argv("train --dataset ml100k --json --rounds 2")).unwrap() {
            Command::Train { json, rounds, .. } => {
                assert!(json);
                assert_eq!(rounds, Some(2), "--json must not swallow the next option");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv("privacy --dataset steam --json")).unwrap() {
            Command::Privacy { json, .. } => assert!(json),
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("train --dataset ml100k --json --json"))
            .unwrap_err()
            .contains("twice"));
    }

    #[test]
    fn privacy_defense_parsing() {
        for (s, want) in [
            ("none", DefenseChoice::None),
            ("ldp", DefenseChoice::Ldp),
            ("sampling", DefenseChoice::Sampling),
            ("full", DefenseChoice::Full),
        ] {
            let cmd = parse(&argv(&format!("privacy --dataset steam --defense {s}"))).unwrap();
            match cmd {
                Command::Privacy { defense, .. } => assert_eq!(defense, want),
                other => panic!("wrong parse: {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_unknown_option_and_command() {
        assert!(parse(&argv("stats --bogus 1")).unwrap_err().contains("--bogus"));
        assert!(parse(&argv("frobnicate")).unwrap_err().contains("frobnicate"));
    }

    #[test]
    fn rejects_missing_value_and_duplicates() {
        assert!(parse(&argv("stats --seed")).unwrap_err().contains("needs a value"));
        assert!(parse(&argv("stats --seed 1 --seed 2")).unwrap_err().contains("twice"));
    }

    #[test]
    fn dataset_aliases() {
        for alias in ["ml100k", "ML-100K", "movielens"] {
            assert_eq!(parse_dataset(alias).unwrap(), DatasetPreset::MovieLens100K);
        }
    }

    #[test]
    fn generate_requires_out() {
        let err = parse(&argv("generate --dataset ml100k")).unwrap_err();
        assert!(err.contains("--out"), "{err}");
    }

    #[test]
    fn serve_with_defaults() {
        let cmd = parse(&argv("serve --dataset ml100k")).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                dataset: DatasetPreset::MovieLens100K,
                client: ModelKind::NeuMf,
                server: ModelKind::Ngcf,
                rounds: None,
                scale: Scale::Small,
                seed: 2024,
                k: 20,
                port: 7878,
                participation: 1.0,
                deadline_ms: 30_000,
                gather_ms: 30_000,
                json: false,
            }
        );
    }

    #[test]
    fn serve_full_options() {
        match parse(&argv(
            "serve --dataset steam --port 0 --client mf --server mf --rounds 3 \
             --participation 0.5 --deadline-ms 2000 --gather-ms 9000 --json",
        ))
        .unwrap()
        {
            Command::Serve {
                port, participation, deadline_ms, gather_ms, rounds, json, ..
            } => {
                assert_eq!(port, 0);
                assert_eq!(participation, 0.5);
                assert_eq!(deadline_ms, 2000);
                assert_eq!(gather_ms, 9000);
                assert_eq!(rounds, Some(3));
                assert!(json);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let err = parse(&argv("serve --dataset ml100k --participation 1.5")).unwrap_err();
        assert!(err.contains("--participation"), "{err}");
        let err = parse(&argv("serve")).unwrap_err();
        assert!(err.contains("--dataset"), "{err}");
    }

    #[test]
    fn client_requires_addr_and_parses_ids() {
        let err = parse(&argv("client --dataset ml100k")).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        match parse(&argv("client --addr 127.0.0.1:7878 --dataset ml100k --ids 3-9")).unwrap() {
            Command::Client { addr, ids, straggle_round, straggle_ms, .. } => {
                assert_eq!(addr, "127.0.0.1:7878");
                assert_eq!(ids, Some((3, 9)));
                assert_eq!(straggle_round, None);
                assert_eq!(straggle_ms, 0);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // a single id hosts exactly that client; omitted hosts the fleet
        match parse(&argv("client --addr h:1 --dataset ml100k --ids 5")).unwrap() {
            Command::Client { ids, .. } => assert_eq!(ids, Some((5, 5))),
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv("client --addr h:1 --dataset ml100k")).unwrap() {
            Command::Client { ids, .. } => assert_eq!(ids, None),
            other => panic!("wrong parse: {other:?}"),
        }
        for bad in ["9-3", "a-b", "3-", "-3"] {
            let err = parse(&argv(&format!("client --addr h:1 --dataset ml100k --ids {bad}")))
                .unwrap_err();
            assert!(err.contains("--ids"), "{bad}: {err}");
        }
    }

    #[test]
    fn client_straggle_options_parse() {
        match parse(&argv(
            "client --addr h:1 --dataset ml100k --straggle-round 2 --straggle-ms 5000 --json",
        ))
        .unwrap()
        {
            Command::Client { straggle_round, straggle_ms, json, .. } => {
                assert_eq!(straggle_round, Some(2));
                assert_eq!(straggle_ms, 5000);
                assert!(json);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }
}

#[cfg(test)]
mod save_option_tests {
    use super::*;

    #[test]
    fn train_accepts_save_path() {
        let args: Vec<String> =
            "train --dataset ml100k --save out.json".split_whitespace().map(String::from).collect();
        match parse(&args).unwrap() {
            Command::Train { save, .. } => assert_eq!(save.as_deref(), Some("out.json")),
            other => panic!("wrong parse: {other:?}"),
        }
    }
}
