//! Command-line interface for the `ptf` binary.
//!
//! Hand-rolled argument parsing (no CLI dependency) kept separate from the
//! binary so it is unit-testable. Everything reads one table, `COMMANDS`:
//! a row per command, naming its flags (`Flag { name, arg, required }`)
//! and the function that builds the [`Command`] from what was given.
//! [`parse`] walks `argv` against the row, [`usage`] prints the synopsis
//! from it, and the tests below hold the README and the CI scripts to it.
//!
//! A flag whose values form a closed set (`--scale small|paper`) is a
//! `Value` with `MEMBERS`: each member once, with its accepted
//! spellings, canonical name first. The synopsis and the
//! `unknown scale "x" (small|paper)` error are both printed from that list.
//!
//! A new flag goes in three places: its row in `COMMANDS`, a field of the
//! struct the command carries, and the typed read (`opt`/`get`/`req`/
//! `switch`/`positive`) that fills the field, default beside it. A flag
//! that is declared and never read, or read and never declared, fails
//! `tests::every_row_parses_prints_and_is_read_by_its_builder`.

use ptf_core::DefenseKind;
use ptf_data::{DatasetPreset, Scale};
use ptf_models::ModelKind;
use std::cell::RefCell;

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Print Table II style statistics of the three synthetic presets.
    Stats { scale: Scale, seed: u64 },
    /// Run a federated protocol and report metrics + traffic.
    Train(TrainArgs),
    /// Run the Top-Guess privacy audit under one defense.
    Privacy(PrivacyArgs),
    /// Export a synthetic dataset as JSON.
    Generate { dataset: DatasetPreset, out: String, scale: Scale, seed: u64 },
    /// Run the networked round server (`ptf serve`).
    Serve(ServeArgs),
    /// Run a networked client shard (`ptf client`).
    Client(ClientArgs),
    /// Print usage.
    Help,
}

/// Everything `ptf train` takes; the three run paths (plain engine,
/// cohort-scheduled preset, streamed scale) share it.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainArgs {
    pub dataset: DataChoice,
    /// Which protocol drives the run (all share one engine code path).
    pub protocol: ProtocolChoice,
    pub client: ModelKind,
    pub server: ModelKind,
    pub rounds: Option<u32>,
    pub scale: Scale,
    pub seed: u64,
    pub k: usize,
    /// Worker threads for the parallel client phase (`0` = every
    /// hardware thread, the default). Runs are bit-identical at any
    /// value.
    pub threads: usize,
    /// Write the trained model's checkpoint here after training.
    pub save: Option<String>,
    /// Evict cold embedding rows every N local rounds (`0` = never).
    pub evict_interval: u32,
    /// Row budget an eviction pass trims each client back to.
    pub evict_budget: usize,
    /// Override a scale preset's user count (scale datasets only).
    pub users: Option<usize>,
    /// Selects the cohort runtime on an in-RAM preset. The number bounds
    /// nothing: every client is parked the moment it finishes training,
    /// so at most threads × 4 are resident whatever it says.
    pub cohort: Option<usize>,
    /// Exact number of participants sampled per round (scale
    /// datasets only; default 64 there).
    pub participants: Option<usize>,
    /// Durable checkpoint directory (written every
    /// `--checkpoint-every` rounds and at the end of the run).
    pub checkpoint: Option<String>,
    /// Commit a checkpoint every N completed rounds (`0` = only at
    /// the end of the run).
    pub checkpoint_every: u32,
    /// Resume from `--checkpoint` instead of starting from round 0.
    pub resume: bool,
    /// Stop (with a checkpoint, if configured) after N completed
    /// rounds — the kill half of kill-and-resume tests.
    pub halt_after: Option<u32>,
    /// Emit the run as machine-readable JSON on stdout.
    pub json: bool,
}

/// Everything `ptf privacy` takes.
#[derive(Clone, Debug, PartialEq)]
pub struct PrivacyArgs {
    pub dataset: DatasetPreset,
    /// Table V's row; `ldp` carries [`DefenseKind::LDP_EPSILON`].
    pub defense: DefenseKind,
    /// `--epsilon`, which replaces the LDP row's budget.
    pub epsilon: Option<f64>,
    pub scale: Scale,
    pub seed: u64,
    /// Worker threads for the parallel client phase (`0` = all).
    pub threads: usize,
    /// Emit the audit as machine-readable JSON on stdout.
    pub json: bool,
}

/// What `ptf serve` and every `ptf client` of one run must agree on — the
/// whole input of the networked run's config, which the handshake
/// fingerprints.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetArgs {
    pub dataset: DatasetPreset,
    pub client: ModelKind,
    pub server: ModelKind,
    pub rounds: Option<u32>,
    pub scale: Scale,
    pub seed: u64,
    /// Fraction of trainable clients sampled per round.
    pub participation: f64,
    /// Emit the run (or shard summary) as machine-readable JSON on stdout.
    pub json: bool,
}

/// Everything `ptf serve` takes.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeArgs {
    pub fleet: FleetArgs,
    pub k: usize,
    /// TCP port to bind on 127.0.0.1 (`0` = ephemeral; the bound
    /// address is printed to stderr).
    pub port: u16,
    /// Per-round upload deadline; clients past it are dropped for
    /// that round.
    pub deadline_ms: u64,
    /// How long to wait for the full fleet to connect before
    /// giving up.
    pub gather_ms: u64,
}

/// Everything `ptf client` takes.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientArgs {
    pub fleet: FleetArgs,
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Inclusive client-id range `A-B` (or a single id `A`) this
    /// process hosts; `None` hosts the whole fleet.
    pub ids: Option<(u32, u32)>,
    /// Test/chaos hook: once this round is announced, sleep
    /// `--straggle-ms` before training (the server drops the shard for
    /// that round).
    pub straggle_round: Option<u32>,
    pub straggle_ms: u64,
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

/// What a flag value parses into. Closed sets list `MEMBERS` and inherit
/// `parse`; open values (numbers, text, id ranges) override it.
trait Value: Clone + 'static {
    /// What an unknown member is reported as: `unknown {WHAT} "x" (a|b)`.
    const WHAT: &'static str = "";
    /// Every member of a closed set with its accepted spellings (matched
    /// case-insensitively), canonical name first.
    const MEMBERS: &'static [(Self, &'static [&'static str])] = &[];

    fn parse(_flag: &str, s: &str) -> Result<Self, String> {
        pick(s).ok_or_else(|| unknown(Self::WHAT, &names::<Self>(), s))
    }

    /// Whether `--flag must be > 0` holds; only numbers are asked.
    fn is_positive(&self) -> bool {
        true
    }
}

/// The member of a closed set spelled `s`.
fn pick<T: Value>(s: &str) -> Option<T> {
    let s = s.to_ascii_lowercase();
    T::MEMBERS.iter().find(|(_, spellings)| spellings.contains(&s.as_str())).map(|(v, _)| v.clone())
}

/// The canonical names of a closed set, in declaration order.
fn names<T: Value>() -> Vec<&'static str> {
    T::MEMBERS.iter().map(|(_, spellings)| spellings[0]).collect()
}

fn unknown(what: &str, names: &[&str], s: &str) -> String {
    format!("unknown {what} {s:?} ({})", names.join("|"))
}

impl Value for DatasetPreset {
    const WHAT: &'static str = "dataset";
    const MEMBERS: &'static [(Self, &'static [&'static str])] = &[
        (Self::MovieLens100K, &["ml100k", "ml-100k", "movielens"]),
        (Self::Steam200K, &["steam", "steam200k", "steam-200k"]),
        (Self::Gowalla, &["gowalla"]),
    ];
}

/// `--dataset` for `train`: the Table II presets, then the streamed scale
/// presets listed here (canonical names match `ScaleConfig::preset`).
impl Value for DataChoice {
    const WHAT: &'static str = "dataset";
    const MEMBERS: &'static [(Self, &'static [&'static str])] = &[
        (Self::Scale("scale-10k"), &["scale-10k", "scale10k"]),
        (Self::Scale("scale-100k"), &["scale-100k", "scale100k"]),
        (Self::Scale("scale-1m"), &["scale-1m", "scale1m"]),
    ];

    fn parse(_flag: &str, s: &str) -> Result<Self, String> {
        let choice = pick(s).map(Self::Preset).or_else(|| pick(s));
        choice.ok_or_else(|| unknown(Self::WHAT, &train_datasets(), s))
    }
}

fn train_datasets() -> Vec<&'static str> {
    [names::<DatasetPreset>(), names::<DataChoice>()].concat()
}

impl Value for Scale {
    const WHAT: &'static str = "scale";
    const MEMBERS: &'static [(Self, &'static [&'static str])] =
        &[(Self::Small, &["small"]), (Self::Paper, &["paper"])];
}

impl Value for ModelKind {
    const WHAT: &'static str = "model";
    const MEMBERS: &'static [(Self, &'static [&'static str])] = &[
        (Self::NeuMf, &["neumf"]),
        (Self::Ngcf, &["ngcf"]),
        (Self::LightGcn, &["lightgcn"]),
        (Self::Mf, &["mf"]),
    ];
}

impl Value for DefenseKind {
    const WHAT: &'static str = "defense";
    const MEMBERS: &'static [(Self, &'static [&'static str])] = &[
        (Self::NoDefense, &["none"]),
        (Self::Ldp { epsilon: Self::LDP_EPSILON }, &["ldp"]),
        (Self::Sampling, &["sampling"]),
        (Self::SamplingSwapping, &["full", "sampling+swapping"]),
    ];
}

impl Value for ProtocolChoice {
    const WHAT: &'static str = "protocol";
    const MEMBERS: &'static [(Self, &'static [&'static str])] = &[
        (Self::Ptf, &["ptf", "ptf-fedrec", "ptffedrec"]),
        (Self::Fcf, &["fcf"]),
        (Self::FedMf, &["fedmf"]),
        (Self::MetaMf, &["metamf"]),
        (Self::Centralized, &["centralized", "central"]),
    ];
}

fn number<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad --{flag} {s:?}"))
}

macro_rules! count_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn parse(flag: &str, s: &str) -> Result<Self, String> {
                number(flag, s)
            }

            fn is_positive(&self) -> bool {
                *self > 0
            }
        }
    )*};
}
count_values!(u16, u32, u64, usize);

impl Value for f64 {
    fn parse(flag: &str, s: &str) -> Result<Self, String> {
        number(flag, s)
    }

    /// `nan` and `inf` are no usable budget either.
    fn is_positive(&self) -> bool {
        *self > 0.0 && self.is_finite()
    }
}

impl Value for String {
    fn parse(_flag: &str, s: &str) -> Result<Self, String> {
        Ok(s.to_string())
    }
}

/// `--ids A-B` (inclusive) or a single id `--ids A`.
impl Value for (u32, u32) {
    fn parse(flag: &str, s: &str) -> Result<Self, String> {
        let bad = || format!("bad --{flag} {s:?} (expected A-B or a single id A)");
        let (lo, hi) = s.split_once('-').unwrap_or((s, s));
        let lo: u32 = lo.trim().parse().map_err(|_| bad())?;
        let hi: u32 = hi.trim().parse().map_err(|_| bad())?;
        if lo > hi {
            return Err(format!("bad --{flag} {s:?}: {lo} > {hi}"));
        }
        Ok((lo, hi))
    }
}

/// What follows a flag on the command line, and so in the synopsis.
enum Arg {
    /// Nothing: `[--json]`.
    Switch,
    /// A free value, shown as this placeholder: `[--seed N]`.
    Text(&'static str),
    /// A member of the closed set with these names: `[--scale small|paper]`.
    OneOf(fn() -> Vec<&'static str>),
}

use Arg::{OneOf, Switch, Text};

struct Flag {
    name: &'static str,
    arg: Arg,
    required: bool,
}

struct CommandSpec {
    name: &'static str,
    flags: &'static [Flag],
    /// Builds the command from the flags given; being in the row, no
    /// second `match` on the command name exists.
    build: fn(&Given) -> Result<Command, String>,
}

/// Flags several commands take, said once.
const DATASET: Flag = Flag { name: "dataset", arg: OneOf(names::<DatasetPreset>), required: true };
const CLIENT: Flag = Flag { name: "client", arg: OneOf(names::<ModelKind>), required: false };
const SERVER: Flag = Flag { name: "server", arg: OneOf(names::<ModelKind>), required: false };
const ROUNDS: Flag = Flag { name: "rounds", arg: Text("N"), required: false };
const SCALE: Flag = Flag { name: "scale", arg: OneOf(names::<Scale>), required: false };
const SEED: Flag = Flag { name: "seed", arg: Text("N"), required: false };
const K: Flag = Flag { name: "k", arg: Text("N"), required: false };
const THREADS: Flag = Flag { name: "threads", arg: Text("N"), required: false };
const PARTICIPATION: Flag = Flag { name: "participation", arg: Text("F"), required: false };
const JSON: Flag = Flag { name: "json", arg: Switch, required: false };

/// The command table: the parser, `ptf help` and the doc checks read this.
const COMMANDS: &[CommandSpec] = &[
    CommandSpec { name: "stats", flags: &[SCALE, SEED], build: stats },
    CommandSpec {
        name: "train",
        flags: &[
            Flag { name: "dataset", arg: OneOf(train_datasets), required: true },
            Flag { name: "protocol", arg: OneOf(names::<ProtocolChoice>), required: false },
            CLIENT,
            SERVER,
            ROUNDS,
            SCALE,
            SEED,
            K,
            THREADS,
            Flag { name: "evict-interval", arg: Text("N"), required: false },
            Flag { name: "evict-budget", arg: Text("N"), required: false },
            Flag { name: "users", arg: Text("N"), required: false },
            Flag { name: "cohort", arg: Text("N"), required: false },
            Flag { name: "participants", arg: Text("N"), required: false },
            Flag { name: "checkpoint", arg: Text("DIR"), required: false },
            Flag { name: "checkpoint-every", arg: Text("N"), required: false },
            Flag { name: "resume", arg: Switch, required: false },
            Flag { name: "halt-after", arg: Text("N"), required: false },
            Flag { name: "save", arg: Text("FILE"), required: false },
            JSON,
        ],
        build: train,
    },
    CommandSpec {
        name: "privacy",
        flags: &[
            DATASET,
            Flag { name: "defense", arg: OneOf(names::<DefenseKind>), required: false },
            Flag { name: "epsilon", arg: Text("E"), required: false },
            SCALE,
            SEED,
            THREADS,
            JSON,
        ],
        build: privacy,
    },
    CommandSpec {
        name: "generate",
        flags: &[DATASET, Flag { name: "out", arg: Text("FILE"), required: true }, SCALE, SEED],
        build: generate,
    },
    CommandSpec {
        name: "serve",
        flags: &[
            DATASET,
            Flag { name: "port", arg: Text("N"), required: false },
            CLIENT,
            SERVER,
            ROUNDS,
            SCALE,
            SEED,
            K,
            PARTICIPATION,
            Flag { name: "deadline-ms", arg: Text("N"), required: false },
            Flag { name: "gather-ms", arg: Text("N"), required: false },
            JSON,
        ],
        build: serve,
    },
    CommandSpec {
        name: "client",
        flags: &[
            Flag { name: "addr", arg: Text("HOST:PORT"), required: true },
            DATASET,
            Flag { name: "ids", arg: Text("A-B"), required: false },
            CLIENT,
            SERVER,
            ROUNDS,
            SCALE,
            SEED,
            PARTICIPATION,
            Flag { name: "straggle-round", arg: Text("N"), required: false },
            Flag { name: "straggle-ms", arg: Text("N"), required: false },
            JSON,
        ],
        build: client,
    },
];

/// What one invocation gave of its command's row, read by flag name.
struct Given<'a> {
    cmd: &'static CommandSpec,
    /// `(flag, value)` in argv order; a switch's value is empty.
    values: Vec<(&'static str, &'a str)>,
    /// Every flag a builder asked for, so a test can hold it to the row.
    read: RefCell<Vec<&'static str>>,
}

/// Walks `args` against the command's row: every argument is a flag of
/// the row, given once, with its value; every required flag is there.
fn collect<'a>(cmd: &'static CommandSpec, args: &'a [String]) -> Result<Given<'a>, String> {
    let mut given = Given { cmd, values: Vec::new(), read: RefCell::new(Vec::new()) };
    let mut args = args.iter();
    while let Some(key) = args.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("unexpected argument {key:?}"));
        };
        let Some(flag) = cmd.flags.iter().find(|f| f.name == name) else {
            return Err(format!("unknown option --{name}"));
        };
        let value = match flag.arg {
            Switch => "",
            Text(_) | OneOf(_) => args.next().ok_or_else(|| format!("--{name} needs a value"))?,
        };
        if given.has(name) {
            return Err(format!("--{name} given twice"));
        }
        given.values.push((flag.name, value));
    }
    match cmd.flags.iter().find(|f| f.required && !given.has(f.name)) {
        Some(missing) => Err(given.requires(missing.name)),
        None => Ok(given),
    }
}

impl Given<'_> {
    fn has(&self, name: &str) -> bool {
        self.values.iter().any(|(given, _)| *given == name)
    }

    fn requires(&self, name: &str) -> String {
        format!("{} requires --{name}", self.cmd.name)
    }

    fn raw(&self, name: &'static str) -> Option<&str> {
        debug_assert!(
            self.cmd.flags.iter().any(|f| f.name == name),
            "`{}` reads --{name}, which its row does not list",
            self.cmd.name
        );
        self.read.borrow_mut().push(name);
        self.values.iter().find(|(given, _)| *given == name).map(|(_, value)| *value)
    }

    /// `--name VALUE`, if given.
    fn opt<T: Value>(&self, name: &'static str) -> Result<Option<T>, String> {
        self.raw(name).map(|s| T::parse(name, s)).transpose()
    }

    /// `--name VALUE`, or `default`.
    fn get<T: Value>(&self, name: &'static str, default: T) -> Result<T, String> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// `--name VALUE` of a required flag.
    fn req<T: Value>(&self, name: &'static str) -> Result<T, String> {
        self.opt(name)?.ok_or_else(|| self.requires(name))
    }

    /// Whether the valueless `--name` was given.
    fn switch(&self, name: &'static str) -> bool {
        self.raw(name).is_some()
    }

    /// `--name N`, if given, where only `N > 0` means anything.
    fn positive<T: Value>(&self, name: &'static str) -> Result<Option<T>, String> {
        match self.opt::<T>(name)? {
            Some(v) if !v.is_positive() => Err(format!("--{name} must be > 0")),
            v => Ok(v),
        }
    }
}

fn stats(g: &Given) -> Result<Command, String> {
    Ok(Command::Stats { scale: g.get("scale", Scale::Small)?, seed: g.get("seed", 2024)? })
}

fn train(g: &Given) -> Result<Command, String> {
    Ok(Command::Train(TrainArgs {
        dataset: g.req("dataset")?,
        protocol: g.get("protocol", ProtocolChoice::Ptf)?,
        client: g.get("client", ModelKind::NeuMf)?,
        server: g.get("server", ModelKind::Ngcf)?,
        rounds: g.opt("rounds")?,
        scale: g.get("scale", Scale::Small)?,
        seed: g.get("seed", 2024)?,
        k: g.positive("k")?.unwrap_or(20),
        threads: g.get("threads", 0)?,
        save: g.opt("save")?,
        evict_interval: g.get("evict-interval", 0)?,
        evict_budget: g.get("evict-budget", 0)?,
        users: g.opt("users")?,
        cohort: g.opt("cohort")?,
        participants: g.opt("participants")?,
        checkpoint: g.opt("checkpoint")?,
        checkpoint_every: g.get("checkpoint-every", 0)?,
        resume: g.switch("resume"),
        halt_after: g.positive("halt-after")?,
        json: g.switch("json"),
    }))
}

fn privacy(g: &Given) -> Result<Command, String> {
    Ok(Command::Privacy(PrivacyArgs {
        dataset: g.req("dataset")?,
        defense: g.get("defense", DefenseKind::SamplingSwapping)?,
        epsilon: g.positive("epsilon")?,
        scale: g.get("scale", Scale::Small)?,
        seed: g.get("seed", 2024)?,
        threads: g.get("threads", 0)?,
        json: g.switch("json"),
    }))
}

fn generate(g: &Given) -> Result<Command, String> {
    Ok(Command::Generate {
        dataset: g.req("dataset")?,
        out: g.req("out")?,
        scale: g.get("scale", Scale::Small)?,
        seed: g.get("seed", 2024)?,
    })
}

/// The flags `serve` and `client` share. `--participation F` is in
/// (0, 1]; the default `1.0` samples every client.
fn fleet(g: &Given) -> Result<FleetArgs, String> {
    let participation = g.get("participation", 1.0)?;
    if !(participation > 0.0 && participation <= 1.0) {
        return Err(format!("--participation must be in (0, 1], got {participation}"));
    }
    Ok(FleetArgs {
        dataset: g.req("dataset")?,
        client: g.get("client", ModelKind::NeuMf)?,
        server: g.get("server", ModelKind::Ngcf)?,
        rounds: g.opt("rounds")?,
        scale: g.get("scale", Scale::Small)?,
        seed: g.get("seed", 2024)?,
        participation,
        json: g.switch("json"),
    })
}

fn serve(g: &Given) -> Result<Command, String> {
    Ok(Command::Serve(ServeArgs {
        fleet: fleet(g)?,
        k: g.positive("k")?.unwrap_or(20),
        port: g.get("port", 7878)?,
        deadline_ms: g.get("deadline-ms", 30_000)?,
        gather_ms: g.get("gather-ms", 30_000)?,
    }))
}

fn client(g: &Given) -> Result<Command, String> {
    Ok(Command::Client(ClientArgs {
        fleet: fleet(g)?,
        addr: g.req("addr")?,
        ids: g.opt("ids")?,
        straggle_round: g.opt("straggle-round")?,
        straggle_ms: g.get("straggle-ms", 0)?,
    }))
}

/// Parses a full argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some((name, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        return Err(format!("unknown command {name:?}\n\n{}", usage()));
    };
    (cmd.build)(&collect(cmd, rest)?)
}

/// Columns a synopsis line may fill, and where a command's flags start
/// (`    ptf generate ` — continuation lines hang under it).
const WIDTH: usize = 80;
const INDENT: usize = 17;

/// One command's synopsis, greedily wrapped: required flags bare,
/// optional ones bracketed, closed sets spelled out.
fn synopsis_of(cmd: &CommandSpec) -> Vec<String> {
    let mut lines = Vec::new();
    let mut line = format!("    ptf {:<8} ", cmd.name);
    for flag in cmd.flags {
        let body = match flag.arg {
            Switch => format!("--{}", flag.name),
            Text(placeholder) => format!("--{} {placeholder}", flag.name),
            OneOf(set) => format!("--{} {}", flag.name, set().join("|")),
        };
        let piece = if flag.required { body } else { format!("[{body}]") };
        if line.len() > INDENT {
            if line.len() + 1 + piece.len() > WIDTH {
                lines.push(std::mem::replace(&mut line, " ".repeat(INDENT)));
            } else {
                line.push(' ');
            }
        }
        line.push_str(&piece);
    }
    lines.push(line);
    lines
}

/// The `USAGE:` lines of `ptf help`, one command after another.
pub fn synopsis() -> Vec<String> {
    COMMANDS.iter().flat_map(synopsis_of).collect()
}

/// What `ptf help` prints: the synopsis generated from the command table,
/// then the notes.
pub fn usage() -> String {
    format!(
        "ptf — PTF-FedRec: parameter transmission-free federated recommendation\n\n\
         USAGE:\n{}\n\n{NOTES}",
        synopsis().join("\n")
    )
}

const NOTES: &str = "\
`--client`/`--server` select the model architectures for the ptf protocol;
centralized trains the --server architecture (ignoring --client), and the
MF-family baselines (fcf, fedmf, metamf) use their paper dimensions and
ignore both. `--json` prints {trace, report, communication} for tooling.
`--threads N` sizes the parallel client scheduler (default: every hardware
thread); with the same seed the output is byte-identical at any N.
`--evict-interval`/`--evict-budget` bound client memory by resetting cold
embedding rows every N local rounds (ptf protocol only). `--epsilon` sets
the LDP budget of `--defense ldp` and is refused with any other defense.

The `scale-*` datasets stream a deterministic synthetic fleet
(10k/100k/1M users; `--users N` overrides) into an on-disk CSR arena and
train with cohort scheduling: each client is restored, trained and
parked again as soon as it finishes, so at most threads × 4 clients are
resident at once; `--participants N` are sampled per round (default
64), and ranking evaluation is skipped. `--cohort N` selects the cohort
runtime on the in-RAM presets too; its N no longer bounds anything.
Every cohort run parks client state in
per-client envelopes on disk, under DIR/clients with `--checkpoint DIR`,
else under a temp dir removed when the run exits. `--checkpoint DIR`
makes any ptf-protocol cohort run durable: a crash-safe commit every
`--checkpoint-every N` rounds (and at the end), resumed with `--resume`
to a byte-identical trace; without `--resume`, a DIR that already holds
a checkpoint is refused. `--halt-after N` stops early after N rounds for
kill-and-resume testing.

`serve`/`client` run the same protocol over TCP: the server binds
127.0.0.1:PORT (default 7878, 0 = ephemeral — the bound address is
printed to stderr) and waits for every client id to connect; client
processes host `--ids A-B` each (default: the whole fleet). Both sides
must agree on dataset, scale, seed, rounds, models, and participation —
a config-fingerprint handshake rejects drift. With the same seed the
run's trace is byte-identical to `ptf train`. See docs/wire-protocol.md.
";

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
            Command::Train(TrainArgs {
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
            })
        );
    }

    #[test]
    fn storage_and_eviction_flags_parse() {
        match parse(&argv("train --dataset ml100k --evict-interval 5 --evict-budget 512")).unwrap()
        {
            Command::Train(TrainArgs { evict_interval, evict_budget, .. }) => {
                assert_eq!(evict_interval, 5);
                assert_eq!(evict_budget, 512);
            }
            other => panic!("wrong parse: {other:?}"),
        }
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
            Command::Train(TrainArgs {
                dataset,
                client,
                server,
                rounds,
                scale,
                seed,
                k,
                save,
                ..
            }) => {
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
            Command::Train(TrainArgs { threads, .. }) => assert_eq!(threads, 4),
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv("privacy --dataset steam --threads 2")).unwrap() {
            Command::Privacy(PrivacyArgs { threads, .. }) => assert_eq!(threads, 2),
            other => panic!("wrong parse: {other:?}"),
        }
        // default: 0 = every hardware thread
        match parse(&argv("privacy --dataset steam")).unwrap() {
            Command::Privacy(PrivacyArgs { threads, .. }) => assert_eq!(threads, 0),
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
                Command::Train(TrainArgs { dataset, .. }) => {
                    assert_eq!(dataset, DataChoice::Scale(want), "{s}")
                }
                other => panic!("wrong parse: {other:?}"),
            }
        }
        match parse(&argv("train --dataset scale-10k --users 5000 --cohort 256 --participants 32"))
            .unwrap()
        {
            Command::Train(TrainArgs { users, cohort, participants, .. }) => {
                assert_eq!(users, Some(5000));
                assert_eq!(cohort, Some(256));
                assert_eq!(participants, Some(32));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // unset: defaults are decided by the binary per dataset kind
        match parse(&argv("train --dataset scale-1m")).unwrap() {
            Command::Train(TrainArgs { users, cohort, participants, .. }) => {
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
            Command::Train(TrainArgs {
                checkpoint, checkpoint_every, resume, halt_after, ..
            }) => {
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
            Command::Train(TrainArgs { resume, rounds, .. }) => {
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
                Command::Train(TrainArgs { protocol, .. }) => assert_eq!(protocol, want, "{s}"),
                other => panic!("wrong parse: {other:?}"),
            }
        }
        let err = parse(&argv("train --dataset ml100k --protocol hogwarts")).unwrap_err();
        assert!(err.contains("unknown protocol"), "{err}");
    }

    #[test]
    fn json_is_a_valueless_flag() {
        match parse(&argv("train --dataset ml100k --json --rounds 2")).unwrap() {
            Command::Train(TrainArgs { json, rounds, .. }) => {
                assert!(json);
                assert_eq!(rounds, Some(2), "--json must not swallow the next option");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv("privacy --dataset steam --json")).unwrap() {
            Command::Privacy(PrivacyArgs { json, .. }) => assert!(json),
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("train --dataset ml100k --json --json"))
            .unwrap_err()
            .contains("twice"));
    }

    #[test]
    fn privacy_defense_parsing() {
        for (s, want) in [
            ("none", DefenseKind::NoDefense),
            ("ldp", DefenseKind::Ldp { epsilon: DefenseKind::LDP_EPSILON }),
            ("sampling", DefenseKind::Sampling),
            ("full", DefenseKind::SamplingSwapping),
        ] {
            let cmd = parse(&argv(&format!("privacy --dataset steam --defense {s}"))).unwrap();
            match cmd {
                Command::Privacy(PrivacyArgs { defense, .. }) => assert_eq!(defense, want),
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
            assert_eq!(pick(alias), Some(DatasetPreset::MovieLens100K));
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
            Command::Serve(ServeArgs {
                fleet: FleetArgs {
                    dataset: DatasetPreset::MovieLens100K,
                    client: ModelKind::NeuMf,
                    server: ModelKind::Ngcf,
                    rounds: None,
                    scale: Scale::Small,
                    seed: 2024,
                    participation: 1.0,
                    json: false,
                },
                k: 20,
                port: 7878,
                deadline_ms: 30_000,
                gather_ms: 30_000,
            })
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
            Command::Serve(ServeArgs {
                port,
                deadline_ms,
                gather_ms,
                fleet: FleetArgs { participation, rounds, json, .. },
                ..
            }) => {
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
            Command::Client(ClientArgs { addr, ids, straggle_round, straggle_ms, .. }) => {
                assert_eq!(addr, "127.0.0.1:7878");
                assert_eq!(ids, Some((3, 9)));
                assert_eq!(straggle_round, None);
                assert_eq!(straggle_ms, 0);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // a single id hosts exactly that client; omitted hosts the fleet
        match parse(&argv("client --addr h:1 --dataset ml100k --ids 5")).unwrap() {
            Command::Client(ClientArgs { ids, .. }) => assert_eq!(ids, Some((5, 5))),
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv("client --addr h:1 --dataset ml100k")).unwrap() {
            Command::Client(ClientArgs { ids, .. }) => assert_eq!(ids, None),
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
            Command::Client(ClientArgs {
                straggle_round,
                straggle_ms,
                fleet: FleetArgs { json, .. },
                ..
            }) => {
                assert_eq!(straggle_round, Some(2));
                assert_eq!(straggle_ms, 5000);
                assert!(json);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    /// A value `flag` accepts whatever its type: counts take `3`, id
    /// ranges `1-2`, and fractions, budgets, paths and addresses `0.5`.
    fn sample(flag: &Flag) -> Option<&'static str> {
        match flag.arg {
            Switch => None,
            Text("N") => Some("3"),
            Text("A-B") => Some("1-2"),
            Text(_) => Some("0.5"),
            OneOf(set) => Some(set()[0]),
        }
    }

    #[test]
    fn every_row_parses_prints_and_is_read_by_its_builder() {
        for cmd in COMMANDS {
            let mut args = Vec::new();
            for flag in cmd.flags {
                args.push(format!("--{}", flag.name));
                args.extend(sample(flag).map(String::from));
            }
            let given = collect(cmd, &args).unwrap_or_else(|e| panic!("{}: {e}", cmd.name));
            (cmd.build)(&given).unwrap_or_else(|e| panic!("{} {args:?}: {e}", cmd.name));
            // a read outside the row trips `raw`'s debug_assert (debug
            // builds) or this comparison; so does a row entry nobody reads
            let mut read = given.read.borrow().clone();
            read.sort_unstable();
            read.dedup();
            let mut row: Vec<&str> = cmd.flags.iter().map(|f| f.name).collect();
            row.sort_unstable();
            assert_eq!(read, row, "`{}` builder vs its row", cmd.name);

            let lines = synopsis_of(cmd);
            let text = format!("{} ", lines.join(" ").replace(']', " "));
            for flag in cmd.flags {
                assert!(text.contains(&format!("--{} ", flag.name)), "{}: {text}", flag.name);
            }
            for line in &lines {
                assert!(line.len() <= WIDTH, "{} columns: {line}", line.len());
            }
        }
    }

    fn normalize(s: &str) -> String {
        s.split_whitespace().collect::<Vec<_>>().join(" ")
    }

    fn repo_file(rel: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// The README's copy of the synopsis: the fenced block that opens
    /// with `ptf stats`, whitespace-normalized.
    fn usage_block(readme: &str) -> Vec<String> {
        readme
            .lines()
            .skip_while(|l| !l.starts_with("ptf stats"))
            .take_while(|l| !l.starts_with("```"))
            .map(normalize)
            .collect()
    }

    #[test]
    fn readme_usage_block_is_the_help_synopsis() {
        let want: Vec<String> = synopsis().iter().map(|l| normalize(l)).collect();
        assert_eq!(
            usage_block(&repo_file("README.md")),
            want,
            "re-copy the synopsis of `ptf help` into README.md's \"The `ptf` binary\" block"
        );
        // what a stale copy is compared as: its own lines, so it differs
        let stale = "intro\n```text\nptf stats    [--scale small|paper]\n  [--json]\n```\nptf x\n";
        assert_eq!(usage_block(stale), ["ptf stats [--scale small|paper]", "[--json]"]);
    }

    /// `(line, flag)` for every `--flag` after a `ptf` invocation in
    /// `text` that is not a flag of the command the invocation names — of
    /// any command, when it names none (`ptf $args …`). Lines continued
    /// with `\` count as one, anchored at the first.
    fn stray_flags(text: &str) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        let mut logical = String::new();
        let mut anchor = 0;
        for (i, line) in text.lines().enumerate() {
            if logical.is_empty() {
                anchor = i + 1;
            }
            logical.push_str(line.trim_end_matches('\\'));
            logical.push(' ');
            if line.ends_with('\\') {
                continue;
            }
            // the rows the current invocation may be; `None` before any
            let mut rows: Option<Vec<&CommandSpec>> = None;
            let (mut after_flag, mut expect_command) = (false, false);
            for t in logical.split_whitespace() {
                let t = t.trim_matches(|c: char| "`,.();:*\"'[]".contains(c));
                if (t == "ptf" || t.ends_with("/ptf")) && !after_flag {
                    rows = Some(COMMANDS.iter().collect());
                    expect_command = true;
                    continue;
                }
                let Some(rows) = rows.as_mut() else { continue };
                match t.strip_prefix("--") {
                    Some(name) => {
                        let is_flag = !name.is_empty()
                            && name.chars().all(|c| c.is_ascii_lowercase() || c == '-');
                        if is_flag && !rows.iter().any(|c| c.flags.iter().any(|f| f.name == name)) {
                            out.push((anchor, name.to_string()));
                        }
                        after_flag = is_flag;
                    }
                    None => {
                        if let Some(named) = COMMANDS.iter().find(|c| expect_command && c.name == t)
                        {
                            *rows = vec![named];
                        }
                        (after_flag, expect_command) = (false, false);
                    }
                }
            }
            logical.clear();
        }
        out
    }

    #[test]
    fn documented_invocations_use_flags_of_the_named_command() {
        let mut files: Vec<String> =
            ["README.md", ".github/workflows/ci.yml"].map(String::from).into();
        let docs = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("docs");
        for entry in std::fs::read_dir(&docs).expect("docs/ is readable").flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".md") {
                files.push(format!("docs/{name}"));
            }
        }
        assert!(files.len() > 2, "no docs/*.md found");
        for rel in &files {
            assert_eq!(stray_flags(&repo_file(rel)), [], "{rel}: (line, --flag) no command takes");
        }
        // scoped to `ptf` invocations, held to the command they name
        let drift = "Run `ptf train --dataset ml100k --bogus-flag 3`.\n\
                     cargo bench --bench foo\n\
                     ./target/release/ptf serve --port 0 \\\n  --cohort 8 --json\n\
                     ./target/release/ptf $args --checkpoint /tmp/c --frobnicate\n";
        let got = stray_flags(drift);
        let want = [(1, "bogus-flag"), (3, "cohort"), (5, "frobnicate")];
        assert_eq!(got, want.map(|(line, flag)| (line, flag.to_string())));
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
            Command::Train(TrainArgs { save, .. }) => assert_eq!(save.as_deref(), Some("out.json")),
            other => panic!("wrong parse: {other:?}"),
        }
    }
}
