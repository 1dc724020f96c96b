//! Durable checkpoint/resume for cohort runs.
//!
//! A checkpoint is a directory the trainer can be pointed back at after a
//! crash (or a deliberate kill) such that the resumed run reproduces the
//! uninterrupted run's `RunTrace` byte for byte. The layout and the
//! guarantees are specified normatively in `docs/checkpoint-format.md`;
//! in short:
//!
//! ```text
//! CKPT/
//!   manifest.json        round counter, config fingerprint, traces,
//!                        ledger counters
//!   commit-r{N}/         committed state as of round N
//!     server.json        the hidden server's full-state envelope
//!     {id % 256:02x}/{id}.json
//!                        committed client envelopes
//! ```
//!
//! **Crash safety by ordering.** A commit is written as (1) fresh
//! `commit-r{N}` directory with the client envelopes and `server.json`,
//! (2) `manifest.json` via tmp-file + rename,
//! (3) prune of older `commit-r{M}` directories. The manifest rename is
//! the atomic commit point: a crash before it leaves the previous
//! manifest (pointing at the previous, still-present commit dir) in
//! force; a crash after it leaves at worst a stale `commit-r{M}` that the
//! next save prunes. The live client store is *never* the thing resumed
//! from — resume copies the committed envelopes back over it, discarding
//! whatever the interrupted run wrote after the commit.
//!
//! **Validation before state.** [`load_manifest`] checks the format
//! version and [`Manifest::verify_fingerprint`] checks the config
//! fingerprint before any state is touched, so resuming with a drifted
//! config/model/dataset shape fails with an error (CLI exit 1), not a
//! panic or a silently diverging run.

use crate::cohort::CohortFedRec;
use ptf_comm::{CommLedger, LedgerWire};
use ptf_federated::{Engine, RoundTrace, RunTrace};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Bumped whenever the manifest or envelope wire shapes change, the
/// values `ptf_tensor::init::derived_normal_row` derives (an envelope's
/// unmaterialized item rows are re-derived on restore), or the text
/// `crate::config_fingerprint` digests — so an older checkpoint is
/// refused as a version mismatch, not as config drift.
pub const MANIFEST_VERSION: u32 = 6;

/// The checkpoint manifest — everything a resume needs besides the
/// committed server and client envelopes.
#[derive(Serialize, Deserialize)]
pub struct Manifest {
    pub version: u32,
    /// `crate::config_fingerprint` of the run, as a 16-digit hex string
    /// (a full-range u64 does not survive the JSON number channel).
    pub fingerprint: String,
    /// The next round the resumed engine will execute; `commit-r{next_round}`
    /// holds the matching server and client envelopes.
    pub next_round: u32,
    /// Traces of rounds `0..next_round`: the resumed engine's trace, so
    /// the final `RunTrace` covers the whole run.
    pub traces: Vec<RoundTrace>,
    /// Communication-ledger counters at the commit point.
    pub ledger: LedgerWire,
}

/// The one manifest field every version shares.
#[derive(Deserialize)]
struct Version {
    version: u32,
}

impl Manifest {
    /// Decodes the hex fingerprint field.
    pub fn fingerprint_u64(&self) -> Result<u64, CheckpointError> {
        u64::from_str_radix(&self.fingerprint, 16).map_err(|_| {
            CheckpointError::Corrupt(format!(
                "manifest fingerprint is not hex: {}",
                self.fingerprint
            ))
        })
    }

    /// Rejects a manifest written under a different config/model/dataset
    /// shape than the one the resume was invoked with.
    pub fn verify_fingerprint(&self, expected: u64) -> Result<(), CheckpointError> {
        let found = self.fingerprint_u64()?;
        if found != expected {
            return Err(CheckpointError::Mismatch(format!(
                "config fingerprint mismatch: checkpoint {found:016x}, run {expected:016x} \
                 (the resumed invocation must use the original config, models, and dataset)"
            )));
        }
        Ok(())
    }
}

/// Why a checkpoint could not be written or resumed from.
#[derive(Debug)]
pub enum CheckpointError {
    /// A filesystem operation on `path` failed.
    Io { path: PathBuf, source: std::io::Error },
    /// Unparseable or internally inconsistent checkpoint contents.
    Corrupt(String),
    /// Valid contents that do not belong to this run (version or
    /// fingerprint drift).
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, source } => write!(f, "checkpoint io: {}: {source}", path.display()),
            Self::Corrupt(m) => write!(f, "checkpoint corrupt: {m}"),
            Self::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Tags an I/O failure with the path it happened on.
fn io_at(path: &Path) -> impl FnOnce(std::io::Error) -> CheckpointError + '_ {
    move |source| CheckpointError::Io { path: path.to_path_buf(), source }
}

/// Path of the manifest inside a checkpoint directory.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.json")
}

/// Path of the committed-envelope directory for a given `next_round`.
pub fn commit_dir(dir: &Path, next_round: u32) -> PathBuf {
    dir.join(format!("commit-r{next_round}"))
}

/// Checks that `traces` are the rounds `0..next_round`, one each, in
/// order: what a manifest holds and what a resumed engine continues.
/// `whose` names them in the error.
fn check_traces(
    traces: &[RoundTrace],
    next_round: u32,
    whose: &str,
) -> Result<(), CheckpointError> {
    let inconsistent = if traces.len() != next_round as usize {
        format!("{whose} holds {} traces for next_round {next_round}", traces.len())
    } else if let Some((i, t)) = (0u32..).zip(traces).find(|(i, t)| t.round != *i) {
        format!("{whose} trace {i} is for round {}", t.round)
    } else {
        return Ok(());
    };
    Err(CheckpointError::Corrupt(inconsistent))
}

/// Commits the run's state after the rounds `ledger` counted — the
/// engine's ledger and its trace, `traces`, which must hold exactly those
/// rounds (anything else is refused before a byte is written): client
/// envelopes and `server.json`, then the manifest (the atomic commit
/// point), then the prune of older commits. See the module docs for the
/// crash-safety argument.
pub fn save_checkpoint(
    dir: &Path,
    protocol: &CohortFedRec,
    ledger: &CommLedger,
    traces: &[RoundTrace],
    fingerprint: u64,
) -> Result<(), CheckpointError> {
    let next_round = ledger.summary().rounds;
    check_traces(traces, next_round, "commit")?;
    std::fs::create_dir_all(dir).map_err(io_at(dir))?;
    let commit = commit_dir(dir, next_round);
    if commit.exists() {
        // leftover from a crash between envelope copy and manifest rename
        std::fs::remove_dir_all(&commit).map_err(io_at(&commit))?;
    }
    protocol.snapshot_clients_to(&commit).map_err(CheckpointError::Corrupt)?;
    let server = protocol.export_server_state().ok_or_else(|| {
        CheckpointError::Corrupt("server model does not support full-state export".to_string())
    })?;
    let server_json = commit.join("server.json");
    std::fs::write(&server_json, server).map_err(io_at(&server_json))?;
    let manifest = Manifest {
        version: MANIFEST_VERSION,
        fingerprint: format!("{fingerprint:016x}"),
        next_round,
        traces: traces.to_vec(),
        ledger: ledger.snapshot(),
    };
    let json =
        serde_json::to_string(&manifest).map_err(|e| CheckpointError::Corrupt(e.to_string()))?;
    let tmp = dir.join("manifest.json.tmp");
    std::fs::write(&tmp, json.as_bytes()).map_err(io_at(&tmp))?;
    std::fs::rename(&tmp, manifest_path(dir)).map_err(io_at(&tmp))?;
    prune_old_commits(dir, next_round)?;
    Ok(())
}

/// Removes `commit-r{M}` directories other than the one the manifest
/// points at. Unrecognized entries are left alone.
fn prune_old_commits(dir: &Path, keep: u32) -> Result<(), CheckpointError> {
    for entry in std::fs::read_dir(dir).map_err(io_at(dir))? {
        let path = entry.map_err(io_at(dir))?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        let Some(num) = name.strip_prefix("commit-r") else { continue };
        match num.parse::<u32>() {
            Ok(n) if n != keep => std::fs::remove_dir_all(&path).map_err(io_at(&path))?,
            _ => {}
        }
    }
    Ok(())
}

/// Reads and structurally validates the manifest. The config fingerprint
/// is *not* checked here — the caller computes its own and calls
/// [`Manifest::verify_fingerprint`], so the two failure modes (unreadable
/// checkpoint vs. wrong run) stay distinguishable.
pub fn load_manifest(dir: &Path) -> Result<Manifest, CheckpointError> {
    let path = manifest_path(dir);
    let text = std::fs::read_to_string(&path).map_err(io_at(&path))?;
    let corrupt = |e: serde_json::Error| CheckpointError::Corrupt(format!("manifest: {e}"));
    // the version first: an older manifest's other fields have other shapes
    let Version { version } = serde_json::from_str(&text).map_err(corrupt)?;
    if version != MANIFEST_VERSION {
        return Err(CheckpointError::Mismatch(format!(
            "manifest version {version} (this build reads version {MANIFEST_VERSION})"
        )));
    }
    let manifest: Manifest = serde_json::from_str(&text).map_err(corrupt)?;
    check_traces(&manifest.traces, manifest.next_round, "manifest")?;
    Ok(manifest)
}

/// Rebuilds the engine of a freshly constructed protocol at the
/// manifest's commit point: server state from `commit-r{N}/server.json`,
/// the committed client envelopes (each restored once as a check), and
/// the manifest's ledger and trace, from which the engine continues at
/// round `N`.
pub fn resume(
    dir: &Path,
    manifest: Manifest,
    mut protocol: CohortFedRec,
) -> Result<Engine<CohortFedRec>, CheckpointError> {
    let commit = commit_dir(dir, manifest.next_round);
    let server_json = commit.join("server.json");
    let server = std::fs::read(&server_json).map_err(io_at(&server_json))?;
    protocol
        .restore_server_state(&server)
        .map_err(|e| CheckpointError::Corrupt(format!("{}: {e}", server_json.display())))?;
    protocol.reset_clients_from(&commit).map_err(CheckpointError::Corrupt)?;
    let ledger = CommLedger::restore(&manifest.ledger);
    Ok(Engine::resume(protocol, ledger, RunTrace { rounds: manifest.traces }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cohort::tests::{small_fed, TempRoot};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// The manifest of a real two-round cohort run, written once.
    fn real_manifest() -> &'static str {
        static MANIFEST: OnceLock<String> = OnceLock::new();
        MANIFEST.get_or_init(|| {
            let (store, ckpt) = (TempRoot::new("ckpt-store"), TempRoot::new("ckpt"));
            let mut engine = Engine::new(small_fed(&store, 4));
            engine.run_round();
            engine.run_round();
            let traces = &engine.trace().rounds;
            save_checkpoint(&ckpt.0, engine.protocol(), engine.ledger(), traces, 0xfeed)
                .expect("checkpoint saves");
            std::fs::read_to_string(manifest_path(&ckpt.0)).expect("manifest reads")
        })
    }

    /// A damaged manifest with renumbered rounds used to resume and print
    /// a `RunTrace` whose rounds were wrong.
    #[test]
    fn traces_must_be_numbered_by_round() {
        let dir = TempRoot::new("ckpt-rounds");
        std::fs::create_dir_all(&dir.0).expect("mkdir");
        let mut manifest: Manifest = serde_json::from_str(real_manifest()).expect("parses");
        std::fs::write(manifest_path(&dir.0), real_manifest()).expect("write");
        load_manifest(&dir.0).expect("the intact manifest loads");

        manifest.traces[1].round = 5;
        let json = serde_json::to_string(&manifest).expect("encodes");
        std::fs::write(manifest_path(&dir.0), json).expect("write");
        match load_manifest(&dir.0) {
            Err(CheckpointError::Corrupt(m)) => {
                assert_eq!(m, "manifest trace 1 is for round 5");
            }
            other => panic!("renumbered traces were not rejected: {:?}", other.map(|m| m.traces)),
        }
    }

    /// A commit whose trace is not exactly the ledger's rounds used to
    /// write a manifest that `load_manifest` then refused. It is refused
    /// before anything is written.
    #[test]
    fn a_commit_refuses_traces_that_are_not_the_ledgers_rounds() {
        let (store, ckpt) = (TempRoot::new("ckpt-count-store"), TempRoot::new("ckpt-count"));
        let mut engine = Engine::new(small_fed(&store, 4));
        engine.run_round();
        engine.run_round();
        let [r0, r1] = [engine.trace().rounds[0], engine.trace().rounds[1]];
        for (traces, refusal) in [
            (&[r0][..], "commit holds 1 traces for next_round 2"),
            (&[r0, r1, r1][..], "commit holds 3 traces for next_round 2"),
            (&[r1, r0][..], "commit trace 0 is for round 1"),
        ] {
            let saved =
                save_checkpoint(&ckpt.0, engine.protocol(), engine.ledger(), traces, 0xfeed);
            match saved {
                Err(CheckpointError::Corrupt(m)) => assert_eq!(m, refusal),
                Err(e) => panic!("{refusal}: refused as {e}"),
                Ok(()) => panic!("{refusal}: committed"),
            }
            assert!(!ckpt.0.exists(), "{refusal}: a refused commit wrote {}", ckpt.0.display());
        }
        let traces = &engine.trace().rounds;
        save_checkpoint(&ckpt.0, engine.protocol(), engine.ledger(), traces, 0xfeed)
            .expect("the engine's own trace commits");
        assert_eq!(load_manifest(&ckpt.0).expect("manifest loads").traces, *traces);
    }

    /// A version-4 manifest holds the server envelope and a ledger of
    /// parallel arrays, which this build's `Manifest` cannot parse: it is
    /// still refused as a version mismatch, not as a corrupt manifest.
    #[test]
    fn an_older_manifest_is_a_version_mismatch() {
        let dir = TempRoot::new("ckpt-v4");
        std::fs::create_dir_all(&dir.0).expect("mkdir");
        let v4 = r#"{"version":4,"fingerprint":"000000000000feed","next_round":0,"traces":[],"ledger":{"total_bytes":0,"uploads_bytes":0,"downloads_bytes":0,"messages":0,"rounds_seen":0,"entry_clients":[],"entry_rounds":[],"entry_bytes":[]},"server":"{}"}"#;
        std::fs::write(manifest_path(&dir.0), v4).expect("write");
        match load_manifest(&dir.0) {
            Err(CheckpointError::Mismatch(m)) => {
                assert_eq!(m, "manifest version 4 (this build reads version 6)");
            }
            Err(e) => panic!("a version-4 manifest was not a mismatch: {e}"),
            Ok(_) => panic!("a version-4 manifest loaded"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, and truncations and one-byte mutations of a
        /// real manifest: `load_manifest` returns `Ok` or `Err` and never
        /// panics, and `CommLedger::restore` takes whatever it accepts.
        #[test]
        fn damaged_manifests_are_errors_never_panics(
            kind in 0u8..3,
            at in 0.0f64..1.0,
            byte in any::<u8>(),
            junk in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let intact = real_manifest().as_bytes();
            let cut = ((intact.len() as f64 * at) as usize).min(intact.len() - 1);
            let bytes = match kind {
                0 => junk,
                1 => intact[..cut].to_vec(),
                _ => {
                    let mut b = intact.to_vec();
                    b[cut] = byte;
                    b
                }
            };
            let dir = TempRoot::new("ckpt-damage");
            std::fs::create_dir_all(&dir.0).expect("mkdir");
            std::fs::write(manifest_path(&dir.0), &bytes).expect("write");
            if let Ok(manifest) = load_manifest(&dir.0) {
                CommLedger::restore(&manifest.ledger);
            }
        }
    }
}
