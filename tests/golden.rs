//! Golden traces: each row of [`ROWS`] runs `ptf train` one or more
//! ways, each of [`PRIVACY_ROWS`] runs `ptf privacy`, and every run must
//! print the bytes committed in `tests/golden/<row>.json`. A run that
//! leaves a checkpoint directory must also leave the row's pinned files
//! with the FNV-1a digests committed in `tests/golden/<row>.fnv`. So a
//! change that moves every thread count, work dir or resume of a row
//! alike fails here too.
//!
//! A run that prints other bytes, or a row with no golden yet, writes
//! what it printed to `$CARGO_TARGET_TMPDIR/golden/`, and the test fails
//! with the one `cp` line that blesses it. A change that moves bytes on
//! purpose shows the moved rows in its diff and says why.
//!
//! The bytes are blessed on x86-64 Linux, glibc 2.36. The baseline MF
//! step still calls the host libm's `expf` (ROADMAP.md, "Own the
//! transcendentals"), so a row that fails only under another libm is a
//! finding to record, not bytes to bless.

use ptf_fedrec::core::fnv1a64;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One way to run a row, always under a private `TMPDIR` that it must
/// leave empty; the number is its `--threads`.
#[derive(Clone, Copy, Debug)]
enum Run {
    Threads(u32),
    /// with `--checkpoint <fresh dir>`
    Checkpoint(u32),
    /// `--checkpoint <fresh dir> --halt-after 2`, every envelope of the
    /// live store torn, then `--resume`: only the commit may be read
    HaltTearResume(u32),
}

struct Row {
    name: &'static str,
    /// the command's arguments; every run adds `--json --threads N`
    args: &'static str,
    runs: &'static [Run],
    /// files under the checkpoint directory whose digests are pinned; a
    /// directory pins its whole tree
    pins: &'static [&'static str],
}

use Run::*;

const T1_T4: &[Run] = &[Threads(1), Threads(4)];

#[rustfmt::skip]
const ROWS: &[Row] = &[
    // NGCF clients train with dropout; by round 3 most tables have grown
    // dense, each at its own round
    Row { name: "ngcf-lightgcn-r3", args: "--dataset ml100k --client ngcf --server lightgcn --rounds 3 --seed 7 --k 5", runs: T1_T4, pins: &[] },
    Row { name: "ptf-neumf-ngcf", args: "--dataset ml100k --protocol ptf --client neumf --server ngcf --rounds 2 --seed 7 --k 5", runs: T1_T4, pins: &[] },
    Row { name: "fcf", args: "--dataset ml100k --protocol fcf --rounds 2 --seed 7 --k 5", runs: T1_T4, pins: &[] },
    Row { name: "fedmf", args: "--dataset ml100k --protocol fedmf --rounds 2 --seed 7 --k 5", runs: T1_T4, pins: &[] },
    Row { name: "metamf", args: "--dataset ml100k --protocol metamf --rounds 2 --seed 7 --k 5", runs: T1_T4, pins: &[] },
    Row { name: "centralized", args: "--dataset ml100k --protocol centralized --rounds 2 --seed 7 --k 5", runs: T1_T4, pins: &[] },
    // MF clients train four to a lane: three workers leave lanes partly empty
    Row { name: "mf-mf", args: "--dataset ml100k --client mf --server mf --rounds 2 --seed 7 --k 5", runs: &[Threads(1), Threads(3)], pins: &[] },
    Row { name: "lightgcn-lightgcn", args: "--dataset ml100k --client lightgcn --server lightgcn --rounds 2 --seed 7 --k 5", runs: T1_T4, pins: &[] },
    Row { name: "evict-mf-mf", args: "--dataset ml100k --client mf --server mf --evict-interval 1 --evict-budget 64 --rounds 2 --seed 7 --k 5", runs: T1_T4, pins: &[] },
    Row { name: "evict-neumf-ngcf", args: "--dataset ml100k --client neumf --server ngcf --evict-interval 1 --evict-budget 64 --rounds 2 --seed 7 --k 5", runs: T1_T4, pins: &[] },
    Row { name: "evict-lightgcn-lightgcn", args: "--dataset ml100k --client lightgcn --server lightgcn --evict-interval 1 --evict-budget 64 --rounds 2 --seed 7 --k 5", runs: T1_T4, pins: &[] },
    Row { name: "cohort16", args: "--dataset ml100k --client mf --server mf --cohort --evict-interval 1 --evict-budget 64 --rounds 2 --seed 7 --k 5", runs: &[Checkpoint(1), Checkpoint(4), Threads(1)], pins: &["commit-r2/server.json"] },
    Row { name: "scale10k", args: "--dataset scale-10k --users 2000 --participants 16 --client mf --server mf --rounds 2 --seed 7 --k 5", runs: T1_T4, pins: &[] },
    Row { name: "scale100k-resume", args: "--dataset scale-100k --client mf --server mf --rounds 3 --participants 64 --seed 7 --checkpoint-every 1", runs: &[Checkpoint(1), HaltTearResume(4)], pins: &["manifest.json", "commit-r3"] },
    Row { name: "scale100k-evict-resume", args: "--dataset scale-100k --client mf --server mf --rounds 3 --participants 64 --seed 7 --evict-interval 1 --evict-budget 64 --checkpoint-every 1", runs: &[Checkpoint(1), HaltTearResume(4)], pins: &["manifest.json", "commit-r3"] },
    // the reference run of tests/cli_checkpoint.rs and tests/net_smoke.rs
    Row { name: "ml100k-mf-r3-s11", args: "--dataset ml100k --client mf --server mf --rounds 3 --seed 11", runs: &[Threads(2)], pins: &[] },
];

/// Table V's privacy audit under each defense, at the default seed.
#[rustfmt::skip]
const PRIVACY_ROWS: &[Row] = &[
    Row { name: "privacy-none", args: "--dataset ml100k --defense none", runs: T1_T4, pins: &[] },
    Row { name: "privacy-ldp", args: "--dataset ml100k --defense ldp", runs: T1_T4, pins: &[] },
    Row { name: "privacy-sampling", args: "--dataset ml100k --defense sampling", runs: T1_T4, pins: &[] },
    Row { name: "privacy-full", args: "--dataset ml100k --defense full", runs: T1_T4, pins: &[] },
];

/// FNV-1a of a file's bytes; of a directory, of each entry's name and
/// digest, in name order.
fn digest(path: &Path) -> u64 {
    if path.is_file() {
        return fnv1a64(&std::fs::read(path).unwrap());
    }
    let entries = std::fs::read_dir(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut entries: Vec<PathBuf> = entries.map(|e| e.unwrap().path()).collect();
    entries.sort();
    let listing: Vec<u8> = entries
        .iter()
        .flat_map(|e| {
            [e.file_name().unwrap().as_encoded_bytes(), &digest(e).to_le_bytes()].concat()
        })
        .collect();
    fnv1a64(&listing)
}

/// Truncates every envelope of the live store `<ckpt>/clients` to 7
/// bytes, as a crash mid-write would leave it.
fn tear(ckpt: &Path) {
    let shards = std::fs::read_dir(ckpt.join("clients")).expect("a live store");
    let files: Vec<_> =
        shards.flat_map(|s| std::fs::read_dir(s.unwrap().path()).unwrap()).collect();
    assert!(!files.is_empty(), "the halted run parked no client");
    for file in files {
        let file = std::fs::OpenOptions::new().write(true).open(file.unwrap().path());
        file.and_then(|f| f.set_len(7)).unwrap();
    }
}

impl Run {
    /// Makes the run in the fresh directory `dir`, removed afterwards, and
    /// returns the golden files it makes: `<row>.json`, its stdout, and if
    /// it checkpoints `<row>.fnv`, one `<digest>  <pin>` line per pin.
    fn make(self, command: &str, row: &Row, dir: &Path) -> Vec<(String, Vec<u8>)> {
        let (ckpt, tmp) = (dir.join("ckpt"), dir.join("tmp"));
        std::fs::create_dir_all(&tmp).unwrap();
        let train = |threads: u32, extra: &[&str]| {
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_ptf"));
            cmd.arg(command).args(row.args.split_whitespace()).env("TMPDIR", &tmp);
            cmd.args(["--json", "--threads", &threads.to_string()]).args(extra);
            if !matches!(self, Threads(_)) {
                cmd.arg("--checkpoint").arg(&ckpt);
            }
            let out = cmd.output().expect("spawn ptf");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{} {self:?}: {stderr}", row.name);
            out.stdout
        };
        let printed = match self {
            Threads(t) | Checkpoint(t) => train(t, &[]),
            HaltTearResume(t) => {
                train(t, &["--halt-after", "2"]);
                tear(&ckpt);
                train(t, &["--resume"])
            }
        };
        let left = std::fs::read_dir(&tmp).unwrap().count();
        assert_eq!(left, 0, "{} {self:?} left files in its TMPDIR", row.name);
        let mut made = vec![(format!("{}.json", row.name), printed)];
        if ckpt.exists() {
            let pinned = |pin| format!("{:016x}  {pin}\n", digest(&ckpt.join(pin))).into_bytes();
            made.push((format!("{}.fnv", row.name), row.pins.iter().flat_map(pinned).collect()));
        }
        std::fs::remove_dir_all(dir).unwrap();
        made
    }
}

#[test]
fn every_run_of_every_row_matches_its_golden() {
    check("train", ROWS);
}

/// A privacy audit trains a NeuMF/NGCF federation, ≈ 0.3–0.5 s a row in a
/// release build and far longer in a debug one, so only a release test
/// run makes these.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn every_privacy_row_matches_its_golden() {
    check("privacy", PRIVACY_ROWS);
}

/// Runs every run of `rows` through `ptf <command>` and compares what
/// each makes with its golden files.
fn check(command: &str, rows: &[Row]) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let actual = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("golden-runs-{command}-{}", std::process::id()));
    for row in rows {
        for ext in ["json", "fnv"] {
            std::fs::remove_file(actual.join(format!("{}.{ext}", row.name))).ok();
        }
    }
    let jobs: Vec<(&Row, Run)> =
        rows.iter().flat_map(|row| row.runs.iter().map(move |&run| (row, run))).collect();
    let next = AtomicUsize::new(0);
    let moved = Mutex::new(Vec::new());
    // every job is a process of its own: two at a time keep two cores busy
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(row, run)) = jobs.get(k) else { break };
                for (file, got) in run.make(command, row, &scratch.join(k.to_string())) {
                    if std::fs::read(golden.join(&file)).ok().as_ref() != Some(&got) {
                        std::fs::create_dir_all(&actual).unwrap();
                        std::fs::write(actual.join(&file), got).unwrap();
                        let what = format!("{} {run:?}: not tests/golden/{file}", row.name);
                        moved.lock().unwrap().push(what);
                    }
                }
            });
        }
    });
    std::fs::remove_dir_all(&scratch).ok();
    let mut moved = moved.into_inner().unwrap();
    moved.sort();
    assert!(
        moved.is_empty(),
        "{}\nif these bytes move on purpose, bless them with\n  cp -r {} {}/",
        moved.join("\n"),
        actual.display(),
        golden.parent().unwrap().display()
    );
}
