//! Smoke tests of the `ptf train` cohort/checkpoint/scale surface, shelling
//! out to the compiled binary: kill-and-resume byte parity, streamed scale
//! datasets, and checkpoint robustness (corruption, truncation, fingerprint
//! drift) as a user would hit them.

use std::path::PathBuf;
use std::process::{Command, Output};

fn ptf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ptf"))
}

/// Fresh per-test scratch dir (tests run concurrently in one process).
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ptf-ckpt-smoke-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fast `ptf train --json` invocation on the ml100k preset.
fn preset_args() -> Vec<String> {
    "train --dataset ml100k --scale small --client mf --server mf --rounds 3 --seed 11 --json"
        .split_whitespace()
        .map(String::from)
        .collect()
}

/// A fast streamed scale invocation (small --users override keeps debug
/// binaries quick; the preset name still exercises the full scale path).
fn scale_args() -> Vec<String> {
    "train --dataset scale-10k --users 1500 --client mf --server mf --rounds 3 \
     --participants 16 --cohort 8 --seed 11 --json"
        .split_whitespace()
        .map(String::from)
        .collect()
}

#[test]
fn cohort_cli_run_matches_plain_engine_run() {
    let plain = ptf().args(preset_args()).output().expect("spawn failed");
    assert!(plain.status.success(), "stderr: {}", stderr_of(&plain));
    let mut args = preset_args();
    args.extend(["--cohort".into(), "32".into(), "--threads".into(), "2".into()]);
    let cohort = ptf().args(args).output().expect("spawn failed");
    assert!(cohort.status.success(), "stderr: {}", stderr_of(&cohort));
    // identical run modulo the protocol's display name
    let strip = |s: String| {
        s.lines().filter(|l| !l.contains("\"protocol\"")).collect::<Vec<_>>().join("\n")
    };
    assert_eq!(
        strip(stdout_of(&plain)),
        strip(stdout_of(&cohort)),
        "cohort scheduling must not change the run"
    );
    assert!(stdout_of(&cohort).contains("PTF-FedRec/cohort"));
}

#[test]
fn kill_and_resume_reproduces_the_uninterrupted_run_byte_for_byte() {
    let full_dir = fresh_dir("resume-full");
    let kill_dir = fresh_dir("resume-kill");
    let with_ckpt = |dir: &PathBuf, extra: &[&str]| {
        let mut args = preset_args();
        args.extend(["--checkpoint".into(), dir.display().to_string()]);
        args.extend(["--checkpoint-every".into(), "1".into()]);
        args.extend(extra.iter().map(|s| s.to_string()));
        ptf().args(args).output().expect("spawn failed")
    };

    // checkpointing must not perturb the run at all
    let plain = ptf().args(preset_args()).output().expect("spawn failed");
    let full = with_ckpt(&full_dir, &[]);
    assert!(full.status.success(), "stderr: {}", stderr_of(&full));
    let strip = |s: String| {
        s.lines().filter(|l| !l.contains("\"protocol\"")).collect::<Vec<_>>().join("\n")
    };
    assert_eq!(strip(stdout_of(&plain)), strip(stdout_of(&full)));

    // kill after 2 of 3 rounds, then resume: stdout must be byte-equal to
    // the uninterrupted checkpointed run
    let halted = with_ckpt(&kill_dir, &["--halt-after", "2"]);
    assert!(halted.status.success(), "stderr: {}", stderr_of(&halted));
    assert!(stderr_of(&halted).contains("halting after round 2"));
    let resumed = with_ckpt(&kill_dir, &["--resume"]);
    assert!(resumed.status.success(), "stderr: {}", stderr_of(&resumed));
    assert!(stderr_of(&resumed).contains("resumed at round 2"));
    assert_eq!(stdout_of(&full), stdout_of(&resumed), "resume diverged from uninterrupted run");

    // resuming a finished run replays zero rounds and reprints the output
    let again = with_ckpt(&kill_dir, &["--resume"]);
    assert!(again.status.success(), "stderr: {}", stderr_of(&again));
    assert!(stderr_of(&again).contains("resumed at round 3"));
    assert_eq!(stdout_of(&full), stdout_of(&again));

    std::fs::remove_dir_all(&full_dir).ok();
    std::fs::remove_dir_all(&kill_dir).ok();
}

#[test]
fn scale_dataset_streams_and_is_cohort_and_thread_invariant() {
    let a = ptf().args(scale_args()).output().expect("spawn failed");
    assert!(a.status.success(), "stderr: {}", stderr_of(&a));
    let stdout = stdout_of(&a);
    assert!(stdout.contains("\"users\": 1500"), "{stdout}");
    assert!(stdout.contains("\"dataset\": \"scale-10k\""), "{stdout}");
    assert_eq!(stdout.matches("\"mean_client_loss\"").count(), 3);

    // different cohort size and thread count: byte-identical output
    let mut args = scale_args();
    for (flag, v) in [("--cohort", "3"), ("--threads", "2")] {
        let i = args.iter().position(|a| a == flag);
        match i {
            Some(i) => args[i + 1] = v.into(),
            None => args.extend([flag.to_string(), v.to_string()]),
        }
    }
    let b = ptf().args(args).output().expect("spawn failed");
    assert!(b.status.success(), "stderr: {}", stderr_of(&b));
    assert_eq!(stdout, stdout_of(&b), "cohort size/threads changed a scale run");
}

#[test]
fn scale_kill_and_resume_is_byte_identical() {
    let full_dir = fresh_dir("scale-full");
    let kill_dir = fresh_dir("scale-kill");
    let with_ckpt = |dir: &PathBuf, extra: &[&str]| {
        let mut args = scale_args();
        args.extend(["--checkpoint".into(), dir.display().to_string()]);
        args.extend(["--checkpoint-every".into(), "1".into()]);
        args.extend(extra.iter().map(|s| s.to_string()));
        ptf().args(args).output().expect("spawn failed")
    };
    let full = with_ckpt(&full_dir, &[]);
    assert!(full.status.success(), "stderr: {}", stderr_of(&full));
    let halted = with_ckpt(&kill_dir, &["--halt-after", "1"]);
    assert!(halted.status.success(), "stderr: {}", stderr_of(&halted));
    let resumed = with_ckpt(&kill_dir, &["--resume"]);
    assert!(resumed.status.success(), "stderr: {}", stderr_of(&resumed));
    assert_eq!(stdout_of(&full), stdout_of(&resumed));
    std::fs::remove_dir_all(&full_dir).ok();
    std::fs::remove_dir_all(&kill_dir).ok();
}

#[test]
fn damaged_checkpoints_fail_cleanly_not_with_a_panic() {
    let dir = fresh_dir("damage");
    let run = |extra: &[&str]| {
        let mut args = preset_args();
        args.extend(["--checkpoint".into(), dir.display().to_string()]);
        args.extend(extra.iter().map(|s| s.to_string()));
        ptf().args(args).output().expect("spawn failed")
    };
    // seed a valid checkpoint
    let seeded = run(&["--halt-after", "2", "--checkpoint-every", "1"]);
    assert!(seeded.status.success(), "stderr: {}", stderr_of(&seeded));
    let manifest = dir.join("manifest.json");
    let good = std::fs::read_to_string(&manifest).expect("manifest written");

    let expect_clean_failure = |out: Output, want: &str, label: &str| {
        assert_eq!(out.status.code(), Some(1), "{label} should exit 1");
        let stderr = stderr_of(&out);
        assert!(stderr.contains(want), "{label}: expected {want:?} in stderr:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{label} panicked:\n{stderr}");
    };

    // missing manifest: the message names the file that is not there
    std::fs::remove_file(&manifest).expect("remove manifest");
    let want = format!("checkpoint io: {}", manifest.display());
    expect_clean_failure(run(&["--resume"]), &want, "missing manifest");

    // a checkpoint path that cannot hold the client store (it is a file)
    let file = fresh_dir("damage-file");
    std::fs::write(&file, "not a directory").expect("write file");
    let mut args = preset_args();
    args.extend(["--checkpoint".into(), file.display().to_string()]);
    let blocked = ptf().args(args).output().expect("spawn failed");
    let want = format!("cannot create client store {}", file.join("clients").display());
    expect_clean_failure(blocked, &want, "checkpoint path is a file");
    std::fs::remove_file(&file).ok();

    // truncated manifest
    std::fs::write(&manifest, &good[..40]).expect("truncate");
    expect_clean_failure(run(&["--resume"]), "checkpoint corrupt", "truncated manifest");

    // corrupted (unparseable) manifest
    std::fs::write(&manifest, "{\"version\": tru").expect("corrupt");
    expect_clean_failure(run(&["--resume"]), "checkpoint corrupt", "corrupt manifest");

    // checkpoints written by earlier formats: decimal f32 arrays (1), item
    // rows derived by the Box–Muller init, which unmaterialized rows would
    // no longer re-derive to (2), and one-object client envelopes (3)
    assert!(good.starts_with("{\"version\":4,"), "manifest head: {}", &good[..20]);
    for old in [1, 2, 3] {
        std::fs::write(&manifest, good.replacen("\"version\":4", &format!("\"version\":{old}"), 1))
            .expect("downgrade");
        let want =
            format!("checkpoint mismatch: manifest version {old} (this build reads version 4)");
        expect_clean_failure(run(&["--resume"]), &want, &format!("version-{old} manifest"));
    }
    std::fs::write(&manifest, &good).expect("restore manifest");

    // damaged committed client envelopes: resume restores every one it
    // copies back into the live store
    let envelope = std::fs::read_dir(dir.join("commit-r2"))
        .expect("commit dir")
        .flatten()
        .flat_map(|shard| std::fs::read_dir(shard.path()).expect("shard dir").flatten())
        .map(|file| file.path())
        .min()
        .expect("a committed envelope");
    let id = envelope.file_stem().unwrap().to_str().unwrap().to_string();
    let intact = std::fs::read_to_string(&envelope).expect("envelope reads");
    let want = format!("checkpoint corrupt: client {id} envelope");
    std::fs::write(&envelope, &intact[..intact.len() / 2]).expect("truncate envelope");
    expect_clean_failure(run(&["--resume"]), &want, "truncated envelope");
    // one score too many for the dispersed items
    let ragged = intact.replacen("\"disp_scores\":\"", "\"disp_scores\":\"3f800000", 1);
    assert_ne!(ragged, intact, "envelope has no disp_scores string");
    std::fs::write(&envelope, ragged).expect("ragged envelope");
    let want = format!("checkpoint corrupt: client {id} envelope: ragged dispersed set");
    expect_clean_failure(run(&["--resume"]), &want, "ragged dispersed set");
    // a non-hex digit in the model line's first packed buffer: every
    // other line still parses, and the model used to fail only on import
    // in the first resumed round, as a panic
    let at = intact.find("\"data\":\"").expect("the model line holds a packed buffer") + 8;
    let mut damaged = intact.clone();
    damaged.replace_range(at..at + 1, "g");
    std::fs::write(&envelope, damaged).expect("damaged model line");
    let want = format!("checkpoint corrupt: client {id} envelope: model: ");
    expect_clean_failure(run(&["--resume"]), &want, "damaged model line");
    std::fs::write(&envelope, &intact).expect("restore envelope");

    // fingerprint drift: valid manifest, different run config
    let mut args = preset_args();
    let i = args.iter().position(|a| a == "--seed").expect("--seed in args");
    args[i + 1] = "999".into();
    args.extend(["--checkpoint".into(), dir.display().to_string(), "--resume".into()]);
    let drifted = ptf().args(args).output().expect("spawn failed");
    expect_clean_failure(drifted, "fingerprint mismatch", "drifted config");

    // the intact checkpoint still resumes after all that
    let ok = run(&["--resume"]);
    assert!(ok.status.success(), "stderr: {}", stderr_of(&ok));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flag_misuse_is_rejected_with_an_error() {
    let cases: &[(&str, &str)] = &[
        ("train --dataset ml100k --resume", "--resume requires --checkpoint"),
        ("train --dataset ml100k --checkpoint-every 2", "--checkpoint-every requires"),
        ("train --dataset ml100k --users 500", "scale-* datasets"),
        ("train --dataset ml100k --participants 8", "scale-* datasets"),
        ("train --dataset ml100k --halt-after 1", "--halt-after requires"),
        ("train --dataset scale-10k --protocol fcf", "--protocol ptf only"),
        ("train --dataset ml100k --cohort 8 --protocol fedmf", "--protocol ptf only"),
        ("train --dataset scale-10k --users 0", "--users must be > 0"),
        ("train --dataset scale-10k --participants 0", "--participants must be > 0"),
        ("train --dataset ml100k --evict-budget 64", "--evict-budget requires --evict-interval"),
        ("train --dataset scale-10k --evict-interval 3", "storage.evict_budget must be positive"),
    ];
    // every rejected run gets a private temp dir and must leave it empty:
    // a scale run that fails may not leak its `ptf-scale-*` working files
    let tmp = fresh_dir("misuse-tmp");
    std::fs::create_dir_all(&tmp).expect("mkdir");
    for (cmd, want) in cases {
        let args: Vec<String> = cmd.split_whitespace().map(String::from).collect();
        let out = ptf().env("TMPDIR", &tmp).args(&args).output().expect("spawn failed");
        assert_eq!(out.status.code(), Some(1), "{cmd:?} should be a run error");
        let stderr = stderr_of(&out);
        assert!(stderr.contains(want), "{cmd:?}: expected {want:?} in stderr:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{cmd:?} panicked:\n{stderr}");
        let left: Vec<_> = std::fs::read_dir(&tmp).expect("read tmp").flatten().collect();
        assert!(left.is_empty(), "{cmd:?} left files behind: {left:?}");
    }
    std::fs::remove_dir_all(&tmp).ok();
}
