//! Smoke tests of the `ptf` binary: every code path here shells out to the
//! actual compiled executable, so arg parsing, output plumbing, and exit
//! codes are exercised exactly as a user would hit them.

use std::process::Command;

fn ptf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ptf"))
}

#[test]
fn help_exits_zero_and_prints_usage() {
    for flag in ["--help", "-h", "help"] {
        let out = ptf().arg(flag).output().expect("failed to spawn ptf");
        assert!(out.status.success(), "`ptf {flag}` exited {:?}", out.status.code());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("USAGE"), "no usage text for `ptf {flag}`:\n{stdout}");
        assert!(stdout.contains("ptf train"), "usage should list the train command");
    }
}

#[test]
fn no_args_prints_usage() {
    let out = ptf().output().expect("failed to spawn ptf");
    assert!(out.status.success(), "bare `ptf` should print usage and exit 0");
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_flag_is_a_parse_error() {
    let out = ptf().args(["train", "--bogus"]).output().expect("failed to spawn ptf");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn stats_runs_all_presets() {
    let out =
        ptf().args(["stats", "--scale", "small", "--seed", "7"]).output().expect("spawn failed");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["MovieLens-100K", "Steam-200K", "Gowalla"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn tiny_train_run_reports_metrics_and_traffic() {
    let out = ptf()
        .args([
            "train",
            "--dataset",
            "ml100k",
            "--rounds",
            "1",
            "--scale",
            "small",
            "--seed",
            "7",
            "--k",
            "5",
        ])
        .output()
        .expect("spawn failed");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("communication:"), "no traffic summary in:\n{stdout}");
}

#[test]
fn train_json_emits_machine_readable_run() {
    let out = ptf()
        .args([
            "train",
            "--dataset",
            "ml100k",
            "--rounds",
            "2",
            "--seed",
            "7",
            "--k",
            "5",
            "--json",
        ])
        .output()
        .expect("spawn failed");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "stdout must be pure JSON:\n{stdout}");
    // the vendored serde_json shim has no dynamic Value reader, so assert
    // on the serialized structure directly
    for field in
        ["\"protocol\"", "PTF-FedRec", "\"trace\"", "\"rounds\"", "\"ndcg\"", "\"total_bytes\""]
    {
        assert!(stdout.contains(field), "missing {field} in:\n{stdout}");
    }
    let rounds = stdout.matches("\"mean_client_loss\"").count();
    assert_eq!(rounds, 2, "expected 2 serialized rounds in:\n{stdout}");
}

#[test]
fn every_protocol_trains_through_the_cli() {
    for protocol in ["ptf", "fcf", "fedmf", "metamf", "centralized"] {
        let out = ptf()
            .args([
                "train",
                "--dataset",
                "ml100k",
                "--protocol",
                protocol,
                "--rounds",
                "1",
                "--seed",
                "7",
                "--k",
                "5",
                "--json",
            ])
            .output()
            .expect("spawn failed");
        assert!(
            out.status.success(),
            "--protocol {protocol} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.trim_start().starts_with('{'), "{protocol} stdout not JSON:\n{stdout}");
        let rounds = stdout.matches("\"mean_client_loss\"").count();
        assert_eq!(rounds, 1, "{protocol}: expected 1 serialized round in:\n{stdout}");
    }
}

#[test]
fn save_is_refused_before_the_first_round_for_a_model_without_full_state() {
    // MetaMF's model cannot make the bit-resume guarantee, so it has no
    // full-state envelope: `--save` is an error before any training
    let path = std::env::temp_dir().join(format!("ptf-save-metamf-{}.json", std::process::id()));
    let out = ptf()
        .args(["train", "--dataset", "ml100k", "--protocol", "metamf", "--rounds", "2"])
        .args(["--seed", "7", "--save"])
        .arg(&path)
        .output()
        .expect("spawn failed");
    assert_eq!(out.status.code(), Some(1), "--save of a MetaMF model must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("this model does not support checkpointing"), "{stderr}");
    assert!(!stderr.contains("round"), "it trained before refusing:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "it reported a run: {}", String::from_utf8_lossy(&out.stdout));
    assert!(!path.exists(), "a file was written to {}", path.display());
}

#[test]
fn privacy_json_reports_attack_f1() {
    let out =
        ptf().args(["privacy", "--dataset", "ml100k", "--rounds"]).output().expect("spawn failed");
    // --rounds is not a privacy option: parse error, exit 2
    assert_eq!(out.status.code(), Some(2));

    let out = ptf()
        .args(["privacy", "--dataset", "ml100k", "--defense", "none", "--seed", "7", "--json"])
        .output()
        .expect("spawn failed");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "stdout must be pure JSON:\n{stdout}");
    assert!(stdout.contains("No Defense"), "{stdout}");
    assert!(stdout.contains("\"attack_f1\""), "{stdout}");
}

#[test]
fn saved_model_restores_the_printed_runs_server_scores() {
    use ptf_fedrec::data::{DatasetPreset, Scale};
    use ptf_fedrec::models::{build_model, evaluate_model, ModelHyper, ModelKind};

    let dir = std::env::temp_dir().join(format!("ptf-smoke-save-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("server.json");
    let out = ptf()
        .args(["train", "--dataset", "ml100k", "--client", "mf", "--server", "neumf"])
        .args(["--rounds", "2", "--seed", "7", "--k", "5", "--json", "--save"])
        .arg(&path)
        .output()
        .expect("spawn failed");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let state = std::fs::read_to_string(&path).expect("--save should write the file");
    std::fs::remove_dir_all(&dir).ok();

    // the split `ptf train` evaluated on, and a same-shape server model
    // built from an unrelated seed so nothing can match by accident
    let split = DatasetPreset::MovieLens100K.split(Scale::Small, 7);
    let mut server = build_model(
        ModelKind::NeuMf,
        split.train.num_users(),
        split.train.num_items(),
        &ModelHyper::small(),
        &mut ptf_fedrec::data::test_rng(999),
    );
    server.import_full_state(&state).expect("saved state imports");

    // the report is a function of the server's scores for every user; it
    // must equal the printed one to the last digit
    let m = evaluate_model(&*server, &split.train, &split.test, 5).metrics;
    for (name, value) in [
        ("recall", m.recall),
        ("ndcg", m.ndcg),
        ("hit_rate", m.hit_rate),
        ("precision", m.precision),
        ("mrr", m.mrr),
        ("map", m.map),
    ] {
        let line = format!("\"{name}\": {}", serde_json::to_string(&value).unwrap());
        assert!(stdout.contains(&line), "restored model's {line} not in:\n{stdout}");
    }

    // a file saved before parameter buffers were packed holds decimal
    // arrays: refused with the cause, not with a dump of the array
    let (head, tail) = state.split_once(r#""data":""#).expect("parameters are packed strings");
    let (_, tail) = tail.split_once('"').unwrap();
    let decimal = format!(r#"{head}"data":[0.25,-1.5]{tail}"#);
    let err = server.import_full_state(&decimal).unwrap_err();
    assert!(err.contains("packed f32 hex string: expected string, got array"), "{err}");
    assert!(err.len() < 200, "error dumps the envelope: {} bytes", err.len());
}

#[test]
fn invalid_config_is_an_error_message_not_a_panic() {
    // --rounds 0 fails PtfConfig validation: the binary must exit 1 with
    // the ConfigError message on stderr and no panic backtrace
    let out = ptf()
        .args(["train", "--dataset", "ml100k", "--rounds", "0", "--seed", "7"])
        .output()
        .expect("spawn failed");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("rounds must be positive"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "panic leaked to the user: {stderr}");

    // --epsilon 0 used to reach `Ldp::new`'s assert inside the first round
    let out = ptf()
        .args(["privacy", "--dataset", "steam", "--defense", "ldp", "--epsilon", "0"])
        .output()
        .expect("spawn failed");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--epsilon must be > 0"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "panic leaked to the user: {stderr}");
}

#[test]
fn ids_beyond_the_fleet_fail_before_anything_is_allocated_or_dialed() {
    // used to collect 2^32 ids (16 GiB) and abort; nothing listens on
    // port 1, so reaching the connect would say "cannot connect" instead
    let out = ptf()
        .args(["client", "--addr", "127.0.0.1:1", "--dataset", "ml100k", "--ids", "0-4294967295"])
        .output()
        .expect("spawn failed");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("client id 4294967295 outside fleet 0..120"), "stderr: {stderr}");
}

#[test]
fn a_full_or_closed_stdout_is_an_error_message_not_a_panic() {
    use std::process::Stdio;
    if let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") {
        let out = ptf().arg("stats").stdout(full).output().expect("spawn failed");
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error: cannot write to stdout"), "stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "panic leaked to the user: {stderr}");
    }
    // `ptf stats | head -0`: the reader is gone before the first line
    let mut child = ptf()
        .arg("stats")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn failed");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait failed");
    assert_eq!(out.status.code(), Some(0), "a closed pipe ends the run quietly");
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
}

#[test]
fn generate_writes_loadable_json() {
    let dir = std::env::temp_dir().join(format!("ptf-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ml100k.json");
    let out = ptf()
        .args(["generate", "--dataset", "ml100k", "--out"])
        .arg(&path)
        .args(["--scale", "small", "--seed", "7"])
        .output()
        .expect("spawn failed");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&path).expect("generate should write the file");
    let data = ptf_fedrec::data::Dataset::from_json(&json).expect("exported JSON should load");
    assert!(data.num_interactions() > 0);
    std::fs::remove_dir_all(&dir).ok();
}
