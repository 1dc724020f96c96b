//! Networked-mode smoke tests: `ptf serve` / `ptf client` over real
//! localhost TCP, plus the error paths — every failure must be a clean
//! exit-1 message, never a panic.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};

fn ptf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ptf"))
}

/// Spawns `ptf serve`, reads its stderr until the `listening on ADDR`
/// line, and returns (child, bound address, drain handle for the rest of
/// stderr). Draining keeps the pipe from back-pressuring the server.
fn spawn_serve(args: &[&str]) -> (Child, String, std::thread::JoinHandle<String>) {
    let mut child = ptf()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn ptf serve");
    let mut reader = BufReader::new(child.stderr.take().unwrap());
    let mut seen = String::new();
    let addr = loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("serve stderr read failed");
        assert!(n > 0, "serve exited before printing its address; stderr so far:\n{seen}");
        seen.push_str(&line);
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.to_string();
        }
    };
    let drain = std::thread::spawn(move || {
        let mut rest = String::new();
        reader.read_to_string(&mut rest).ok();
        seen + &rest
    });
    (child, addr, drain)
}

fn client_args<'a>(addr: &'a str, ids: &'a str) -> Vec<&'a str> {
    vec![
        "client",
        "--addr",
        addr,
        "--dataset",
        "ml100k",
        "--client",
        "mf",
        "--server",
        "mf",
        "--rounds",
        "3",
        "--ids",
        ids,
        "--json",
    ]
}

/// What the acceptance run checks of `ptf serve --json`.
#[derive(serde::Deserialize)]
struct Served {
    trace: ptf_federated::RunTrace,
    stragglers: Vec<Dropped>,
    connections: usize,
    communication: Traffic,
}

#[derive(serde::Deserialize)]
struct Dropped {
    round: u32,
    client: u32,
}

#[derive(serde::Deserialize)]
struct Traffic {
    total_bytes: u64,
}

/// The acceptance run: one server, four client processes over localhost
/// TCP, three rounds, one shard induced to straggle past the final
/// round's deadline. The run must complete with a valid JSON trace and
/// exactly the straggler shard's drops recorded, and no process may
/// panic.
#[test]
fn tcp_run_with_four_clients_and_a_straggler() {
    let (serve, addr, drain) = spawn_serve(&[
        "serve",
        "--dataset",
        "ml100k",
        "--port",
        "0",
        "--client",
        "mf",
        "--server",
        "mf",
        "--rounds",
        "3",
        "--deadline-ms",
        "5000",
        "--gather-ms",
        "30000",
        "--json",
    ]);

    // 120 small-scale ml100k users over four shards; the last shard
    // sleeps through round 2's deadline
    let mut on_time = Vec::new();
    for ids in ["0-29", "30-59", "60-89"] {
        on_time.push(
            ptf()
                .args(client_args(&addr, ids))
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("failed to spawn ptf client"),
        );
    }
    let mut straggler = ptf()
        .args(client_args(&addr, "90-119"))
        .args(["--straggle-round", "2", "--straggle-ms", "60000"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn straggler client");

    let out = serve.wait_with_output().expect("serve wait failed");
    let stderr = drain.join().unwrap();
    assert!(out.status.success(), "serve failed; stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "serve panicked:\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "serve stdout must be pure JSON:\n{stdout}");
    assert!(stdout.contains("\"ndcg\""), "serve must evaluate the trained model:\n{stdout}");
    let served: Served = serde_json::from_str(&stdout)
        .unwrap_or_else(|e| panic!("serve stdout is not its JSON report ({e}):\n{stdout}"));
    // three rounds over all 120 clients, the whole last shard (30 of
    // them) dropped in round 2 and in no other
    let participants: Vec<usize> = served.trace.rounds.iter().map(|r| r.participants).collect();
    assert_eq!(participants, [120, 120, 90], "{stdout}");
    assert_eq!(served.stragglers.len(), 30, "{stdout}");
    for dropped in &served.stragglers {
        assert_eq!(dropped.round, 2, "{stdout}");
        assert!((90..=119).contains(&dropped.client), "{stdout}");
    }
    assert_eq!(served.connections, 4, "{stdout}");
    assert!(served.communication.total_bytes > 0, "{stdout}");

    for child in on_time {
        let out = child.wait_with_output().expect("client wait failed");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "on-time client failed:\n{stderr}");
        assert!(!stderr.contains("panicked"), "client panicked:\n{stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("\"rounds_finished\": 3"), "{stdout}");
        assert!(stdout.contains("\"dropped\": 0"), "{stdout}");
    }
    // the straggler is still asleep in its induced delay; its server is
    // gone, so it ends in a clean disconnect error or is reaped here —
    // either way, without a panic
    straggler.kill().ok();
    let out = straggler.wait_with_output().expect("straggler wait failed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "straggler panicked:\n{stderr}");
}

/// The `trace` of a `ptf serve --json` or `ptf train --json` report.
#[derive(serde::Deserialize)]
struct Traced {
    trace: ptf_federated::RunTrace,
}

fn trace_json(stdout: &[u8]) -> String {
    let stdout = String::from_utf8_lossy(stdout);
    let report: Traced = serde_json::from_str(&stdout)
        .unwrap_or_else(|e| panic!("stdout is not a JSON report ({e}):\n{stdout}"));
    serde_json::to_string(&report.trace).unwrap()
}

/// Byte parity over real sockets: three uneven shards, the first
/// narrower than a lane, must reproduce `ptf train`'s trace exactly.
#[test]
fn tcp_run_over_uneven_shards_equals_ptf_train() {
    let seed = ["--seed", "11"];
    let (serve, addr, drain) = spawn_serve(&[
        "serve",
        "--dataset",
        "ml100k",
        "--port",
        "0",
        "--client",
        "mf",
        "--server",
        "mf",
        "--rounds",
        "3",
        "--seed",
        "11",
        "--deadline-ms",
        "60000",
        "--gather-ms",
        "60000",
        "--json",
    ]);
    let shards: Vec<Child> = ["0-2", "3-59", "60-119"]
        .into_iter()
        .map(|ids| {
            ptf()
                .args(client_args(&addr, ids))
                .args(seed)
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .expect("failed to spawn ptf client")
        })
        .collect();
    let served = serve.wait_with_output().expect("serve wait failed");
    let stderr = drain.join().unwrap();
    assert!(served.status.success(), "serve failed; stderr:\n{stderr}");
    for shard in shards {
        let out = shard.wait_with_output().expect("client wait failed");
        assert!(out.status.success(), "a shard failed:\n{}", String::from_utf8_lossy(&out.stderr));
    }

    // `ptf train`'s stdout for the same run: the `ml100k-mf-r3-s11` row of tests/golden.rs
    let trained = include_bytes!("golden/ml100k-mf-r3-s11.json");
    let served = trace_json(&served.stdout);
    assert_eq!(served.matches("\"mean_client_loss\"").count(), 3, "{served}");
    assert_eq!(served, trace_json(trained));
}

#[test]
fn serve_on_a_busy_port_exits_one_with_a_message() {
    // hold the port so the server's bind must fail
    let holder = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = holder.local_addr().unwrap().port().to_string();
    let out = ptf()
        .args(["serve", "--dataset", "ml100k", "--port", &port])
        .output()
        .expect("spawn failed");
    assert_eq!(out.status.code(), Some(1), "bind failure must be exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot bind"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "panic leaked to the user: {stderr}");
    drop(holder);
}

#[test]
fn client_connection_refused_exits_one_with_a_message() {
    // bind then drop a listener: the port is free again, so connecting
    // to it is refused
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let out = ptf()
        .args(["client", "--addr", &addr, "--dataset", "ml100k", "--client", "mf"])
        .output()
        .expect("spawn failed");
    assert_eq!(out.status.code(), Some(1), "refused connection must be exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot connect"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "panic leaked to the user: {stderr}");
}

#[test]
fn client_disconnected_mid_handshake_exits_one_without_panicking() {
    // a fake server that accepts and immediately hangs up: the client's
    // recv sees EOF before any Welcome and must report a clean error
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        drop(stream);
    });
    let out = ptf()
        .args([
            "client",
            "--addr",
            &addr,
            "--dataset",
            "ml100k",
            "--client",
            "mf",
            "--server",
            "mf",
            "--ids",
            "0-3",
        ])
        .output()
        .expect("spawn failed");
    fake.join().unwrap();
    assert_eq!(out.status.code(), Some(1), "mid-run disconnect must be exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "panic leaked to the user: {stderr}");
}
