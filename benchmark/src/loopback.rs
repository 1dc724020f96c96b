//! `ml100k-mf-loopback`: the resident ML-100K MF/MF federation — same
//! data, config and seed — through `ptf_net::run_server` and **one**
//! `run_shard` over `loopback_hub()`.
//!
//! One shard is one compute thread, like-for-like with the resident
//! workload; its 943-frame bursts into the 256-frame peer queue keep the
//! backpressure path hot. This is the only workload where the wire codec,
//! the transport threads and the round server run, and its `RunTrace`
//! must equal the in-process engine's: `round_s` here minus `round_s`
//! there is the network cost.
//!
//! `run_server` runs all rounds in one call, so round boundaries come
//! from a benchmark-owned tap wrapped round the shard's `ClientConn`: a
//! round begins when its first `Announce` reaches the shard and ends when
//! the next round's does (`Finished` for the last). In the traced pass
//! the same tap records one span per frame sent or received, and the
//! stretch between an `Announce` arriving and its `Upload` leaving as the
//! client's local round.

use crate::choreo::{self, Layers};
use crate::layers;
use crate::report::{Checks, Outcome};
use crate::resident::{
    build_engine, ml100k_mf_spec, timed_rounds, ML100K_NDCG20_FLOOR, ML100K_PLAN,
};
use crate::spans::{Tracer, ROUND};
use crate::stats::{self, time};
use crate::workload::{
    attempted, hyper, protocol_cfg, MlSpec, Plan, Run, Workload, TOP_K, TRACED_ROUNDS, TRACED_SKIP,
};
use ptf_core::{PtfConfig, PtfServer};
use ptf_data::Dataset;
use ptf_federated::Participation;
use ptf_models::evaluate_model_with_threads;
use ptf_net::transport::{FrameRead, FrameWrite};
use ptf_net::wire::Frame;
use ptf_net::{
    loopback_hub, run_server, run_shard, ClientConn, NetError, NetRunReport, NetServerOptions,
    ShardOptions,
};
use ptf_tensor::alloc;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Generous: a healthy run never waits on either; a wedged one must
/// still end well inside the benchmark's own time limit.
const DEADLINE: Duration = Duration::from_secs(60);

pub struct Loopback {
    spec: MlSpec,
    seed: u64,
    out_dir: PathBuf,
}

/// What the tap saw on the shard's connection.
struct TapLog {
    /// When the first `Announce` of round `i` reached the shard; one more
    /// entry, for `Finished`, once the run is over.
    boundaries: Vec<Instant>,
    /// `Some` in the traced pass: per-frame spans under per-round roots.
    tracer: Option<Tracer>,
    open_round: Option<u32>,
    /// Set when an `Announce` arrives, taken when the `Upload` leaves.
    announce_at_ns: Option<u64>,
}

impl TapLog {
    fn new(tracer: Option<Tracer>) -> Self {
        Self { boundaries: Vec::new(), tracer, open_round: None, announce_at_ns: None }
    }

    /// Wall time of every round: from its boundary to the next.
    fn round_secs(&self) -> Vec<f64> {
        self.boundaries.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect()
    }
}

fn encoded_len(frame: &Frame) -> u64 {
    frame.to_bytes().len() as u64
}

struct Tap {
    conn: Arc<Mutex<ClientConn>>,
    log: Arc<Mutex<TapLog>>,
}

impl Tap {
    fn conn(&self) -> std::sync::MutexGuard<'_, ClientConn> {
        self.conn.lock().expect("the shard thread is the connection's only user")
    }

    fn log(&self) -> std::sync::MutexGuard<'_, TapLog> {
        self.log.lock().expect("the tap never panics while logging")
    }
}

impl FrameRead for Tap {
    fn read(&mut self) -> Result<Option<Frame>, NetError> {
        let start_ns = self.log().tracer.as_ref().map(Tracer::now_ns);
        let frame = self.conn().recv()?;
        let now = Instant::now();
        let mut log = self.log();
        let log = &mut *log;
        if let (Some(t), Some(start_ns), Some(frame)) = (&mut log.tracer, start_ns, &frame) {
            t.record("net.recv", start_ns, encoded_len(frame));
        }
        // a round ends where the next one's first `Announce` (or the run's
        // `Finished`) arrives
        let opens_round = match frame {
            Some(Frame::Announce { round, .. }) if round as usize == log.boundaries.len() => {
                Some(true)
            }
            Some(Frame::Finished { .. }) => Some(false),
            _ => None,
        };
        if let Some(t) = &mut log.tracer {
            if let Some(opens) = opens_round {
                if let Some(id) = log.open_round.take() {
                    t.close(id, log.boundaries.len() as u64 - 1);
                }
                if opens {
                    log.open_round = Some(t.open(ROUND));
                }
            }
            if matches!(frame, Some(Frame::Announce { .. })) {
                log.announce_at_ns = Some(t.now_ns());
            }
        }
        if opens_round.is_some() {
            log.boundaries.push(now);
        }
        Ok(frame)
    }
}

impl FrameWrite for Tap {
    fn write(&mut self, frame: &Frame) -> Result<(), NetError> {
        let start_ns = {
            let mut log = self.log();
            let log = &mut *log;
            log.tracer.as_mut().map(|t| {
                if let (Some(at), Frame::Upload { triples, .. }) =
                    (log.announce_at_ns.take(), frame)
                {
                    t.record("core.client_round", at, triples.len() as u64);
                }
                t.now_ns()
            })
        };
        let sent = self.conn().send(frame);
        if let (Some(t), Some(start_ns)) = (&mut self.log().tracer, start_ns) {
            t.record("net.send", start_ns, encoded_len(frame));
        }
        sent
    }
}

/// One complete networked run.
struct NetRun {
    report: NetRunReport,
    server: PtfServer,
    log: TapLog,
}

fn run_net(train: &Dataset, spec: &MlSpec, cfg: &PtfConfig, tracer: Option<Tracer>) -> NetRun {
    let opts = NetServerOptions {
        cfg: cfg.clone(),
        client_kind: spec.client,
        server_kind: spec.server,
        hyper: hyper(),
        round_deadline: DEADLINE,
        gather_timeout: DEADLINE,
        verbose: false,
    };
    let shard_opts = ShardOptions {
        cfg: cfg.clone(),
        client_kind: spec.client,
        server_kind: spec.server,
        hyper: hyper(),
        ids: (0..train.num_users() as u32).collect(),
        straggle: None,
    };
    let log = Arc::new(Mutex::new(TapLog::new(tracer)));
    let (hub, events) = loopback_hub();
    let (served, hosted) = std::thread::scope(|scope| {
        let shard = scope.spawn(|| {
            let conn = Arc::new(Mutex::new(hub.connect()));
            let mut tapped = ClientConn::new(
                Tap { conn: conn.clone(), log: log.clone() },
                Tap { conn, log: log.clone() },
            );
            run_shard(train, &mut tapped, &shard_opts)
        });
        let served = run_server(train, &events, &opts);
        // closing the queue ends the hub's pump threads, so a shard whose
        // server failed sees a closed connection instead of waiting
        drop(events);
        (served, shard.join().expect("the shard thread does not panic"))
    });
    let (report, server) = served.unwrap_or_else(|e| panic!("loopback server: {e}"));
    let summary = hosted.unwrap_or_else(|e| panic!("loopback shard: {e}"));
    assert_eq!(summary.rounds_finished, cfg.rounds, "the shard saw the run finish");
    let log = Arc::into_inner(log).expect("the shard thread has ended").into_inner();
    NetRun { report, server, log: log.expect("the tap never panics while logging") }
}

impl Loopback {
    pub fn new(seed: u64, out_dir: PathBuf) -> Self {
        Self { spec: ml100k_mf_spec(), seed, out_dir }
    }
}

impl Workload for Loopback {
    fn name(&self) -> &'static str {
        "ml100k-mf-loopback"
    }

    fn plan(&self) -> Plan {
        ML100K_PLAN
    }

    fn ndcg20_floor(&self) -> f64 {
        ML100K_NDCG20_FLOOR
    }

    /// Data generate + split + hub + shard build + handshake, until the
    /// first `Announce` reaches the shard — measured on a fresh one-round
    /// mini-run whose single round trains one client, so that tearing the
    /// run down costs next to nothing.
    fn sample_set_up(&self) -> f64 {
        let start = Instant::now();
        let split = self.spec.split(&self.spec.generate(self.seed), self.seed);
        let mut cfg = protocol_cfg(self.seed, 1);
        cfg.participation = Participation { fraction: 0.0, min_clients: 1 };
        let run = run_net(&split.train, &self.spec, &cfg, None);
        (run.log.boundaries[0] - start).as_secs_f64()
    }

    /// `run_server` runs a fixed number of rounds per call, so the run has
    /// two parts: the plan's counted rounds, whose outputs are reported,
    /// and a second networked run sized from the first one's round times
    /// to fill what is left of the timing window.
    fn run(&self, seconds: u32) -> Run {
        let plan = self.plan();
        let warm = plan.warm as usize;
        let split = self.spec.split(&self.spec.generate(self.seed), self.seed);
        let counted =
            run_net(&split.train, &self.spec, &protocol_cfg(self.seed, plan.total()), None);
        let peak_bytes = alloc::peak_bytes();
        let ndcg20 = evaluate_model_with_threads(
            counted.server.model(),
            &split.train,
            &split.test,
            TOP_K,
            1,
        )
        .metrics
        .ndcg;
        let mut timed_secs = counted.log.round_secs().split_off(warm);
        let mut trace = counted.report.trace.clone();
        let mut stragglers = counted.report.stragglers.len();

        // the in-process engine over the warm-up rounds is the reference
        // the wire run's first rounds must reproduce byte for byte
        let mut engine = build_engine(&self.spec, &split, self.seed, plan.total());
        let (_, reference) = timed_rounds(&mut engine, plan.warm);
        drop(engine);
        let mut prefix = counted.report.trace;
        prefix.rounds.truncate(warm);
        let mut checks = Checks::default();
        checks.check(
            format!("wire RunTrace equals the in-process engine's rounds 0..{warm}"),
            choreo::same_trace(&prefix, &reference),
        );
        checks.check("one connection", counted.report.connections == 1);

        let left = f64::from(seconds) - timed_secs.iter().sum::<f64>();
        let fit = (left / stats::median(&timed_secs)).floor() as i64 - warm as i64;
        if fit >= 1 {
            let rounds = plan.warm + fit as u32;
            let filler = run_net(&split.train, &self.spec, &protocol_cfg(self.seed, rounds), None);
            timed_secs.extend(filler.log.round_secs().split_off(warm));
            trace.rounds.extend(filler.report.trace.rounds);
            stragglers += filler.report.stragglers.len();
        }
        checks.check("no straggler drops", stragglers == 0);
        Run {
            timed_secs,
            trace,
            ndcg20,
            client_kb_per_round: counted.report.communication.avg_client_bytes_per_round / 1024.0,
            peak_bytes,
            dropped: stragglers as u64,
            checks,
            notes: Vec::new(),
        }
    }

    fn trace(&self) -> Outcome {
        let mut metrics = layers::probe_all(self.spec.server, self.spec.data.num_users as u32);
        let mut checks = Checks::default();
        let split = self.spec.split(&self.spec.generate(self.seed), self.seed);
        let mut eval_secs = Vec::new();
        let mut evaluate = |model: &dyn ptf_models::Recommender| {
            let (report, s) =
                time(|| evaluate_model_with_threads(model, &split.train, &split.test, TOP_K, 1));
            eval_secs.push(s);
            report.metrics.ndcg
        };

        // reference: the in-process engine's rounds, untraced
        let mut engine = build_engine(&self.spec, &split, self.seed, TRACED_ROUNDS);
        let (engine_secs, engine_trace) = timed_rounds(&mut engine, TRACED_ROUNDS);
        let engine_ndcg = evaluate(engine.protocol().server().model());
        metrics.insert("core.item_rows", engine.protocol().materialized_item_rows() as f64);
        metrics.insert("core.dense_clients", engine.protocol().dense_clients() as f64);
        drop(engine);

        // the same rounds over the wire, the tap recording spans
        let cfg = protocol_cfg(self.seed, TRACED_ROUNDS);
        let allocs_before = alloc::total_allocs();
        let run = run_net(&split.train, &self.spec, &cfg, Some(Tracer::new()));
        let run_allocs = alloc::total_allocs() - allocs_before;
        let wire_ndcg = evaluate(run.server.model());
        let wire_secs = run.log.round_secs();
        let t = run.log.tracer.expect("the traced pass taps with a tracer");

        choreo::check_parity(
            &mut checks,
            "wire",
            (&run.report.trace, wire_ndcg),
            (&engine_trace, engine_ndcg),
        );
        checks.check("no straggler drops", run.report.stragglers.is_empty());

        let layers = Layers::of(&t);
        // on this workload "the engine" is the round server plus the
        // shard: its rounds are the tap's, and what the shard thread spends
        // outside the tapped calls is the remainder
        choreo::common_layer_metrics(&layers, &t, &wire_secs, &mut metrics);
        choreo::comm_metrics(&run.report.communication, &mut metrics);
        // whole-run average: the wire path has no per-round bracket
        metrics.insert("tensor.allocs_per_round", run_allocs as f64 / f64::from(TRACED_ROUNDS));
        metrics.insert("federated.trace_overhead_pct", 0.0);
        metrics.insert("net.frames_per_round", layers.calls("net.send") + layers.calls("net.recv"));
        metrics.insert(
            "net.wire_kb_per_round",
            (layers.count("net.send") + layers.count("net.recv")) / 1024.0,
        );
        let overhead: Vec<f64> = (TRACED_SKIP..TRACED_ROUNDS)
            .map(|r| wire_secs[r as usize] - engine_secs[r as usize])
            .collect();
        metrics.insert("net.overhead_s", stats::median(&overhead));
        // first hello leaving → first announce arriving
        let first_send = t.spans().iter().find(|s| s.name == "net.send").map(|s| s.start_ns);
        let first_round = t.spans().iter().find(|s| s.name == ROUND).map(|s| s.start_ns);
        if let (Some(a), Some(b)) = (first_send, first_round) {
            metrics.insert("net.handshake_s", (b - a) as f64 * 1e-9);
        }
        metrics.insert("metrics.ndcg20", wire_ndcg);
        metrics.insert("metrics.eval_s", stats::min(&eval_secs));

        let mut sample = layers::trained_client(self.spec.client);
        layers::model_state(&mut sample, &mut metrics);

        let attempted = attempted(&run.report.trace);
        let failed = run.report.stragglers.len() as u64;
        metrics.insert("federated.failed_share", failed as f64 / attempted as f64);

        // the spans are the shard thread's
        let notes =
            choreo::write_spans(&t, &layers, &self.out_dir, self.name(), self.seed, &mut checks);
        Outcome { metrics, attempted, failed, checks, notes }
    }
}
