//! A PTF-FedRec round choreographed from outside, under spans.
//!
//! The engine's drivers (`PtfFedRec`, `CohortFedRec`, the net round
//! server) all assemble a round from the same public halves in
//! `ptf_core::rounds`. The traced pass calls those halves itself, one
//! span per call, so a round decomposes into layers without a change
//! inside the program — and its `RunTrace` must equal the engine's byte
//! for byte, which guards this choreography against drifting from the
//! drivers it mirrors.

use crate::report::Checks;
use crate::spans::{RoundSums, Tracer, ROUND};
use crate::stats;
use crate::workload::{TRACED_ROUNDS, TRACED_SKIP};
use ptf_comm::{CommLedger, LedgerSummary, Payload};
use ptf_core::{rounds, ClientUpload, PtfClient, PtfConfig, PtfServer};
use ptf_data::Dataset;
use ptf_federated::{
    round_rng, RngStream, RoundCtx, RoundObserver, RoundScratch, RoundTrace, RunTrace,
};
use ptf_models::{ModelHyper, ModelKind};
use ptf_privacy::ScoredItem;
use std::collections::BTreeMap;
use std::path::Path;

/// The server's serial half of a round, as `rounds::server_phase` runs
/// it, with one span per public call.
pub fn server_phase(
    server: &mut PtfServer,
    cfg: &PtfConfig,
    round: u32,
    uploads: &[ClientUpload],
    ctx: &mut RoundCtx<'_>,
    t: &mut Tracer,
) -> (f32, Vec<(u32, Vec<ScoredItem>)>) {
    let items: usize = uploads.iter().map(ClientUpload::len).sum();
    t.leaf("comm.record_uploads", uploads.len() as u64, || {
        for up in uploads {
            ctx.upload(up.client, "client-predictions", Payload::Triples { count: up.len() });
        }
    });
    let mut server_rng = round_rng(cfg.seed, round, RngStream::Server);
    let server_loss = t.leaf("core.server_train", items as u64, || {
        server.train_on_uploads(uploads, cfg, &mut server_rng)
    });
    let phase = t.open("core.disperse");
    let mut disperses = Vec::with_capacity(uploads.len());
    for up in uploads {
        let mut uploaded: Vec<u32> = up.predictions.iter().map(|&(i, _)| i).collect();
        uploaded.sort_unstable();
        let mut rng = round_rng(cfg.seed, round, RngStream::Disperse(up.client));
        let items = t.leaf("core.disperse_for", cfg.alpha as u64, || {
            server.disperse_for(up.client, &uploaded, cfg, &mut rng)
        });
        ctx.disperse(up.client, "server-predictions", Payload::Triples { count: items.len() });
        disperses.push((up.client, items));
    }
    t.close(phase, uploads.len() as u64);
    (server_loss, disperses)
}

/// A resident fleet driven round by round from the benchmark — the
/// traced counterpart of `PtfFedRec`.
pub struct Fleet {
    cfg: PtfConfig,
    clients: Vec<PtfClient>,
    trainable: Vec<u32>,
    server: PtfServer,
    scratch: RoundScratch,
    last_uploads: Vec<ClientUpload>,
    pub ledger: CommLedger,
    /// Client-rounds that returned a non-finite loss.
    pub diverged: u64,
}

impl Fleet {
    pub fn build(
        train: &Dataset,
        client_kind: ModelKind,
        server_kind: ModelKind,
        hyper: &ModelHyper,
        cfg: PtfConfig,
        t: &mut Tracer,
    ) -> Self {
        let users = train.num_users();
        let clients: Vec<PtfClient> = t.leaf("core.build_clients", users as u64, || {
            (0..users as u32)
                .map(|u| rounds::build_client(train, u, client_kind, hyper, &cfg))
                .collect()
        });
        let server = t.leaf("core.build_server", 1, || {
            rounds::build_server(users, train.num_items(), server_kind, hyper, &cfg)
        });
        let trainable = clients.iter().filter(|c| c.num_positives() > 0).map(|c| c.id).collect();
        Self {
            cfg,
            clients,
            trainable,
            server,
            scratch: RoundScratch::default(),
            last_uploads: Vec::new(),
            ledger: CommLedger::new(),
            diverged: 0,
        }
    }

    pub fn server(&self) -> &PtfServer {
        &self.server
    }

    pub fn item_rows(&self) -> usize {
        self.clients.iter().map(PtfClient::item_rows).sum()
    }

    pub fn dense_clients(&self) -> usize {
        self.clients.iter().filter(|c| c.item_scope().is_full()).count()
    }

    /// One round, in the order `PtfFedRec::round_with` runs it.
    pub fn round(&mut self, round: u32, t: &mut Tracer) -> RoundTrace {
        let root = t.open(ROUND);
        t.leaf("core.recycle", self.last_uploads.len() as u64, || {
            for upload in self.last_uploads.drain(..) {
                let owner = upload.client as usize;
                self.clients[owner].recycle_upload(upload);
            }
        });
        let participants = t.leaf("federated.sample", self.trainable.len() as u64, || {
            rounds::sample_participants(&self.cfg, &self.trainable, round)
        });
        let mut ctx = RoundCtx::new(round, vec![&mut self.ledger as &mut dyn RoundObserver]);
        ctx.begin(&participants);

        let phase = t.open("core.client_phase");
        let mut uploads = Vec::with_capacity(participants.len());
        let mut losses = Vec::with_capacity(participants.len());
        for &id in &participants {
            let client = &mut self.clients[id as usize];
            let span = t.open("core.client_round");
            let (upload, loss) = rounds::client_round(client, &self.cfg, round, &mut self.scratch);
            t.close(span, upload.len() as u64);
            self.diverged += u64::from(!loss.is_finite());
            uploads.push(upload);
            losses.push(loss);
        }
        t.close(phase, participants.len() as u64);

        let (server_loss, disperses) =
            server_phase(&mut self.server, &self.cfg, round, &uploads, &mut ctx, t);
        t.leaf("core.receive", disperses.len() as u64, || {
            for (client, items) in disperses {
                self.clients[client as usize].receive_disperse(items);
            }
        });
        let trace = rounds::round_trace(round, &losses, server_loss, &ctx);
        self.last_uploads = uploads;
        t.close(root, round as u64);
        trace
    }
}

/// Byte-for-byte equality of two traces, as their JSON.
pub fn same_trace(a: &RunTrace, b: &RunTrace) -> bool {
    let json = |t: &RunTrace| serde_json::to_string(t).expect("a run trace serializes");
    json(a) == json(b)
}

/// The two checks every traced pass makes of its `side` fleet (traced,
/// shadow, wire) against the engine's reference run of the same rounds.
pub fn check_parity(
    checks: &mut Checks,
    side: &str,
    (trace, ndcg): (&RunTrace, f64),
    (engine_trace, engine_ndcg): (&RunTrace, f64),
) {
    checks.check(
        format!("{side} RunTrace equals the engine's rounds 0..{TRACED_ROUNDS} byte for byte"),
        same_trace(trace, engine_trace),
    );
    checks.check(
        format!("{side} and engine server models rank identically"),
        ndcg == engine_ndcg && ndcg.is_finite(),
    );
}

/// Writes the spans to `out_dir/trace-<workload>.json` and returns the
/// traced pass's human-readable notes.
pub fn write_spans(
    t: &Tracer,
    layers: &Layers,
    out_dir: &Path,
    workload: &str,
    seed: u64,
    checks: &mut Checks,
) -> Vec<String> {
    let path = out_dir.join(format!("trace-{workload}.json"));
    let written = t.write_json(&path, workload, seed);
    checks.check(format!("spans written to {}", path.display()), written.is_ok());
    let mut notes = vec![format!(
        "layer numbers: median over traced rounds {TRACED_SKIP}..{TRACED_ROUNDS}; {} spans",
        t.spans().len()
    )];
    notes.extend(layers.table());
    notes
}

/// Layer statistics of the analysed rounds (`TRACED_SKIP..TRACED_ROUNDS`):
/// each layer's number is the median over those rounds of its per-round
/// sum.
pub struct Layers {
    rounds: Vec<RoundSums>,
}

impl Layers {
    pub fn of(t: &Tracer) -> Self {
        let rounds = t.rounds().into_iter().filter(|r| r.round >= TRACED_SKIP as u64).collect();
        Self { rounds }
    }

    fn median_of(&self, f: impl Fn(&RoundSums) -> f64) -> f64 {
        stats::median(&self.rounds.iter().map(f).collect::<Vec<_>>())
    }

    pub fn secs(&self, name: &str) -> f64 {
        self.median_of(|r| r.secs(name))
    }

    pub fn count(&self, name: &str) -> f64 {
        self.median_of(|r| r.count(name) as f64)
    }

    pub fn calls(&self, name: &str) -> f64 {
        self.median_of(|r| r.calls(name) as f64)
    }

    /// One line per layer for the human-readable output: per-round
    /// total, self time (the span minus its children) and call count.
    pub fn table(&self) -> Vec<String> {
        let mut names: Vec<&'static str> =
            self.rounds.iter().flat_map(|r| r.layers.keys().copied()).collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|name| {
                let self_s = self.median_of(|r| r.layers.get(name).map_or(0.0, |l| l.self_secs));
                format!(
                    "span {name:<24} {:>10.6} s/round  self {self_s:>10.6} s  calls {:>6}",
                    self.secs(name),
                    self.calls(name)
                )
            })
            .collect()
    }

    /// Per-round root durations, in round order.
    pub fn round_secs(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.total_s).collect()
    }

    /// Checks that the direct child spans cover every analysed round to
    /// within 5 %, and returns the largest uncovered share.
    pub fn check_coverage(&self, checks: &mut Checks) -> f64 {
        let uncovered =
            self.rounds.iter().map(|r| (r.total_s - r.children_s) / r.total_s).fold(0.0, f64::max);
        checks.check(
            format!(
                "child spans cover each traced round to within 5 % (worst gap {:.3} %)",
                uncovered * 100.0
            ),
            uncovered < 0.05,
        );
        uncovered
    }

    /// The engine's fastest analysed round minus the fastest summed
    /// direct child spans of a traced round: what the engine spends
    /// outside the calls the trace brackets (never dropped — it is its
    /// own metric). Best-of-N on both sides, like the gated timings, so
    /// host noise during one of the two runs does not read as engine work.
    pub fn engine_remainder(&self, engine_secs: &[f64]) -> f64 {
        let engine = stats::min(&engine_secs[TRACED_SKIP as usize..TRACED_ROUNDS as usize]);
        engine - stats::min(&self.rounds.iter().map(|r| r.children_s).collect::<Vec<_>>())
    }
}

/// The layer metrics every choreographed workload reports the same way.
pub fn common_layer_metrics(
    layers: &Layers,
    t: &Tracer,
    engine_secs: &[f64],
    metrics: &mut BTreeMap<&'static str, f64>,
) {
    let analysed = &engine_secs[TRACED_SKIP as usize..TRACED_ROUNDS as usize];
    metrics.insert("federated.round_median_s", stats::median(analysed));
    metrics.insert("federated.round_samples", analysed.len() as f64);
    metrics.insert("federated.engine_other_s", layers.engine_remainder(engine_secs));
    metrics.insert("federated.sample_us", layers.secs("federated.sample") * 1e6);
    metrics.insert("core.client_round_s", layers.secs("core.client_round"));
    metrics.insert("core.upload_items_per_round", layers.count("core.client_round"));
    metrics.insert("core.server_train_s", layers.secs("core.server_train"));
    metrics.insert("core.disperse_s", layers.secs("core.disperse"));
    metrics.insert("core.receive_s", layers.secs("core.receive"));

    let client_us: Vec<f64> = analysed_spans(t, "core.client_round").map(|s| s * 1e6).collect();
    metrics.insert("core.client_round_p50_us", stats::median(&client_us));
    metrics.insert("core.client_round_p99_us", stats::percentile(&client_us, 0.99));
}

/// Durations of every span called `name` inside an analysed round.
fn analysed_spans<'a>(t: &'a Tracer, name: &'a str) -> impl Iterator<Item = f64> + 'a {
    let spans = t.spans();
    let analysed_roots: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == ROUND && s.count >= TRACED_SKIP as u64)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    spans
        .iter()
        .filter(move |s| {
            s.name == name && analysed_roots.iter().any(|&(a, b)| s.start_ns >= a && s.end_ns <= b)
        })
        .map(|s| s.secs())
}

/// `(traced / engine − 1) × 100` over the analysed rounds, each side by
/// its fastest round — the same best-of-N statistic the gated timings
/// use, so host noise on one side does not read as tracing cost.
pub fn trace_overhead_pct(traced_secs: &[f64], engine_secs: &[f64]) -> f64 {
    let engine = stats::min(&engine_secs[TRACED_SKIP as usize..TRACED_ROUNDS as usize]);
    (stats::min(traced_secs) / engine - 1.0) * 100.0
}

/// Sum over root spans (outside any round) called `name`, in seconds.
pub fn root_secs(t: &Tracer, name: &str) -> f64 {
    t.spans().iter().filter(|s| s.parent == 0 && s.name == name).map(|s| s.secs()).sum()
}

/// Ledger bytes per round, split by direction.
pub fn comm_metrics(s: &LedgerSummary, metrics: &mut BTreeMap<&'static str, f64>) {
    let rounds = f64::from(s.rounds.max(1));
    metrics.insert("comm.bytes_up_per_round", s.uploads_bytes as f64 / rounds);
    metrics.insert("comm.bytes_down_per_round", s.downloads_bytes as f64 / rounds);
}
