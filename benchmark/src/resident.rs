//! The two resident workloads: the whole fleet in memory, driven through
//! `Engine<PtfFedRec>::run_round`.
//!
//! * `ml100k-mf-resident` — the ML-100K paper preset, MF clients and MF
//!   server: the client phase does the work; tape, store and wire idle.
//! * `ml64-neumf-ngcf` — the paper's headline pairing on a 64-user
//!   federation over the ML-100K catalogue: the only workload where the
//!   autograd tape, dense matmul, Adam, spmm and the server's soft-edge
//!   graph rebuild run. Full paper scale costs ~20 s a round, so the user
//!   count is cut, not the per-client or per-item work.

use crate::choreo::{self, Fleet, Layers};
use crate::layers;
use crate::report::{Checks, Outcome};
use crate::spans::Tracer;
use crate::stats::time;
use crate::workload::{
    attempted, hyper, protocol_cfg, run_window, MlSpec, Plan, Run, Workload, TOP_K, TRACED_ROUNDS,
};
use ptf_core::PtfFedRec;
use ptf_data::{DatasetPreset, SyntheticConfig, TrainTestSplit};
use ptf_federated::{Engine, RunTrace};
use ptf_models::{evaluate_model_with_threads, ModelKind};
use ptf_tensor::alloc;
use std::path::PathBuf;

pub struct Resident {
    name: &'static str,
    spec: MlSpec,
    seed: u64,
    plan: Plan,
    ndcg20_floor: f64,
    out_dir: PathBuf,
}

impl Resident {
    pub fn ml100k_mf(seed: u64, out_dir: PathBuf) -> Self {
        Self {
            name: "ml100k-mf-resident",
            spec: ml100k_mf_spec(),
            seed,
            plan: ML100K_PLAN,
            ndcg20_floor: ML100K_NDCG20_FLOOR,
            out_dir,
        }
    }

    pub fn ml64_neumf_ngcf(seed: u64, out_dir: PathBuf) -> Self {
        let data =
            SyntheticConfig { len_sigma: 0.8, ..SyntheticConfig::new("ml64", 64, 1_682, 106.0) };
        Self {
            name: "ml64-neumf-ngcf",
            spec: MlSpec { data, client: ModelKind::NeuMf, server: ModelKind::Ngcf },
            seed,
            plan: Plan::new(2, 16),
            ndcg20_floor: 0.08,
            out_dir,
        }
    }

    fn set_up(&self, rounds: u32) -> (TrainTestSplit, Engine<PtfFedRec>) {
        let split = self.spec.split(&self.spec.generate(self.seed), self.seed);
        let engine = build_engine(&self.spec, &split, self.seed, rounds);
        (split, engine)
    }
}

/// Round plan and quality floor of the ML-100K MF/MF federation. The
/// loopback workload uses the same, so the two runs train the same rounds
/// and must agree on every deterministic output.
pub const ML100K_PLAN: Plan = Plan::new(3, 24);
pub const ML100K_NDCG20_FLOOR: f64 = 0.02;

/// The ML-100K paper preset with MF on both sides (shared with the
/// loopback workload, which runs the same federation over the wire).
pub fn ml100k_mf_spec() -> MlSpec {
    MlSpec {
        data: DatasetPreset::MovieLens100K.paper(),
        client: ModelKind::Mf,
        server: ModelKind::Mf,
    }
}

pub fn build_engine(
    spec: &MlSpec,
    split: &TrainTestSplit,
    seed: u64,
    rounds: u32,
) -> Engine<PtfFedRec> {
    let cfg = protocol_cfg(seed, rounds);
    let protocol = PtfFedRec::try_new(&split.train, spec.client, spec.server, &hyper(), cfg)
        .expect("the benchmark's config is valid");
    Engine::new(protocol)
}

/// Runs `rounds` engine rounds, timing each.
pub fn timed_rounds(engine: &mut Engine<PtfFedRec>, rounds: u32) -> (Vec<f64>, RunTrace) {
    let mut secs = Vec::with_capacity(rounds as usize);
    let mut trace = RunTrace::default();
    for _ in 0..rounds {
        let (round, s) = time(|| engine.run_round());
        secs.push(s);
        trace.push(round);
    }
    (secs, trace)
}

impl Workload for Resident {
    fn name(&self) -> &'static str {
        self.name
    }

    fn plan(&self) -> Plan {
        self.plan
    }

    fn ndcg20_floor(&self) -> f64 {
        self.ndcg20_floor
    }

    fn sample_set_up(&self) -> f64 {
        let (ready, secs) = time(|| self.set_up(1));
        drop(ready);
        secs
    }

    fn run(&self, seconds: u32) -> Run {
        let (split, mut engine) = self.set_up(self.plan.total());
        let run = run_window(&mut engine, self.plan, seconds, Engine::run_round, |engine| {
            engine.evaluate(&split.train, &split.test, TOP_K).metrics.ndcg
        });
        let mut checks = Checks::default();
        let fleet = engine.protocol().trainable().len();
        checks.check(
            format!("full participation: {fleet} clients every round"),
            run.trace.rounds.iter().all(|r| r.participants == fleet),
        );
        Run {
            timed_secs: run.timed_secs,
            trace: run.trace,
            ndcg20: run.outputs,
            client_kb_per_round: run.client_kb_per_round,
            peak_bytes: run.peak_bytes,
            dropped: 0,
            checks,
            notes: Vec::new(),
        }
    }

    fn trace(&self) -> Outcome {
        let mut t = Tracer::new();
        let mut metrics = layers::probe_all(self.spec.server, self.spec.data.num_users as u32);
        let mut checks = Checks::default();

        // set-up under spans (the same steps `set_up` runs as one block)
        let data = t.leaf("data.generate", 1, || self.spec.generate(self.seed));
        let split = t.leaf("data.split", 1, || self.spec.split(&data, self.seed));
        drop(data);

        let mut eval_secs = Vec::new();
        let mut evaluate = |model: &dyn ptf_models::Recommender| {
            let (report, s) =
                time(|| evaluate_model_with_threads(model, &split.train, &split.test, TOP_K, 1));
            eval_secs.push(s);
            report.metrics.ndcg
        };

        // two fleets from the same seed: the engine's own, untraced, as the
        // reference, and one choreographed from here under spans. Their
        // rounds alternate, so both sides of every comparison see the same
        // host conditions.
        let mut engine = build_engine(&self.spec, &split, self.seed, TRACED_ROUNDS);
        let cfg = protocol_cfg(self.seed, TRACED_ROUNDS);
        let mut fleet =
            Fleet::build(&split.train, self.spec.client, self.spec.server, &hyper(), cfg, &mut t);
        evaluate(engine.protocol().server().model());
        let (mut engine_secs, mut engine_trace) = (Vec::new(), RunTrace::default());
        let mut traced_trace = RunTrace::default();
        let mut round_allocs = 0;
        for round in 0..TRACED_ROUNDS {
            let allocs_before = alloc::total_allocs();
            let (secs, trace) = timed_rounds(&mut engine, 1);
            round_allocs = alloc::total_allocs() - allocs_before;
            engine_secs.extend(secs);
            engine_trace.rounds.extend(trace.rounds);
            traced_trace.push(fleet.round(round, &mut t));
        }
        // of the last engine round
        let client_allocs = engine.protocol().last_round_client_allocs();
        metrics.insert("tensor.allocs_per_round", round_allocs as f64);
        let engine_ndcg = evaluate(engine.protocol().server().model());
        metrics.insert("core.item_rows", engine.protocol().materialized_item_rows() as f64);
        metrics.insert("core.dense_clients", engine.protocol().dense_clients() as f64);
        drop(engine);
        let traced_ndcg = evaluate(fleet.server().model());

        choreo::check_parity(
            &mut checks,
            "traced",
            (&traced_trace, traced_ndcg),
            (&engine_trace, engine_ndcg),
        );
        checks.check(
            "traced fleet materialized the engine's rows",
            fleet.item_rows() as f64 == metrics["core.item_rows"]
                && fleet.dense_clients() as f64 == metrics["core.dense_clients"],
        );

        let layers = Layers::of(&t);
        choreo::common_layer_metrics(&layers, &t, &engine_secs, &mut metrics);
        choreo::comm_metrics(&fleet.ledger.summary(), &mut metrics);
        layers.check_coverage(&mut checks);
        metrics.insert(
            "federated.trace_overhead_pct",
            choreo::trace_overhead_pct(&layers.round_secs(), &engine_secs),
        );
        metrics.insert("data.generate_s", choreo::root_secs(&t, "data.generate"));
        metrics.insert("data.split_s", choreo::root_secs(&t, "data.split"));
        metrics.insert("core.build_clients_s", choreo::root_secs(&t, "core.build_clients"));
        metrics.insert("core.build_server_s", choreo::root_secs(&t, "core.build_server"));
        metrics.insert("metrics.ndcg20", engine_ndcg);
        metrics.insert("metrics.eval_s", crate::stats::min(&eval_secs));

        let mut sample = layers::trained_client(self.spec.client);
        layers::model_state(&mut sample, &mut metrics);

        let attempted = attempted(&traced_trace);
        metrics.insert("federated.failed_share", fleet.diverged as f64 / attempted as f64);

        let mut notes =
            choreo::write_spans(&t, &layers, &self.out_dir, self.name, self.seed, &mut checks);
        notes.push(format!(
            "allocations in engine round {}: {round_allocs}, of which {client_allocs} in the client phase",
            TRACED_ROUNDS - 1
        ));
        Outcome { metrics, attempted, failed: fleet.diverged, checks, notes }
    }
}
