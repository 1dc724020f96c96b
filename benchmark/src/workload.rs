//! What every workload shares: the round plan, the protocol config, the
//! `Workload` trait, and the end-to-end pass built on it.

use crate::report::{Checks, Outcome};
use crate::stats;
use ptf_core::PtfConfig;
use ptf_data::{Dataset, SyntheticConfig, TrainTestSplit};
use ptf_federated::{Engine, FederatedProtocol, RoundTrace, RunTrace};
use ptf_models::{ModelHyper, ModelKind};
use ptf_tensor::alloc;
use std::collections::BTreeMap;
use std::time::Instant;

/// Fewest timed rounds a run may gate `round_s` on.
pub const MIN_TIMED_ROUNDS: u32 = 16;

/// Rounds of the traced pass (from round 0), and how many of the first
/// are excluded from layer statistics.
pub const TRACED_ROUNDS: u32 = 8;
pub const TRACED_SKIP: u32 = 3;

/// Ranking cut-off of the quality metric.
pub const TOP_K: usize = 20;

/// The counted part of an untraced run: `warm` warm-up rounds, then
/// `fixed` timed rounds after which every output (quality, bytes, heap
/// peak) is taken. The counts never depend on the clock, so the same
/// `--seed` always reports the same outputs; rounds after them only add
/// timing samples until the `--seconds` window is full.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub warm: u32,
    pub fixed: u32,
}

impl Plan {
    pub const fn new(warm: u32, fixed: u32) -> Self {
        assert!(fixed >= MIN_TIMED_ROUNDS, "round_s is the best of at least 16 timed rounds");
        Self { warm, fixed }
    }

    pub fn total(self) -> u32 {
        self.warm + self.fixed
    }
}

/// What [`run_window`] measured on one engine.
pub struct Windowed<X> {
    /// Wall time of every timed round (warm-up excluded), in order.
    pub timed_secs: Vec<f64>,
    /// Every round that ran: warm-up, counted, and window-filling.
    pub trace: RunTrace,
    /// Taken right after the plan's counted rounds: `alloc::peak_bytes()`,
    pub peak_bytes: usize,
    /// ledger `avg_client_bytes_per_round / 1024`,
    pub client_kb_per_round: f64,
    /// and whatever the workload's own `outputs` closure read.
    pub outputs: X,
}

/// The untraced run of an in-process engine: the plan's warm-up and
/// counted rounds, the outputs, then as many more rounds as fit until
/// `seconds` of wall time have passed since the first timed round.
pub fn run_window<P: FederatedProtocol, X>(
    engine: &mut Engine<P>,
    plan: Plan,
    seconds: u32,
    mut round: impl FnMut(&mut Engine<P>) -> RoundTrace,
    outputs: impl FnOnce(&Engine<P>) -> X,
) -> Windowed<X> {
    let mut trace = RunTrace::default();
    for _ in 0..plan.warm {
        trace.push(round(engine));
    }
    let mut timed_secs = Vec::new();
    let mut timed_round = |engine: &mut Engine<P>, trace: &mut RunTrace| {
        let (done, secs) = stats::time(|| round(engine));
        timed_secs.push(secs);
        trace.push(done);
    };
    let opened = Instant::now();
    for _ in 0..plan.fixed {
        timed_round(engine, &mut trace);
    }
    let peak_bytes = alloc::peak_bytes();
    let client_kb_per_round = engine.ledger().avg_client_bytes_per_round() / 1024.0;
    let outputs = outputs(engine);
    while opened.elapsed().as_secs_f64() < f64::from(seconds) {
        timed_round(engine, &mut trace);
    }
    Windowed { timed_secs, trace, peak_bytes, client_kb_per_round, outputs }
}

/// Client-rounds a trace attempted.
pub fn attempted(trace: &RunTrace) -> u64 {
    trace.rounds.iter().map(|r| r.participants as u64).sum()
}

/// The protocol configuration of every workload: the paper's §IV-D
/// settings on one worker thread. Built from literals only, so no
/// ambient `PTF_*` variable can reach a run.
pub fn protocol_cfg(seed: u64, rounds: u32) -> PtfConfig {
    let mut cfg = PtfConfig::paper();
    cfg.seed = seed;
    cfg.threads = 1;
    cfg.rounds = rounds;
    cfg
}

pub fn hyper() -> ModelHyper {
    ModelHyper::default()
}

/// A MovieLens-shaped in-memory federation: dataset shape + model pair.
#[derive(Clone)]
pub struct MlSpec {
    pub data: SyntheticConfig,
    pub client: ModelKind,
    pub server: ModelKind,
}

impl MlSpec {
    pub fn generate(&self, seed: u64) -> Dataset {
        self.data.generate(&mut ptf_data::test_rng(seed))
    }

    pub fn split(&self, data: &Dataset, seed: u64) -> TrainTestSplit {
        TrainTestSplit::split_80_20(data, &mut ptf_data::test_rng(seed ^ 1))
    }
}

/// The untraced engine run of one workload.
pub struct Run {
    /// Wall time of every timed round (warm-up excluded), in order.
    pub timed_secs: Vec<f64>,
    /// Every round that ran: warm-up, counted, and window-filling.
    pub trace: RunTrace,
    /// Outputs, all taken right after the plan's counted rounds:
    pub ndcg20: f64,
    /// ledger `avg_client_bytes_per_round / 1024` (Table IV's quantity),
    pub client_kb_per_round: f64,
    /// and `alloc::peak_bytes()`.
    pub peak_bytes: usize,
    /// Client-rounds lost to straggler drops or undelivered dispersals.
    pub dropped: u64,
    pub checks: Checks,
    pub notes: Vec<String>,
}

pub trait Workload {
    fn name(&self) -> &'static str;

    /// The counted rounds of the untraced run.
    fn plan(&self) -> Plan;

    /// Performs one complete set-up — data generate/open, split, fleet
    /// and server build, until the first round can start — tears it down
    /// again, and returns the set-up's wall time in seconds.
    fn sample_set_up(&self) -> f64;

    /// Sets up once more (untimed) and runs untraced: the plan's rounds,
    /// then more until the timing window of `seconds` is full.
    fn run(&self, seconds: u32) -> Run;

    /// Lowest NDCG@20 a healthy run reaches after the plan's rounds, at
    /// about half of what the workload measured when the benchmark was
    /// defined; 0 where ranking quality is at chance level and only
    /// finiteness can be checked (see README, "Quality").
    fn ndcg20_floor(&self) -> f64;

    /// The traced pass: reference engine rounds `0..TRACED_ROUNDS`, the
    /// same rounds choreographed from the benchmark under spans, and the
    /// workload's own layer probes.
    fn trace(&self) -> Outcome;
}

/// Set-up samples spread over a pass. One sample is `per_sample`
/// back-to-back complete set-ups divided by their number, sized from the
/// first set-up so that a sample lasts at least [`Self::MIN_SAMPLE_S`].
struct SetupSampler {
    per_sample: u32,
    samples: Vec<f64>,
}

impl SetupSampler {
    const MIN_SAMPLE_S: f64 = 0.3;
    const MAX_PER_SAMPLE: u32 = 32;

    fn new(w: &dyn Workload) -> Self {
        // also the process's first set-up: pays the cold heap and page
        // cache, and is not a sample
        let first = w.sample_set_up();
        let per_sample =
            ((Self::MIN_SAMPLE_S / first).ceil() as u32).clamp(1, Self::MAX_PER_SAMPLE);
        Self { per_sample, samples: Vec::new() }
    }

    fn sample(&mut self, w: &dyn Workload, times: usize) {
        for _ in 0..times {
            let total: f64 = (0..self.per_sample).map(|_| w.sample_set_up()).sum();
            self.samples.push(total / f64::from(self.per_sample));
        }
    }
}

/// The `--trace 0` pass: set-up samples before and after one untraced
/// engine run, every gated timing a best-of-N over the whole pass.
pub fn end_to_end(w: &dyn Workload, seconds: u32) -> Outcome {
    let plan = w.plan();
    let mut setup = SetupSampler::new(w);
    setup.sample(w, 3);

    // everything the early samples built is dropped: the peak the run
    // reports brackets exactly one set-up plus the counted rounds
    alloc::reset_peak();
    let run = w.run(seconds);

    setup.sample(w, 2);

    let timed = &run.timed_secs;
    let attempted = attempted(&run.trace);
    // the engine folds client losses into a per-round mean, so a round
    // with a non-finite loss fails all of its client-rounds
    let diverged: u64 = run
        .trace
        .rounds
        .iter()
        .filter(|r| !(r.mean_client_loss.is_finite() && r.server_loss.is_finite()))
        .map(|r| r.participants as u64)
        .sum();

    let mut checks = run.checks;
    checks.check(
        format!(
            "{} warm-up + {} counted rounds ran, then {} to fill the window",
            plan.warm,
            plan.fixed,
            (timed.len() as u32).saturating_sub(plan.fixed)
        ),
        timed.len() as u32 >= plan.fixed
            && run.trace.num_rounds() >= plan.warm as usize + timed.len(),
    );
    let floor = w.ndcg20_floor();
    checks.check(
        format!("ndcg20 finite and not below the workload's floor {floor}"),
        run.ndcg20.is_finite() && run.ndcg20 >= floor,
    );
    checks.check("every round moved bytes", run.trace.rounds.iter().all(|r| r.bytes > 0));

    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", stats::min(&setup.samples));
    metrics.insert("round_s", stats::min(timed));
    metrics.insert("peak_heap_mb", run.peak_bytes as f64 / (1024.0 * 1024.0));
    metrics.insert("client_kb_per_round", run.client_kb_per_round);

    let mut notes = run.notes;
    notes.push(format!("ndcg20 {} (hidden server model after the counted rounds)", run.ndcg20));
    notes.push(format!(
        "round_s: best of {} timed rounds; median {:.6} s{}",
        timed.len(),
        stats::median(timed),
        // a percentile is reported only with ≥ 10 samples beyond it
        if timed.len() >= 40 {
            format!(", p75 {:.6} s", stats::percentile(timed, 0.75))
        } else {
            String::new()
        }
    ));
    notes.push(format!(
        "setup_s: best of {} samples × {} set-ups; median {:.6} s",
        setup.samples.len(),
        setup.per_sample,
        stats::median(&setup.samples)
    ));
    Outcome { metrics, attempted, failed: run.dropped + diverged, checks, notes }
}
