//! The protocol-agnostic federation engine.
//!
//! One [`FederatedProtocol`] trait covers PTF-FedRec *and* every
//! parameter-transmission baseline; an [`Engine`] owns a protocol plus an
//! observer stack ([`RoundObserver`]), drives rounds through it and keeps
//! their trace. The protocol reports its wire traffic through the
//! per-round [`RoundCtx`] instead of owning a ledger, so
//! run/evaluate/report plumbing is written once — the CLI, examples, and
//! bench harness all drive a `Box<dyn FederatedProtocol>` through the
//! same code path.

use crate::observer::RoundObserver;
use crate::sim::{RoundTrace, RunTrace};
use ptf_comm::{CommLedger, Endpoint, Message, Payload};
use ptf_data::Dataset;
use ptf_metrics::RankingReport;
use ptf_models::{evaluate_model_with_threads, Recommender};

/// A runnable federated recommendation protocol.
///
/// Implementations own their model state, client fleet, and RNG; they do
/// *not* own a ledger or observers — all wire traffic is reported through
/// the [`RoundCtx`] so any sink can be plugged in from outside.
pub trait FederatedProtocol {
    /// Name as printed in the paper's tables.
    fn name(&self) -> &'static str;

    /// Configured number of global rounds.
    fn configured_rounds(&self) -> u32;

    /// Executes one global round, reporting traffic and hooks via `ctx`.
    fn run_round(&mut self, ctx: &mut RoundCtx<'_>) -> RoundTrace;

    /// Executes one round over an *externally chosen* participant set
    /// instead of sampling one — the hook replay harnesses use, e.g. to
    /// build the reference run in which a dropped straggler was never
    /// sampled. (The networked round server does not use it: its deadline
    /// policy lives in its client host.) Protocols that cannot honor an
    /// external set return `None` (the default) and the round does not
    /// run.
    fn run_round_external(
        &mut self,
        _ctx: &mut RoundCtx<'_>,
        _participants: &[u32],
    ) -> Option<RoundTrace> {
        None
    }

    /// A scoring view of the trained global model, for evaluation.
    fn recommender(&self) -> &dyn Recommender;

    /// Worker threads the protocol resolved from its config's `threads`
    /// knob (`0` = every hardware thread). [`Engine::evaluate`] reuses this so
    /// one `threads` knob caps *all* CPU use of a run, evaluation
    /// included.
    fn threads(&self) -> usize {
        0
    }
}

impl<P: FederatedProtocol + ?Sized> FederatedProtocol for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn configured_rounds(&self) -> u32 {
        (**self).configured_rounds()
    }

    fn run_round(&mut self, ctx: &mut RoundCtx<'_>) -> RoundTrace {
        (**self).run_round(ctx)
    }

    fn run_round_external(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        participants: &[u32],
    ) -> Option<RoundTrace> {
        (**self).run_round_external(ctx, participants)
    }

    fn recommender(&self) -> &dyn Recommender {
        (**self).recommender()
    }

    fn threads(&self) -> usize {
        (**self).threads()
    }
}

/// The per-round channel between a protocol and its observers.
///
/// Protocols call [`RoundCtx::begin`] once after sampling participants,
/// then [`RoundCtx::upload`]/[`RoundCtx::disperse`] for every message they
/// put on the wire; [`RoundCtx::bytes`] is the running byte total of the
/// round (both directions), which is what a [`RoundTrace`] should report.
pub struct RoundCtx<'a> {
    round: u32,
    observers: Vec<&'a mut dyn RoundObserver>,
    bytes: u64,
}

impl<'a> RoundCtx<'a> {
    pub fn new(round: u32, observers: Vec<&'a mut dyn RoundObserver>) -> Self {
        Self { round, observers, bytes: 0 }
    }

    /// A context with no observers — for protocols that run an inner
    /// protocol whose plaintext traffic must *not* be observed (FedMF
    /// re-reports FCF's exchange as ciphertext messages) and for tests
    /// that drive one protocol phase by hand.
    pub fn detached(round: u32) -> Self {
        Self::new(round, Vec::new())
    }

    /// The global round index messages of this context are tagged with.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Announces the sampled participant set to all observers.
    pub fn begin(&mut self, participants: &[u32]) {
        let round = self.round;
        for o in &mut self.observers {
            o.on_round_start(round, participants);
        }
    }

    /// Reports a client → server message.
    pub fn upload(&mut self, client: u32, label: &'static str, payload: Payload) {
        self.send(Message {
            from: Endpoint::Client(client),
            to: Endpoint::Server,
            round: self.round,
            label,
            payload,
        });
    }

    /// Reports a server → client message.
    pub fn disperse(&mut self, client: u32, label: &'static str, payload: Payload) {
        self.send(Message {
            from: Endpoint::Server,
            to: Endpoint::Client(client),
            round: self.round,
            label,
            payload,
        });
    }

    /// Total bytes reported so far this round (both directions).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    fn send(&mut self, msg: Message) {
        self.bytes += msg.bytes() as u64;
        let up = matches!(msg.from, Endpoint::Client(_));
        for o in &mut self.observers {
            if up {
                o.on_upload(&msg);
            } else {
                o.on_disperse(&msg);
            }
        }
    }

    fn finish(&mut self, trace: &RoundTrace) {
        for o in &mut self.observers {
            o.on_round_end(trace);
        }
    }
}

/// Drives a [`FederatedProtocol`] with a pluggable observer stack, and
/// keeps the run: every [`RoundTrace`] it ran, in round order. That trace
/// is the one record of where the run stands — the next round's index is
/// its length, and no protocol keeps a round counter of its own.
///
/// The engine always carries a [`CommLedger`] (as its first observer) so
/// every run has Table IV style accounting for free; further observers —
/// convergence probes, transport shims — are attached with
/// [`Engine::with_observer`].
pub struct Engine<P> {
    protocol: P,
    ledger: CommLedger,
    observers: Vec<Box<dyn RoundObserver>>,
    trace: RunTrace,
}

impl<P: FederatedProtocol> Engine<P> {
    /// Wraps a fresh protocol: the run starts at round 0.
    pub fn new(protocol: P) -> Self {
        Self::resume(protocol, CommLedger::new(), RunTrace::default())
    }

    /// Wraps a protocol restored from a checkpoint together with the
    /// ledger and trace of the rounds it already ran: the engine continues
    /// at round `trace.num_rounds()`, so a resumed run's accounting and
    /// trace are indistinguishable from one that never stopped.
    pub fn resume(protocol: P, ledger: CommLedger, trace: RunTrace) -> Self {
        Self { protocol, ledger, observers: Vec::new(), trace }
    }

    /// Attaches an observer (builder style).
    pub fn with_observer(mut self, observer: impl RoundObserver + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.protocol
    }

    /// Ends the run and hands the protocol back (its trained model, its
    /// host state).
    pub fn into_protocol(self) -> P {
        self.protocol
    }

    /// The engine's communication ledger (recording since round 0).
    pub fn ledger(&self) -> &CommLedger {
        &self.ledger
    }

    /// Every round run so far, from round 0 — across a resume too.
    pub fn trace(&self) -> &RunTrace {
        &self.trace
    }

    pub fn rounds_completed(&self) -> u32 {
        self.trace.num_rounds() as u32
    }

    /// Executes one global round through the observer stack.
    pub fn run_round(&mut self) -> RoundTrace {
        self.step(|protocol, ctx| Some(protocol.run_round(ctx))).expect("a sampled round runs")
    }

    /// Executes one round over an externally chosen participant set (see
    /// [`FederatedProtocol::run_round_external`]) through the same
    /// observer stack as [`Engine::run_round`]. Returns `None` — without
    /// consuming a round — if the protocol does not support external
    /// participant sets.
    pub fn run_round_external(&mut self, participants: &[u32]) -> Option<RoundTrace> {
        self.step(|protocol, ctx| protocol.run_round_external(ctx, participants))
    }

    /// Runs `round` as the next round and appends its trace.
    fn step(
        &mut self,
        round: impl FnOnce(&mut P, &mut RoundCtx<'_>) -> Option<RoundTrace>,
    ) -> Option<RoundTrace> {
        let mut observers: Vec<&mut dyn RoundObserver> =
            Vec::with_capacity(1 + self.observers.len());
        observers.push(&mut self.ledger);
        for o in &mut self.observers {
            observers.push(o.as_mut());
        }
        let mut ctx = RoundCtx::new(self.trace.num_rounds() as u32, observers);
        let trace = round(&mut self.protocol, &mut ctx)?;
        ctx.finish(&trace);
        self.trace.push(trace);
        Some(trace)
    }

    /// Runs the remaining configured rounds and returns the whole run's
    /// trace.
    pub fn run(&mut self) -> RunTrace {
        while self.rounds_completed() < self.protocol.configured_rounds() {
            self.run_round();
        }
        self.trace.clone()
    }

    /// Evaluates the protocol's trained model with the paper's ranking
    /// protocol (rank all non-train items per test user), on the
    /// protocol's configured worker count.
    pub fn evaluate(&self, train: &Dataset, test: &Dataset, k: usize) -> RankingReport {
        evaluate_model_with_threads(
            self.protocol.recommender(),
            train,
            test,
            k,
            self.protocol.threads(),
        )
    }
}

impl<P: FederatedProtocol> std::fmt::Debug for Engine<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("protocol", &self.protocol.name())
            .field("rounds_completed", &self.rounds_completed())
            .field("observers", &self.observers.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic toy protocol: every round, each participant
    /// uploads one triple and gets two scored items back — clients 0, 1
    /// and 2 unless a round is handed its own set, which it honors when
    /// `external` is set.
    struct MockProtocol {
        rounds: u32,
        external: bool,
        model: ConstModel,
    }

    impl MockProtocol {
        fn round_over(&mut self, ctx: &mut RoundCtx<'_>, participants: &[u32]) -> RoundTrace {
            ctx.begin(participants);
            for &c in participants {
                ctx.upload(c, "mock-up", Payload::Triples { count: 1 });
                ctx.disperse(c, "mock-down", Payload::ScoredItems { count: 2 });
            }
            let losses = vec![0.5; participants.len()];
            RoundTrace::new(ctx.round(), &losses, 0.0, ctx.bytes())
        }
    }

    struct ConstModel {
        score: f32,
    }

    impl Recommender for ConstModel {
        fn name(&self) -> &'static str {
            "Const"
        }
        fn num_users(&self) -> usize {
            3
        }
        fn num_items(&self) -> usize {
            4
        }
        fn num_params(&self) -> usize {
            1
        }
        fn logits_into(&self, _user: u32, items: &[u32], out: &mut Vec<f32>) {
            out.clear();
            out.extend(items.iter().map(|&i| self.score - i as f32 * 0.01));
        }
        fn train_batch(&mut self, _batch: &[(u32, u32, f32)]) -> f32 {
            0.0
        }
    }

    impl FederatedProtocol for MockProtocol {
        fn name(&self) -> &'static str {
            "Mock"
        }

        fn configured_rounds(&self) -> u32 {
            self.rounds
        }

        fn run_round(&mut self, ctx: &mut RoundCtx<'_>) -> RoundTrace {
            self.round_over(ctx, &[0, 1, 2])
        }

        fn run_round_external(
            &mut self,
            ctx: &mut RoundCtx<'_>,
            participants: &[u32],
        ) -> Option<RoundTrace> {
            self.external.then(|| self.round_over(ctx, participants))
        }

        fn recommender(&self) -> &dyn Recommender {
            &self.model
        }
    }

    fn mock(rounds: u32) -> MockProtocol {
        MockProtocol { rounds, external: true, model: ConstModel { score: 0.2 } }
    }

    #[test]
    fn engine_runs_configured_rounds_and_ledgers_traffic() {
        let mut engine = Engine::new(mock(4));
        let trace = engine.run();
        assert_eq!(trace.num_rounds(), 4);
        assert_eq!(engine.rounds_completed(), 4);
        // 3 clients × (12B triple + 16B scored items) per round
        assert_eq!(trace.rounds[0].bytes, 3 * (12 + 16));
        assert_eq!(engine.ledger().summary().total_bytes, trace.total_bytes());
        assert_eq!(engine.ledger().summary().rounds, 4);
        // run() again runs nothing once the budget is spent
        assert_eq!(engine.run(), trace);
    }

    #[test]
    fn ledger_counts_message_free_trailing_rounds() {
        // regression: a protocol whose trailing rounds sample nobody (and
        // so send nothing) must still advance the ledger's round count —
        // it used to be derived from message tags alone, inflating
        // per-round traffic averages
        struct QuietTail {
            model: ConstModel,
        }
        impl FederatedProtocol for QuietTail {
            fn name(&self) -> &'static str {
                "QuietTail"
            }
            fn configured_rounds(&self) -> u32 {
                4
            }
            fn run_round(&mut self, ctx: &mut RoundCtx<'_>) -> RoundTrace {
                if ctx.round() == 0 {
                    ctx.begin(&[0]);
                    ctx.upload(0, "up", Payload::Triples { count: 1 });
                } else {
                    ctx.begin(&[]); // zero sampled participants
                }
                RoundTrace::new(ctx.round(), &[], 0.0, ctx.bytes())
            }
            fn recommender(&self) -> &dyn Recommender {
                &self.model
            }
        }
        let mut engine = Engine::new(QuietTail { model: ConstModel { score: 0.5 } });
        engine.run();
        let s = engine.ledger().summary();
        assert_eq!(s.rounds, 4, "message-free rounds must count");
        assert_eq!(s.messages, 1);
    }

    #[test]
    fn manual_rounds_then_run_completes_the_budget() {
        let mut engine = Engine::new(mock(5));
        let first = [engine.run_round(), engine.run_round()];
        let whole = engine.run();
        assert_eq!(whole.num_rounds(), 5);
        assert_eq!(whole.rounds[..2], first);
        assert_eq!(engine.rounds_completed(), 5);
    }

    #[test]
    fn observers_see_every_hook() {
        #[derive(Default)]
        struct Counter {
            starts: std::rc::Rc<std::cell::RefCell<(u32, u32, u32, u32)>>,
        }
        impl RoundObserver for Counter {
            fn on_round_start(&mut self, _r: u32, _p: &[u32]) {
                self.starts.borrow_mut().0 += 1;
            }
            fn on_upload(&mut self, _m: &Message) {
                self.starts.borrow_mut().1 += 1;
            }
            fn on_disperse(&mut self, _m: &Message) {
                self.starts.borrow_mut().2 += 1;
            }
            fn on_round_end(&mut self, _t: &RoundTrace) {
                self.starts.borrow_mut().3 += 1;
            }
        }
        let counter = Counter::default();
        let counts = counter.starts.clone();
        let mut engine = Engine::new(mock(2)).with_observer(counter);
        engine.run();
        assert_eq!(*counts.borrow(), (2, 6, 6, 2));
    }

    /// The engine's trace holds every round it ran — sampled, external
    /// and from `run` — numbered by round, each as the call returned it,
    /// and nothing for an external round the protocol refuses.
    #[test]
    fn the_engine_trace_covers_every_kind_of_round() {
        let mut engine = Engine::new(mock(5));
        let mut returned = vec![engine.run_round()];
        returned.extend(engine.run_round_external(&[7]));
        returned.extend(engine.run_round_external(&[]));
        assert_eq!(engine.trace().rounds, returned);
        let whole = engine.run();
        assert_eq!(&whole, engine.trace());
        assert_eq!(whole.rounds[..3], returned);
        let rounds: Vec<u32> = whole.rounds.iter().map(|r| r.round).collect();
        assert_eq!(rounds, [0, 1, 2, 3, 4]);
        let participants: Vec<usize> = whole.rounds.iter().map(|r| r.participants).collect();
        assert_eq!(participants, [3, 1, 0, 3, 3]);
        assert_eq!(whole.total_bytes(), engine.ledger().summary().total_bytes);
        assert_eq!(engine.rounds_completed(), 5);

        // an external set the protocol cannot honor consumes no round
        let mut quiet = Engine::new(MockProtocol { external: false, ..mock(2) });
        assert_eq!(quiet.run_round_external(&[0]), None);
        assert_eq!(quiet.rounds_completed(), 0);
        assert_eq!(quiet.run().num_rounds(), 2);
    }

    /// `ptf train --json` prints the engine's trace: a full `RunTrace`
    /// object, one round object per round.
    #[test]
    fn the_engine_trace_serializes_as_a_full_run_trace() {
        let mut engine = Engine::new(mock(2));
        engine.run();
        let json = serde_json::to_string(engine.trace()).expect("RunTrace serializes");
        for field in ["\"rounds\"", "\"mean_client_loss\"", "\"server_loss\"", "\"bytes\":84"] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        let back: RunTrace = serde_json::from_str(&json).expect("RunTrace parses");
        assert_eq!(&back, engine.trace());
    }

    /// A resumed engine continues the trace it was handed: its next round
    /// is numbered after it, and the whole run equals one never stopped.
    #[test]
    fn a_resumed_engine_continues_its_trace() {
        let mut whole = Engine::new(mock(4));
        whole.run();
        let mut first = Engine::new(mock(4));
        first.run_round();
        first.run_round();
        let ledger = CommLedger::restore(&first.ledger().snapshot());
        let mut resumed = Engine::resume(mock(4), ledger, first.trace().clone());
        assert_eq!(resumed.rounds_completed(), 2);
        assert_eq!(resumed.run_round().round, 2);
        assert_eq!(resumed.run(), *whole.trace());
        assert_eq!(resumed.ledger().summary(), whole.ledger().summary());
    }

    #[test]
    fn detached_ctx_observes_nothing_but_counts_bytes() {
        let mut ctx = RoundCtx::detached(7);
        assert_eq!(ctx.round(), 7);
        ctx.begin(&[0]);
        ctx.upload(0, "up", Payload::Triples { count: 2 });
        ctx.disperse(0, "down", Payload::Vector { len: 4 });
        assert_eq!(ctx.bytes(), 24 + 16);
    }
}
