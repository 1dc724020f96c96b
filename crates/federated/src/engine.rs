//! The protocol-agnostic federation engine.
//!
//! One [`FederatedProtocol`] trait covers PTF-FedRec *and* every
//! parameter-transmission baseline; an [`Engine`] owns a protocol plus an
//! observer stack ([`RoundObserver`]) and drives rounds through it. The
//! protocol reports its wire traffic through the per-round [`RoundCtx`]
//! instead of owning a ledger, so run/evaluate/report plumbing is written
//! once — the CLI, examples, and bench harness all drive a
//! `Box<dyn FederatedProtocol>` through the same code path.

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

    /// Worker threads the protocol's scheduler resolved from its config
    /// (`0` = every hardware thread). [`Engine::evaluate`] reuses this so
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

/// Drives a [`FederatedProtocol`] with a pluggable observer stack.
///
/// The engine always carries a [`CommLedger`] (as its first observer) so
/// every run has Table IV style accounting for free; further observers —
/// a [`crate::TraceRecorder`], convergence probes, transport shims — are
/// attached with [`Engine::with_observer`].
pub struct Engine<P> {
    protocol: P,
    ledger: CommLedger,
    observers: Vec<Box<dyn RoundObserver>>,
    next_round: u32,
}

impl<P: FederatedProtocol> Engine<P> {
    /// Wraps a *fresh* protocol (round counter at 0). Protocols pre-run
    /// outside an engine (e.g. via detached contexts) would desync the
    /// engine's round numbering from the protocol's internal counter.
    pub fn new(protocol: P) -> Self {
        Self { protocol, ledger: CommLedger::new(), observers: Vec::new(), next_round: 0 }
    }

    /// Wraps a protocol restored from a checkpoint: the engine continues
    /// at `next_round` with the restored ledger, so a resumed run's
    /// accounting is indistinguishable from one that never stopped. The
    /// protocol's internal round counter must already agree with
    /// `next_round` (the checkpoint subsystem restores both from one
    /// manifest).
    pub fn resume(protocol: P, ledger: CommLedger, next_round: u32) -> Self {
        Self { protocol, ledger, observers: Vec::new(), next_round }
    }

    /// Attaches an observer (builder style).
    pub fn with_observer(mut self, observer: impl RoundObserver + 'static) -> Self {
        self.add_observer(Box::new(observer));
        self
    }

    /// Attaches an observer.
    pub fn add_observer(&mut self, observer: Box<dyn RoundObserver>) {
        self.observers.push(observer);
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

    pub fn rounds_completed(&self) -> u32 {
        self.next_round
    }

    /// Executes one global round through the observer stack.
    pub fn run_round(&mut self) -> RoundTrace {
        let mut observers: Vec<&mut dyn RoundObserver> =
            Vec::with_capacity(1 + self.observers.len());
        observers.push(&mut self.ledger);
        for o in &mut self.observers {
            observers.push(o.as_mut());
        }
        let mut ctx = RoundCtx::new(self.next_round, observers);
        let trace = self.protocol.run_round(&mut ctx);
        ctx.finish(&trace);
        self.next_round += 1;
        trace
    }

    /// Executes one round over an externally chosen participant set (see
    /// [`FederatedProtocol::run_round_external`]) through the same
    /// observer stack as [`Engine::run_round`]. Returns `None` — without
    /// consuming a round — if the protocol does not support external
    /// participant sets.
    pub fn run_round_external(&mut self, participants: &[u32]) -> Option<RoundTrace> {
        let mut observers: Vec<&mut dyn RoundObserver> =
            Vec::with_capacity(1 + self.observers.len());
        observers.push(&mut self.ledger);
        for o in &mut self.observers {
            observers.push(o.as_mut());
        }
        let mut ctx = RoundCtx::new(self.next_round, observers);
        let trace = self.protocol.run_round_external(&mut ctx, participants)?;
        ctx.finish(&trace);
        self.next_round += 1;
        Some(trace)
    }

    /// Runs the remaining configured rounds and returns their trace.
    pub fn run(&mut self) -> RunTrace {
        let mut trace = RunTrace::default();
        while self.next_round < self.protocol.configured_rounds() {
            trace.push(self.run_round());
        }
        trace
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
            .field("rounds_completed", &self.next_round)
            .field("observers", &self.observers.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::TraceRecorder;

    /// A deterministic toy protocol: every round, each of three clients
    /// uploads one triple and gets two scored items back.
    struct MockProtocol {
        rounds: u32,
        done: u32,
        model: ConstModel,
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
            let participants = [0u32, 1, 2];
            ctx.begin(&participants);
            for &c in &participants {
                ctx.upload(c, "mock-up", Payload::Triples { count: 1 });
                ctx.disperse(c, "mock-down", Payload::ScoredItems { count: 2 });
            }
            let losses = [0.5, 0.5, 0.5];
            let trace = RoundTrace::new(self.done, &losses, 0.0, ctx.bytes());
            self.done += 1;
            trace
        }

        fn recommender(&self) -> &dyn Recommender {
            &self.model
        }
    }

    fn mock(rounds: u32) -> MockProtocol {
        MockProtocol { rounds, done: 0, model: ConstModel { score: 0.2 } }
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
        // run() again is a no-op once the budget is spent
        assert_eq!(engine.run().num_rounds(), 0);
    }

    #[test]
    fn ledger_counts_message_free_trailing_rounds() {
        // regression: a protocol whose trailing rounds sample nobody (and
        // so send nothing) must still advance the ledger's round count —
        // it used to be derived from message tags alone, inflating
        // per-round traffic averages
        struct QuietTail {
            done: u32,
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
                if self.done == 0 {
                    ctx.begin(&[0]);
                    ctx.upload(0, "up", Payload::Triples { count: 1 });
                } else {
                    ctx.begin(&[]); // zero sampled participants
                }
                let trace = RoundTrace::new(self.done, &[], 0.0, ctx.bytes());
                self.done += 1;
                trace
            }
            fn recommender(&self) -> &dyn Recommender {
                &self.model
            }
        }
        let mut engine = Engine::new(QuietTail { done: 0, model: ConstModel { score: 0.5 } });
        engine.run();
        let s = engine.ledger().summary();
        assert_eq!(s.rounds, 4, "message-free rounds must count");
        assert_eq!(s.messages, 1);
    }

    #[test]
    fn manual_rounds_then_run_completes_the_budget() {
        let mut engine = Engine::new(mock(5));
        engine.run_round();
        engine.run_round();
        let rest = engine.run();
        assert_eq!(rest.num_rounds(), 3);
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

    #[test]
    fn trace_recorder_matches_returned_trace() {
        let recorder = TraceRecorder::new();
        let mut engine = Engine::new(mock(3)).with_observer(recorder.clone());
        let trace = engine.run();
        assert_eq!(recorder.trace(), trace);
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
