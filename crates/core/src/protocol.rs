//! The full PTF-FedRec learning protocol (Algorithm 1).
//!
//! Algorithm 1 has one round shape — sample `U^t`, clients train on
//! `D_i ∪ D̃_i` and upload predictions, the server trains its hidden
//! model and disperses α items — wherever a client happens to live. So
//! there is one driver, [`Round`], generic over a [`ClientHost`]: the
//! thing that knows where a participant's state is kept and where its
//! local round executes. Three hosts exist:
//!
//! * [`Resident`] — the whole fleet stays in memory, one
//!   [`PtfClient`] per user. [`PtfFedRec`] is the driver at this host.
//! * [`crate::cohort::Stored`] — clients are rebuilt from envelopes in
//!   bounded cohorts and dropped again. [`crate::CohortFedRec`] is the
//!   driver at that host.
//! * `Remote`, in `ptf-net`'s round server — clients live in other
//!   processes behind a transport. Its client phase announces the round,
//!   collects uploads until a deadline and drops stragglers, which then
//!   count as unsampled.
//!
//! The driver implements [`FederatedProtocol`], so an
//! [`ptf_federated::Engine`] drives its rounds and wires in the
//! communication ledger and any other [`ptf_federated::RoundObserver`]
//! from the outside, and keeps the round number and the trace:
//! `Engine::new(PtfFedRec::try_new(..)?)`, plus `.with_observer(..)` for
//! each extra sink.
//!
//! Each round is the two-phase map/reduce of
//! [`ptf_federated::scheduler`]: client local training runs in parallel
//! on per-`(seed, round, client)` derived RNG streams, then uploads,
//! server training, and dispersal replay serially in participant order —
//! so a run is bit-identical at any thread count and at any host.

use crate::client::PtfClient;
use crate::config::{ConfigError, PtfConfig};
use crate::rounds;
use crate::server::PtfServer;
use crate::upload::ClientUpload;
use ptf_data::Dataset;
use ptf_federated::{FederatedProtocol, RoundCtx, RoundScratch, RoundTrace};
use ptf_models::mf::LANES;
use ptf_models::{ModelHyper, ModelKind, Recommender};
use ptf_privacy::{ScoredItem, TopGuessAttack};
use ptf_tensor::par::{map_chunks, map_indices, resolve_threads};

/// Where a participant's state lives and where its local round runs.
///
/// A host never sees the server, the observers or the round order — the
/// driver owns those — so a new host (a segment store, a remote shard)
/// implements the two required methods and inherits every parity suite.
/// A host that trains in this process owns its workers' state: one
/// `[RoundScratch; LANES]` per worker of [`ptf_tensor::par::map_chunks`]
/// (see [`ptf_federated::RoundScratch`]), kept across rounds.
pub trait ClientHost {
    /// Protocol name the driver reports at this host.
    const NAME: &'static str;

    /// Algorithm 1 lines 5–8 of `round` for every id in `participants`
    /// (ascending): [`rounds::train_in_lanes`] on `cfg.threads` workers,
    /// each over its own scratch, or each participant in its own process.
    /// Returns the uploads and the local losses, both in participant
    /// order. A host may leave out a participant whose upload never
    /// arrived; the round then treats it as unsampled.
    fn client_phase(
        &mut self,
        cfg: &PtfConfig,
        round: u32,
        participants: &[u32],
    ) -> (Vec<ClientUpload>, Vec<f32>);

    /// Hands every participant of `round` its new `D̃_i`.
    fn deliver(&mut self, round: u32, dispersals: Vec<(u32, Vec<ScoredItem>)>);

    /// Receives round *t*'s uploads back at the start of round *t + 1*,
    /// once the privacy audit can no longer ask for them. Hosts whose
    /// clients outlive a round reuse the buffers; the default drops them.
    fn recycle(&mut self, _uploads: Vec<ClientUpload>) {}
}

/// The PTF-FedRec round driver over the client host `H`.
pub struct Round<H> {
    pub cfg: PtfConfig,
    pub(crate) host: H,
    pub(crate) server: PtfServer,
    /// `Some(active)` when the server model is keyed by rank in the
    /// sorted ever-participating user set instead of by raw user id (see
    /// [`rounds::server_phase`]).
    user_map: Option<Vec<u32>>,
    trainable: Vec<u32>,
    /// Uploads of the most recent round (kept for privacy auditing).
    last_uploads: Vec<ClientUpload>,
}

impl<H: ClientHost> Round<H> {
    /// The driver over `host`: `cfg` is already validated, `server` is
    /// fresh, and `trainable` is the ascending set the participation
    /// policy samples from. `user_map` compacts the server model's user
    /// ids (see [`rounds::server_phase`]); hosts outside this crate pass
    /// `None`.
    pub fn new(
        cfg: PtfConfig,
        host: H,
        server: PtfServer,
        user_map: Option<Vec<u32>>,
        trainable: Vec<u32>,
    ) -> Self {
        Self { cfg, host, server, user_map, trainable, last_uploads: Vec::new() }
    }

    pub fn server(&self) -> &PtfServer {
        &self.server
    }

    /// The client host, for a caller that keeps transport or session
    /// state in it between rounds.
    pub fn host_mut(&mut self) -> &mut H {
        &mut self.host
    }

    /// Takes the trained hidden server model back out of the driver.
    pub fn into_server(self) -> PtfServer {
        self.server
    }

    /// The clients (ascending id) the participation policy may sample.
    pub fn trainable(&self) -> &[u32] {
        &self.trainable
    }

    /// The uploads of the most recent round (for privacy audits).
    pub fn last_uploads(&self) -> &[ClientUpload] {
        &self.last_uploads
    }

    /// Table V's privacy measure: the mean Top Guess attack F1 of the
    /// honest-but-curious server over the final round's uploads.
    pub fn attack_f1(&self) -> f64 {
        TopGuessAttack::default().mean_f1(
            self.last_uploads
                .iter()
                .map(|u| (u.predictions.as_slice(), u.audit_positives.as_slice())),
        )
    }

    /// One round over an explicit participant set (ascending, unique):
    /// the shared body of [`FederatedProtocol::run_round`] (which samples
    /// the set) and [`FederatedProtocol::run_round_external`] (which is
    /// handed one, e.g. by a parity test replaying a run without a
    /// dropped straggler).
    fn round_with(&mut self, ctx: &mut RoundCtx<'_>, participants: Vec<u32>) -> RoundTrace {
        let round = ctx.round();
        self.host.recycle(std::mem::take(&mut self.last_uploads));
        ctx.begin(&participants);

        // lines 5–8, parallel phase: local training + upload construction
        // on one derived RNG stream per client
        let (uploads, losses) = self.host.client_phase(&self.cfg, round, &participants);

        // lines 9–12, serial phase: replay uploads into the observer stack
        // in participant order, train the hidden model, disperse
        let (server_loss, dispersals) = rounds::server_phase(
            &mut self.server,
            &self.cfg,
            round,
            &uploads,
            ctx,
            self.user_map.as_deref(),
        );
        self.host.deliver(round, dispersals);

        let trace = rounds::round_trace(round, &losses, server_loss, ctx);
        self.last_uploads = uploads;
        trace
    }
}

impl<H: ClientHost> FederatedProtocol for Round<H> {
    fn name(&self) -> &'static str {
        H::NAME
    }

    fn configured_rounds(&self) -> u32 {
        self.cfg.rounds
    }

    /// Executes one global round of Algorithm 1 as a two-phase
    /// map/reduce (see the module docs).
    fn run_round(&mut self, ctx: &mut RoundCtx<'_>) -> RoundTrace {
        let participants = rounds::sample_participants(&self.cfg, &self.trainable, ctx.round());
        self.round_with(ctx, participants)
    }

    /// PTF-FedRec honors externally-chosen participant sets: the body is
    /// the same round as [`Self::run_round`] minus the participation
    /// draw. Unknown or non-trainable ids are ignored.
    fn run_round_external(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        participants: &[u32],
    ) -> Option<RoundTrace> {
        let mut chosen: Vec<u32> = participants
            .iter()
            .copied()
            .filter(|id| self.trainable.binary_search(id).is_ok())
            .collect();
        chosen.sort_unstable();
        chosen.dedup();
        Some(self.round_with(ctx, chosen))
    }

    fn recommender(&self) -> &dyn Recommender {
        self.server.model()
    }

    fn threads(&self) -> usize {
        resolve_threads(self.cfg.threads)
    }
}

/// The host whose whole fleet stays in memory: one [`PtfClient`] (model
/// + optimizer state) per user, built once and trained in place.
pub struct Resident {
    clients: Vec<PtfClient>,
    /// Each client-phase worker's lanes of scratch, kept across rounds.
    workers: Vec<[RoundScratch; LANES]>,
    /// Heap allocations performed *inside* the most recent round's
    /// parallel client phase (0 unless the `ptf_tensor::alloc` shim is
    /// installed; 0 in steady state with an allocation-free client model).
    last_client_allocs: u64,
}

impl ClientHost for Resident {
    const NAME: &'static str = "PTF-FedRec";

    fn client_phase(
        &mut self,
        cfg: &PtfConfig,
        round: u32,
        participants: &[u32],
    ) -> (Vec<ClientUpload>, Vec<f32>) {
        // all transient state lives in per-worker scratch buffers; the
        // allocation counter brackets each worker's whole lane run
        // (thread-local, so parallel workers count independently)
        let mut refs = participant_refs(&mut self.clients, participants);
        let results = map_chunks(cfg.threads, &mut refs, &mut self.workers, |_, slice, scratch| {
            let mut out: Vec<Option<(ClientUpload, f32)>> = vec![None; slice.len()];
            let allocs_before = ptf_tensor::alloc::thread_allocs();
            let clients = slice.iter_mut().map(|c| &mut **c);
            rounds::train_in_lanes(cfg, round, scratch, clients, |at, _, up, loss| {
                out[at] = Some((up, loss));
            });
            (out, ptf_tensor::alloc::thread_allocs() - allocs_before)
        });
        let mut uploads = Vec::with_capacity(participants.len());
        let mut losses = Vec::with_capacity(participants.len());
        self.last_client_allocs = 0;
        for (out, allocs) in results {
            for (upload, loss) in out.into_iter().map(|r| r.expect("every participant trained")) {
                uploads.push(upload);
                losses.push(loss);
            }
            self.last_client_allocs += allocs;
        }
        (uploads, losses)
    }

    fn deliver(&mut self, _round: u32, dispersals: Vec<(u32, Vec<ScoredItem>)>) {
        for (client, items) in dispersals {
            self.clients[client as usize].receive_disperse(items);
        }
    }

    /// Hands the upload buffers back to their owners so steady-state
    /// upload staging reuses per-client capacity.
    fn recycle(&mut self, uploads: Vec<ClientUpload>) {
        for upload in uploads {
            let owner = upload.client as usize;
            self.clients[owner].recycle_upload(upload);
        }
    }
}

/// PTF-FedRec with the whole client fleet resident.
pub type PtfFedRec = Round<Resident>;

impl Round<Resident> {
    /// Builds the federation: one client per user of `train`, a hidden
    /// server model, and fresh per-participant state. Fails (instead of
    /// panicking) if `cfg` is inconsistent.
    ///
    /// The whole fleet builds in parallel on `cfg.threads` workers: each client's
    /// partition *and* item-scoped model come from one task seeded by its
    /// own derived `RngStream::ClientInit` stream, so the build is
    /// bit-identical at any thread count and proportional to the
    /// partitions, not to `users × items`. Wrap it in an
    /// [`ptf_federated::Engine`] to run it.
    pub fn try_new(
        train: &Dataset,
        client_kind: ModelKind,
        server_kind: ModelKind,
        hyper: &ModelHyper,
        cfg: PtfConfig,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let clients: Vec<PtfClient> = map_indices(cfg.threads, train.num_users(), |u| {
            rounds::build_client(train, u as u32, client_kind, hyper, &cfg)
        });
        let server =
            rounds::build_server(train.num_users(), train.num_items(), server_kind, hyper, &cfg);
        let trainable: Vec<u32> =
            clients.iter().filter(|c| c.num_positives() > 0).map(|c| c.id).collect();
        let host = Resident { clients, workers: Vec::new(), last_client_allocs: 0 };
        Ok(Self::new(cfg, host, server, None, trainable))
    }

    /// Total materialized item-embedding rows across the client fleet —
    /// the scoped-client memory story in one number (compare against
    /// `num_clients × num_items`, what full tables would hold).
    pub fn materialized_item_rows(&self) -> usize {
        self.host.clients.iter().map(PtfClient::item_rows).sum()
    }

    /// How many clients hold a full (dense) item table: every client is
    /// built row-sparse, so these are the ones whose row growth has
    /// turned their table dense (`ptf_tensor::grows_dense`).
    pub fn dense_clients(&self) -> usize {
        self.host.clients.iter().filter(|c| c.item_scope().is_full()).count()
    }

    pub fn client(&self, id: u32) -> &PtfClient {
        &self.host.clients[id as usize]
    }

    /// Heap allocations inside the most recent round's parallel client
    /// phase. Always 0 unless the binary installed the
    /// `ptf_tensor::alloc::CountingAlloc` shim; with the shim and an
    /// allocation-free client model (MF), steady-state rounds report 0 —
    /// the release-mode hot-path test asserts exactly that.
    pub fn last_round_client_allocs(&self) -> u64 {
        self.host.last_client_allocs
    }
}

/// Mutable references to the participating clients, in participant order
/// (`participants` must be sorted ascending, as produced by
/// `Participation::sample`).
fn participant_refs<'a>(
    clients: &'a mut [PtfClient],
    participants: &[u32],
) -> Vec<&'a mut PtfClient> {
    debug_assert!(participants.windows(2).all(|w| w[0] < w[1]));
    let mut want = participants.iter().copied().peekable();
    let mut refs = Vec::with_capacity(participants.len());
    for (i, c) in clients.iter_mut().enumerate() {
        if want.peek() == Some(&(i as u32)) {
            want.next();
            refs.push(c);
        }
    }
    refs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DefenseKind, DisperseStrategy};
    use ptf_comm::Message;
    use ptf_data::{SyntheticConfig, TrainTestSplit};
    use ptf_federated::{Engine, RoundObserver};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn tiny_split() -> TrainTestSplit {
        let cfg = SyntheticConfig::new("tiny", 24, 48, 10.0);
        let data = cfg.generate(&mut ptf_data::test_rng(5));
        TrainTestSplit::split_80_20(&data, &mut ptf_data::test_rng(6))
    }

    fn quick_cfg() -> PtfConfig {
        let mut c = PtfConfig::small();
        c.rounds = 3;
        c.client_epochs = 2;
        c.server_epochs = 1;
        c.alpha = 8;
        c
    }

    fn quick_engine(
        train: &Dataset,
        client: ModelKind,
        server: ModelKind,
        cfg: PtfConfig,
    ) -> Engine<PtfFedRec> {
        Engine::new(
            PtfFedRec::try_new(train, client, server, &ModelHyper::small(), cfg)
                .expect("valid test config"),
        )
    }

    /// What the driver asked of a host, in call order.
    #[derive(Debug, PartialEq)]
    enum HostCall {
        Recycle(Vec<u32>),
        Train(u32, Vec<u32>),
        Deliver(u32, Vec<u32>),
    }

    /// A host with no client models: fabricates two predictions per
    /// participant and logs every call.
    struct FakeHost(Rc<RefCell<Vec<HostCall>>>);

    impl ClientHost for FakeHost {
        const NAME: &'static str = "fake";

        fn client_phase(
            &mut self,
            _cfg: &PtfConfig,
            round: u32,
            participants: &[u32],
        ) -> (Vec<ClientUpload>, Vec<f32>) {
            self.0.borrow_mut().push(HostCall::Train(round, participants.to_vec()));
            let uploads = participants
                .iter()
                .map(|&client| ClientUpload {
                    client,
                    predictions: vec![(client % 7, 0.9), (client % 7 + 1, 0.2)],
                    audit_positives: vec![client % 7],
                })
                .collect();
            (uploads, vec![0.5; participants.len()])
        }

        fn deliver(&mut self, round: u32, dispersals: Vec<(u32, Vec<ScoredItem>)>) {
            let to = dispersals.iter().map(|d| d.0).collect();
            self.0.borrow_mut().push(HostCall::Deliver(round, to));
        }

        fn recycle(&mut self, uploads: Vec<ClientUpload>) {
            let from = uploads.iter().map(|u| u.client).collect();
            self.0.borrow_mut().push(HostCall::Recycle(from));
        }
    }

    /// The observer hooks of a round as `(hook, client or count, bytes)`.
    type HookLog = Vec<(&'static str, u32, u64)>;

    struct Hooks(Rc<RefCell<HookLog>>);

    impl RoundObserver for Hooks {
        fn on_round_start(&mut self, _round: u32, participants: &[u32]) {
            self.0.borrow_mut().extend(participants.iter().map(|&p| ("begin", p, 0)));
        }
        fn on_upload(&mut self, msg: &Message) {
            self.0.borrow_mut().push(("up", msg.client().unwrap(), msg.bytes() as u64));
        }
        fn on_disperse(&mut self, msg: &Message) {
            self.0.borrow_mut().push(("down", msg.client().unwrap(), msg.bytes() as u64));
        }
        fn on_round_end(&mut self, trace: &RoundTrace) {
            self.0.borrow_mut().push(("end", trace.participants as u32, trace.bytes));
        }
    }

    #[test]
    fn driver_filters_orders_and_recycles_on_any_host() {
        let mut cfg = quick_cfg();
        cfg.alpha = 4;
        let server = rounds::build_server(12, 16, ModelKind::Mf, &ModelHyper::small(), &cfg);
        let calls = Rc::new(RefCell::new(Vec::new()));
        let hooks = Rc::new(RefCell::new(HookLog::new()));
        // user 4 exists but has nothing to train on; 999 does not exist
        let round = Round::new(cfg, FakeHost(calls.clone()), server, None, vec![3, 5, 9]);
        let mut engine = Engine::new(round).with_observer(Hooks(hooks.clone()));

        let t0 = engine.run_round_external(&[9, 3, 3, 999, 4]).expect("external sets are honored");
        assert_eq!(t0.participants, 2);
        assert_eq!(
            *calls.borrow(),
            [
                HostCall::Recycle(vec![]),
                HostCall::Train(0, vec![3, 9]),
                HostCall::Deliver(0, vec![3, 9]),
            ]
        );
        let seen = hooks.borrow().clone();
        let order: Vec<String> = seen.iter().map(|(hook, c, _)| format!("{hook} {c}")).collect();
        assert_eq!(order.join(", "), "begin 3, begin 9, up 3, up 9, down 3, down 9, end 2");
        let wire: u64 = seen.iter().filter(|e| e.0 != "end").map(|e| e.2).sum();
        assert!(wire > 0);
        assert_eq!(wire, t0.bytes, "trace bytes must equal what the observers saw");
        assert_eq!(engine.ledger().summary().total_bytes, t0.bytes);
        let audited: Vec<u32> = engine.protocol().last_uploads().iter().map(|u| u.client).collect();
        assert_eq!(audited, [3, 9]);

        // an empty set still counts a round, and round 0's uploads come
        // back to the host before it starts
        calls.borrow_mut().clear();
        let t1 = engine.run_round_external(&[]).expect("external sets are honored");
        assert_eq!((t1.round, t1.participants, t1.bytes), (1, 0, 0));
        assert_eq!(
            *calls.borrow(),
            [
                HostCall::Recycle(vec![3, 9]),
                HostCall::Train(1, vec![]),
                HostCall::Deliver(1, vec![]),
            ]
        );
        assert_eq!(engine.rounds_completed(), 2);
        assert_eq!(engine.ledger().summary().rounds, 2);
        assert!(engine.protocol().last_uploads().is_empty());
        assert_eq!(engine.protocol().name(), "fake");

        // a host outside this crate gets its state and the server back
        let mut round = engine.into_protocol();
        assert!(Rc::ptr_eq(&round.host_mut().0, &calls));
        assert_eq!(round.into_server().model().num_users(), 12);
    }

    #[test]
    fn full_protocol_round_trip() {
        let split = tiny_split();
        let mut fed = quick_engine(&split.train, ModelKind::NeuMf, ModelKind::NeuMf, quick_cfg());
        let trace = fed.run();
        assert_eq!(trace.num_rounds(), 3);
        assert_eq!(fed.rounds_completed(), 3);
        assert_eq!(fed.trace(), &trace);
        // every round has participants and non-zero traffic
        for r in &trace.rounds {
            assert!(r.participants > 0);
            assert!(r.bytes > 0);
            assert!(r.mean_client_loss.is_finite());
            assert!(r.server_loss.is_finite());
        }
        // uploads retained for auditing
        assert!(!fed.protocol().last_uploads().is_empty());
        // evaluation runs end to end
        let report = fed.evaluate(&split.train, &split.test, 5);
        assert!(report.users_evaluated > 0);
    }

    #[test]
    fn clients_receive_dispersed_knowledge() {
        let split = tiny_split();
        let mut fed = quick_engine(&split.train, ModelKind::NeuMf, ModelKind::NeuMf, quick_cfg());
        fed.run_round();
        let with_data = (0..split.train.num_users() as u32)
            .filter(|&u| !fed.protocol().client(u).server_data().is_empty())
            .count();
        assert!(with_data > 0, "no client received D̃ after a round");
        let ptf = fed.protocol();
        let d = ptf.client(ptf.last_uploads()[0].client).server_data();
        assert_eq!(d.len(), quick_cfg().alpha);
    }

    #[test]
    fn communication_is_kilobyte_scale() {
        let split = tiny_split();
        let mut fed = quick_engine(&split.train, ModelKind::NeuMf, ModelKind::Ngcf, quick_cfg());
        fed.run();
        let avg = fed.ledger().avg_client_bytes_per_round();
        assert!(avg > 0.0);
        // the headline claim: KB-level, not MB-level (model has ~40k params)
        let model_bytes = (fed.protocol().server().model().num_params() * 4) as f64;
        assert!(
            avg < model_bytes / 10.0,
            "prediction traffic {avg}B should be far below parameter traffic {model_bytes}B"
        );
    }

    #[test]
    fn defense_reduces_upload_sizes() {
        let split = tiny_split();
        let mut no_def = quick_cfg();
        no_def.defense = DefenseKind::NoDefense;
        no_def.rounds = 1;
        let mut with_def = quick_cfg();
        with_def.defense = DefenseKind::SamplingSwapping;
        with_def.rounds = 1;

        let mut fed_a = quick_engine(&split.train, ModelKind::NeuMf, ModelKind::NeuMf, no_def);
        let mut fed_b = quick_engine(&split.train, ModelKind::NeuMf, ModelKind::NeuMf, with_def);
        fed_a.run();
        fed_b.run();
        let full: usize = fed_a.protocol().last_uploads().iter().map(|u| u.len()).sum();
        let sampled: usize = fed_b.protocol().last_uploads().iter().map(|u| u.len()).sum();
        assert!(sampled < full, "sampling defense should shrink uploads: {sampled} vs {full}");
    }

    #[test]
    fn deterministic_under_seed() {
        let split = tiny_split();
        let run = || {
            let mut fed =
                quick_engine(&split.train, ModelKind::NeuMf, ModelKind::NeuMf, quick_cfg());
            fed.run();
            fed.evaluate(&split.train, &split.test, 5).metrics.ndcg
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_participation_rounds_are_counted_and_harmless() {
        // a participation policy that samples nobody must neither crash
        // the round loop nor vanish from the ledger's round count
        let split = tiny_split();
        let mut cfg = quick_cfg();
        cfg.rounds = 3;
        cfg.participation = ptf_federated::Participation { fraction: 0.0, min_clients: 0 };
        let mut fed = quick_engine(&split.train, ModelKind::NeuMf, ModelKind::NeuMf, cfg);
        let trace = fed.run();
        assert_eq!(trace.num_rounds(), 3);
        for r in &trace.rounds {
            assert_eq!(r.participants, 0);
            assert_eq!(r.bytes, 0);
        }
        let s = fed.ledger().summary();
        assert_eq!(s.rounds, 3, "empty rounds must still count");
        assert_eq!(s.total_bytes, 0);
    }

    #[test]
    fn all_disperse_strategies_run() {
        let split = tiny_split();
        for strategy in DisperseStrategy::ALL {
            let mut cfg = quick_cfg();
            cfg.rounds = 1;
            cfg.disperse = strategy;
            let mut fed = quick_engine(&split.train, ModelKind::NeuMf, ModelKind::NeuMf, cfg);
            let trace = fed.run();
            assert_eq!(trace.num_rounds(), 1, "strategy {strategy:?} failed");
        }
    }

    #[test]
    fn heterogeneous_model_grid_runs() {
        // Table VIII: every client×server combination must work
        let split = tiny_split();
        for client_kind in [ModelKind::NeuMf, ModelKind::LightGcn] {
            for server_kind in [ModelKind::Ngcf, ModelKind::NeuMf] {
                let mut cfg = quick_cfg();
                cfg.rounds = 1;
                cfg.client_epochs = 1;
                let mut fed = quick_engine(&split.train, client_kind, server_kind, cfg);
                let trace = fed.run();
                assert!(trace.rounds[0].participants > 0);
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_the_run() {
        // the parallel client phase's headline guarantee: identical
        // traces and identical trained models at 1 vs 4 threads
        let split = tiny_split();
        let run = |threads: usize| {
            let mut cfg = quick_cfg();
            cfg.threads = threads;
            let mut fed = quick_engine(&split.train, ModelKind::NeuMf, ModelKind::NeuMf, cfg);
            let trace = fed.run();
            let report = fed.evaluate(&split.train, &split.test, 5);
            (trace, report)
        };
        let (trace_serial, report_serial) = run(1);
        let (trace_par, report_par) = run(4);
        assert_eq!(trace_serial, trace_par);
        assert_eq!(report_serial, report_par);
    }

    #[test]
    fn partial_participation_is_thread_invariant() {
        let split = tiny_split();
        let run = |threads: usize| {
            let mut cfg = quick_cfg();
            cfg.threads = threads;
            cfg.participation = ptf_federated::Participation { fraction: 0.4, min_clients: 1 };
            let mut fed = quick_engine(&split.train, ModelKind::NeuMf, ModelKind::NeuMf, cfg);
            fed.run()
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn invalid_config_is_reported_not_panicked() {
        let split = tiny_split();
        let mut cfg = quick_cfg();
        cfg.lambda = 7.0;
        let hyper = ModelHyper::small();
        let built =
            PtfFedRec::try_new(&split.train, ModelKind::NeuMf, ModelKind::NeuMf, &hyper, cfg);
        assert_eq!(built.err(), Some(ConfigError::OutOfUnitRange { field: "lambda", got: 7.0 }));
        // a bad participation fraction used to pass and panic in round 0
        for fraction in [1.5, -0.5, f64::NAN] {
            let mut cfg = quick_cfg();
            cfg.participation.fraction = fraction;
            let built =
                PtfFedRec::try_new(&split.train, ModelKind::NeuMf, ModelKind::NeuMf, &hyper, cfg);
            assert!(
                matches!(
                    built.err(),
                    Some(ConfigError::OutOfUnitRange { field: "participation.fraction", got })
                        if got.to_bits() == fraction.to_bits()
                ),
                "fraction {fraction} was accepted"
            );
        }
    }
}
