//! The networked round server: session handling, and the client host
//! that puts Algorithm 1's participants behind a transport.
//!
//! The server is a synchronous state machine over the transport's event
//! queue. A run has three steps:
//!
//! 1. **Gather** — wait (bounded by `gather_timeout`) until every logical
//!    client `0..fleet` has completed a `Hello` handshake (protocol
//!    version checked by the codec, config fingerprint checked here).
//!    The trainable set is fixed at gather end from the hello flags —
//!    exactly the in-process `num_positives() > 0` filter.
//! 2. **Rounds** — the one round driver, [`ptf_core::Round`], runs every
//!    round over the `Remote` host. The driver draws the participant
//!    set and trains the hidden model, and the engine keeps the trace,
//!    exactly as in process. `Remote` only moves frames: it announces the
//!    round to each connection, listing that connection's participants,
//!    collects uploads until the round deadline, and drops
//!    stragglers and clients whose upload is malformed (the protocol's
//!    partial-participation path). That is what makes the resulting
//!    `RunTrace` bit-identical to the in-process engine when nobody
//!    straggles, and identical to an engine run with the straggler
//!    unsampled when someone does.
//! 3. **Finish** — `Finished` to every live connection, then a flush of
//!    every outbound queue.
//!
//! Reconnects are graceful: a client whose connection died may `Hello`
//! again from a new connection at any time and resumes with the next
//! round it is sampled into. Uploads for closed rounds are discarded.

use crate::config_fingerprint;
use crate::error::NetError;
use crate::transport::{ConnId, Event, PeerHandle};
use crate::wire::{Frame, RejectReason, Triple};
use ptf_comm::LedgerSummary;
use ptf_core::{rounds, ClientHost, ClientPhase, ClientUpload, PtfConfig, PtfServer, Round};
use ptf_data::Dataset;
use ptf_federated::{Engine, RunTrace};
use ptf_models::{ModelHyper, ModelKind};
use ptf_privacy::ScoredItem;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// How long the end-of-run flush waits per peer for its writer thread
/// to drain the outbound queue. Generous: a healthy peer drains in
/// microseconds; only a wedged transport hits this.
const SHUTDOWN_FLUSH_TIMEOUT: Duration = Duration::from_secs(5);

/// Everything a round server needs besides the dataset and transport.
pub struct NetServerOptions {
    /// The protocol config — must validate, and must match what every
    /// client runs with (enforced by the handshake fingerprint).
    pub cfg: PtfConfig,
    /// Client model architecture (fingerprinted; the server never builds
    /// client models itself).
    pub client_kind: ModelKind,
    /// Hidden server model architecture.
    pub server_kind: ModelKind,
    pub hyper: ModelHyper,
    /// How long each round waits for announced uploads before dropping
    /// stragglers.
    pub round_deadline: Duration,
    /// How long the gather phase waits for the full fleet to handshake.
    pub gather_timeout: Duration,
    /// Log round progress to stderr.
    pub verbose: bool,
}

/// One straggler drop event: `client` missed `round`'s deadline, or sent
/// an upload the server cannot train on (an item outside the catalogue, a
/// score that is not a probability).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct StragglerDrop {
    pub round: u32,
    pub client: u32,
}

/// What a networked run produced (the trained server model rides along
/// separately so the caller can evaluate it).
#[derive(Debug, Serialize)]
pub struct NetRunReport {
    /// Bit-identical to the in-process engine's trace for the same
    /// seed/config (modulo dropped stragglers, which mirror unsampling).
    pub trace: RunTrace,
    /// Table IV style accounting of the protocol data that crossed the
    /// wire (frame headers excluded — see `docs/wire-protocol.md`).
    pub communication: LedgerSummary,
    /// Every straggler drop, in round order.
    pub stragglers: Vec<StragglerDrop>,
    /// Connections accepted over the run (≥ 1 per client process;
    /// reconnects count again).
    pub connections: usize,
}

/// Per-fleet session state: which connection (if any) currently speaks
/// for each logical client.
struct Sessions {
    /// Client id → live connection.
    conn_of: Vec<Option<ConnId>>,
    /// Client id → trainable flag from its (first) hello.
    trainable_flag: Vec<Option<bool>>,
    peers: HashMap<ConnId, PeerHandle>,
    connections_seen: usize,
}

impl Sessions {
    fn new(fleet: usize) -> Self {
        Self {
            conn_of: vec![None; fleet],
            trainable_flag: vec![None; fleet],
            peers: HashMap::new(),
            connections_seen: 0,
        }
    }

    fn opened(&mut self, conn: ConnId, peer: PeerHandle) {
        self.peers.insert(conn, peer);
        self.connections_seen += 1;
    }

    fn closed(&mut self, conn: ConnId) {
        self.peers.remove(&conn);
        for slot in self.conn_of.iter_mut() {
            if *slot == Some(conn) {
                *slot = None; // allows a graceful reconnect hello
            }
        }
    }

    fn peer_of(&self, client: u32) -> Option<&PeerHandle> {
        self.conn_of[client as usize].and_then(|conn| self.peers.get(&conn))
    }

    /// The live connection speaking for `client`, if any.
    fn live_conn(&self, client: u32) -> Option<ConnId> {
        self.conn_of[client as usize].filter(|c| self.peers.contains_key(c))
    }

    fn hello(
        &mut self,
        conn: ConnId,
        client: u32,
        trainable: bool,
        fingerprint: u64,
        expected_fingerprint: u64,
        rounds: u32,
    ) {
        let fleet = self.conn_of.len() as u32;
        let reply = if fingerprint != expected_fingerprint {
            Frame::Reject { client, reason: RejectReason::BadFingerprint }
        } else if client >= fleet {
            Frame::Reject { client, reason: RejectReason::UnknownClient }
        } else if self.live_conn(client).is_some() {
            Frame::Reject { client, reason: RejectReason::DuplicateClient }
        } else {
            // fresh registration or graceful reconnect; the trainable
            // flag is sticky from the first hello so the sampling
            // universe never shifts mid-run
            self.conn_of[client as usize] = Some(conn);
            self.trainable_flag[client as usize].get_or_insert(trainable);
            Frame::Welcome { client, fleet, rounds }
        };
        if let Some(peer) = self.peers.get(&conn) {
            peer.send(reply);
        }
    }

    /// A client counts as gathered only while it has a *live*
    /// connection — a hello followed by a disconnect before round 0
    /// leaves the slot pending until the client reconnects (the
    /// trainable flag stays sticky so the sampling universe is stable).
    fn gathered(&self) -> usize {
        (0..self.conn_of.len() as u32).filter(|&i| self.live_conn(i).is_some()).count()
    }

    fn all_gathered(&self) -> bool {
        (0..self.conn_of.len() as u32).all(|i| self.live_conn(i).is_some())
    }

    fn trainable(&self) -> Vec<u32> {
        self.trainable_flag
            .iter()
            .enumerate()
            .filter(|(_, f)| **f == Some(true))
            .map(|(i, _)| i as u32)
            .collect()
    }
}

/// Runs a full federated training run over `events`, driving one round
/// per configured round of `opts.cfg`. Returns the run report and the
/// trained hidden server model (for evaluation).
///
/// `train` is used only for its dimensions (`num_users` = fleet size,
/// `num_items`) and the fingerprint — interaction data stays on the
/// clients, as the protocol requires.
pub fn run_server(
    train: &Dataset,
    events: &Receiver<Event>,
    opts: &NetServerOptions,
) -> Result<(NetRunReport, PtfServer), NetError> {
    opts.cfg.validate().map_err(|e| NetError::Protocol(e.to_string()))?;
    let fleet = train.num_users();
    let fingerprint = config_fingerprint(
        &opts.cfg,
        opts.client_kind,
        opts.server_kind,
        &opts.hyper,
        fleet,
        train.num_items(),
    );
    let mut sessions = Sessions::new(fleet);
    let server =
        rounds::build_server(fleet, train.num_items(), opts.server_kind, &opts.hyper, &opts.cfg);

    // ── gather: the full fleet must handshake before round 0 ──────────
    let gather_deadline = Instant::now() + opts.gather_timeout;
    while !sessions.all_gathered() {
        let remaining = gather_deadline.saturating_duration_since(Instant::now());
        match recv_step(events, remaining, &mut sessions, fingerprint, opts.cfg.rounds)? {
            Step::Frame(..) | Step::Nothing => {}
            Step::TimedOut => {
                return Err(NetError::Timeout(format!(
                    "gather: {}/{} clients connected within {:?}",
                    sessions.gathered(),
                    fleet,
                    opts.gather_timeout
                )));
            }
        }
    }
    let trainable = sessions.trainable();
    if opts.verbose {
        eprintln!(
            "gathered fleet: {} clients ({} trainable) over {} connections",
            fleet,
            trainable.len(),
            sessions.peers.len()
        );
    }

    // ── rounds: the one driver over the remote host ───────────────────
    let host = Remote {
        events,
        sessions,
        fingerprint,
        rounds: opts.cfg.rounds,
        num_items: train.num_items() as u32,
        round_deadline: opts.round_deadline,
        stragglers: Vec::new(),
        error: None,
    };
    let mut engine = Engine::new(Round::new(opts.cfg.clone(), host, server, None, trainable));
    for _ in 0..opts.cfg.rounds {
        let round = engine.run_round();
        let host = engine.protocol_mut().host_mut();
        if let Some(e) = host.error.take() {
            return Err(e);
        }
        if opts.verbose {
            eprintln!(
                "  round {:>3}: {} participants ({} dropped), client loss {:.4}, server loss {:.4}",
                round.round,
                round.participants,
                host.stragglers.iter().filter(|d| d.round == round.round).count(),
                round.mean_client_loss,
                round.server_loss
            );
        }
    }
    let (communication, trace) = (engine.ledger().summary(), engine.trace().clone());
    let mut driver = engine.into_protocol();
    let host = driver.host_mut();

    // ── finish: tell every live connection the run is over ────────────
    for peer in host.sessions.peers.values() {
        peer.send(Frame::Finished { rounds: opts.cfg.rounds });
    }
    // flush every outbound queue before returning: the caller may exit
    // the process right away, and the last dispersals plus `Finished`
    // are still sitting in the writer threads' queues — exiting now
    // would silently drop them and peers would see EOF mid-protocol
    for (_, peer) in host.sessions.peers.drain() {
        peer.flush(SHUTDOWN_FLUSH_TIMEOUT);
    }
    let report = NetRunReport {
        trace,
        communication,
        stragglers: std::mem::take(&mut host.stragglers),
        connections: host.sessions.connections_seen,
    };
    Ok((report, driver.into_server()))
}

/// The networked [`ClientHost`]: every participant lives in a client
/// process behind the transport. Deadlines and stragglers are this
/// host's policy. The driver sees a straggler only as a participant that
/// sent no upload, which is exactly an unsampled one.
struct Remote<'a> {
    events: &'a Receiver<Event>,
    sessions: Sessions,
    fingerprint: u64,
    /// Configured rounds, echoed in the `Welcome` of a reconnect.
    rounds: u32,
    num_items: u32,
    round_deadline: Duration,
    /// Every drop so far, in round order.
    stragglers: Vec<StragglerDrop>,
    /// The first transport failure. Collection stops once it is set, and
    /// [`run_server`] returns it after the round.
    error: Option<NetError>,
}

impl ClientHost for Remote<'_> {
    const NAME: &'static str = "PTF-FedRec/remote";

    /// Announces the round to its participants, one frame per connection
    /// listing its sampled clients in ascending order, and collects uploads
    /// until the deadline or until nobody is pending. A straggler or a
    /// malformed upload drops its client for the round with a `Dropped`
    /// frame; the other uploads come back in ascending client order.
    fn client_phase(
        &mut self,
        phase: &ClientPhase<'_>,
        participants: &[u32],
    ) -> (Vec<ClientUpload>, Vec<f32>) {
        debug_assert!(participants.windows(2).all(|w| w[0] < w[1]));
        let round = phase.round;
        let deadline_ms = self.round_deadline.as_millis().min(u32::MAX as u128) as u32;
        // a participant with no live connection stays pending and drops
        // at the deadline (it may reconnect for a later round)
        let mut routed: Vec<(ConnId, u32)> =
            participants.iter().filter_map(|&p| Some((self.sessions.live_conn(p)?, p))).collect();
        routed.sort_by_key(|&(conn, _)| conn); // stable: ids stay ascending
        for group in routed.chunk_by(|a, b| a.0 == b.0) {
            let clients = group.iter().map(|&(_, p)| p).collect();
            self.sessions.peers[&group[0].0].send(Frame::Announce { round, deadline_ms, clients });
        }
        // `answered[i]`: participant `participants[i]` uploaded this round
        let mut answered = vec![false; participants.len()];
        let mut pending = participants.len();
        let mut received: Vec<(ClientUpload, f32)> = Vec::with_capacity(pending);
        let mut dropped: Vec<u32> = Vec::new();
        let deadline = Instant::now() + self.round_deadline;
        while pending > 0 {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match recv_step(
                self.events,
                remaining,
                &mut self.sessions,
                self.fingerprint,
                self.rounds,
            ) {
                Ok(Step::Frame(conn, Frame::Upload { client, round: r, loss, triples })) => {
                    if r != round {
                        continue; // stale upload from a closed round
                    }
                    if self.sessions.conn_of.get(client as usize).copied().flatten() != Some(conn) {
                        continue; // not the connection speaking for this id
                    }
                    let Ok(at) = participants.binary_search(&client) else {
                        continue; // unsampled
                    };
                    if std::mem::replace(&mut answered[at], true) {
                        continue; // duplicate upload
                    }
                    pending -= 1;
                    if untrainable(&triples, self.num_items).is_some() {
                        dropped.push(client);
                        continue;
                    }
                    let predictions =
                        triples.into_iter().map(|(_, item, score)| (item, score)).collect();
                    let upload = ClientUpload { client, predictions, audit_positives: Vec::new() };
                    received.push((upload, loss));
                }
                Ok(Step::Frame(..) | Step::Nothing) => {}
                Ok(Step::TimedOut) => break,
                Err(e) => {
                    self.error = Some(e);
                    break;
                }
            }
        }
        dropped.extend(participants.iter().zip(&answered).filter(|(_, &a)| !a).map(|(&p, _)| p));
        dropped.sort_unstable();
        for &client in &dropped {
            self.stragglers.push(StragglerDrop { round, client });
            if let Some(peer) = self.sessions.peer_of(client) {
                peer.send(Frame::Dropped { client, round });
            }
        }
        received.sort_unstable_by_key(|(upload, _)| upload.client);
        received.into_iter().unzip()
    }

    /// Sends each participant its `Disperse` frame.
    fn deliver(&mut self, round: u32, dispersals: Vec<(u32, Vec<ScoredItem>)>) {
        for (client, items) in dispersals {
            if let Some(peer) = self.sessions.peer_of(client) {
                let triples = items.iter().map(|&(item, score)| (client, item, score)).collect();
                peer.send(Frame::Disperse { client, round, triples });
            }
        }
    }
}

/// The first triple a model may not train on: an item outside the
/// catalogue or a score that is not a probability (finite, in `[0, 1]`).
/// Models index their rows and graph by item id, so both sides check on
/// receipt: the server discards such an upload and drops its client for
/// the round, exactly like a straggler; a client shard rejects such a
/// dispersal as a protocol violation.
pub(crate) fn untrainable(triples: &[Triple], num_items: u32) -> Option<Triple> {
    triples
        .iter()
        .copied()
        .find(|&(_, item, score)| item >= num_items || !(0.0..=1.0).contains(&score))
}

/// One step of the event loop shared by the gather and round phases:
/// handles session bookkeeping (opens, closes, hellos) internally and
/// surfaces everything else to the caller.
enum Step {
    Frame(ConnId, Frame),
    Nothing,
    TimedOut,
}

fn recv_step(
    events: &Receiver<Event>,
    remaining: Duration,
    sessions: &mut Sessions,
    fingerprint: u64,
    rounds: u32,
) -> Result<Step, NetError> {
    if remaining.is_zero() {
        return Ok(Step::TimedOut);
    }
    match events.recv_timeout(remaining) {
        Ok(Event::Opened { conn, peer }) => {
            sessions.opened(conn, peer);
            Ok(Step::Nothing)
        }
        Ok(Event::Closed { conn }) => {
            sessions.closed(conn);
            Ok(Step::Nothing)
        }
        Ok(Event::Frame { conn, frame }) => match frame {
            Frame::Hello { client, trainable, fingerprint: fp } => {
                sessions.hello(conn, client, trainable, fp, fingerprint, rounds);
                Ok(Step::Nothing)
            }
            other => Ok(Step::Frame(conn, other)),
        },
        Err(RecvTimeoutError::Timeout) => Ok(Step::TimedOut),
        Err(RecvTimeoutError::Disconnected) => {
            Err(NetError::Disconnected("transport event queue closed".into()))
        }
    }
}
