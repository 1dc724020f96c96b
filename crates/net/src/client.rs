//! The client runner: hosts a shard of the fleet over one connection.
//!
//! A `ptf client` process builds the clients for its assigned user ids —
//! bit-identical to the same clients inside an in-process run, thanks to
//! the per-client `ClientInit` RNG streams — then answers each round's
//! announcement by training the listed clients in lanes, as the
//! in-process hosts do, and folds dispersed server knowledge back in.
//! All protocol state advances from server frames; the shard never
//! assumes it was sampled.

use crate::config_fingerprint;
use crate::error::NetError;
use crate::transport::ClientConn;
use crate::wire::Frame;
use ptf_core::{rounds, PtfClient, PtfConfig};
use ptf_data::Dataset;
use ptf_federated::RoundScratch;
use ptf_models::mf::LANES;
use ptf_models::{ModelHyper, ModelKind};
use serde::Serialize;
use std::time::Duration;

/// Fault injection for the straggler tests: once `round`'s announcement
/// arrives, the whole shard sleeps for `delay` before its lanes start —
/// long enough past the round deadline and the server drops it for that
/// round.
#[derive(Clone, Copy, Debug)]
pub struct Straggle {
    pub round: u32,
    pub delay: Duration,
}

/// Everything a client shard needs besides the dataset and connection.
pub struct ShardOptions {
    /// Must match the server's config — the handshake fingerprint
    /// rejects drifted configs before any round runs.
    pub cfg: PtfConfig,
    pub client_kind: ModelKind,
    pub server_kind: ModelKind,
    pub hyper: ModelHyper,
    /// The user ids this process hosts (any subset of `0..num_users`).
    pub ids: Vec<u32>,
    /// Optional induced straggle (tests, chaos drills).
    pub straggle: Option<Straggle>,
}

/// What one shard saw over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ShardSummary {
    /// Logical clients hosted.
    pub clients: usize,
    /// Uploads sent (one per announced client).
    pub participations: u64,
    /// `Dropped` notices received (uploads that missed a deadline).
    pub dropped: u64,
    /// Rounds the server reported finished.
    pub rounds_finished: u32,
    /// Protocol data bytes sent (upload data sections — the ledger's
    /// size model, frame headers excluded).
    pub bytes_up: u64,
    /// Protocol data bytes received (dispersal data sections).
    pub bytes_down: u64,
}

/// Runs the shard to completion: handshakes every hosted client, serves
/// round announcements until the server says `Finished`.
///
/// The server closing the connection before `Finished` is an error
/// (mid-run disconnect); a `Reject` for any hosted client is a
/// handshake error. Both map to exit code 1 in the CLI — never a panic.
pub fn run_shard(
    train: &Dataset,
    conn: &mut ClientConn,
    opts: &ShardOptions,
) -> Result<ShardSummary, NetError> {
    opts.cfg.validate().map_err(|e| NetError::Protocol(e.to_string()))?;
    if opts.ids.is_empty() {
        return Err(NetError::Protocol("shard hosts no client ids".into()));
    }
    let fleet = train.num_users() as u32;
    if let Some(&bad) = opts.ids.iter().find(|&&id| id >= fleet) {
        return Err(NetError::Protocol(format!("client id {bad} outside fleet 0..{fleet}")));
    }
    let fingerprint = config_fingerprint(
        &opts.cfg,
        opts.client_kind,
        opts.server_kind,
        &opts.hyper,
        train.num_users(),
        train.num_items(),
    );

    // build this shard's slice of the fleet (bit-identical to in-process),
    // in ascending id order so an announcement resolves in one merge pass
    let mut ids = opts.ids.clone();
    ids.sort_unstable();
    let mut clients: Vec<PtfClient> = ids
        .iter()
        .map(|&id| rounds::build_client(train, id, opts.client_kind, &opts.hyper, &opts.cfg))
        .collect();
    let mut scratch: [RoundScratch; LANES] = Default::default();

    for c in &clients {
        conn.send(&Frame::Hello { client: c.id, trainable: c.num_positives() > 0, fingerprint })?;
    }

    let mut summary = ShardSummary { clients: clients.len(), ..ShardSummary::default() };
    let mut welcomed = 0usize;
    loop {
        let frame = match conn.recv()? {
            Some(frame) => frame,
            None => {
                return Err(NetError::Disconnected(
                    "server closed the connection before the run finished".into(),
                ))
            }
        };
        match frame {
            Frame::Welcome { fleet: server_fleet, rounds: server_rounds, .. } => {
                if server_fleet as usize != train.num_users() || server_rounds != opts.cfg.rounds {
                    return Err(NetError::Handshake(format!(
                        "server runs fleet {server_fleet} × {server_rounds} rounds, \
                         this shard expects {} × {}",
                        train.num_users(),
                        opts.cfg.rounds
                    )));
                }
                welcomed += 1;
            }
            Frame::Reject { client, reason } => {
                return Err(NetError::Handshake(format!(
                    "server rejected client {client}: {}",
                    reason.message()
                )));
            }
            Frame::Announce { round, clients: announced, .. } => {
                if welcomed < clients.len() {
                    return Err(NetError::Protocol(format!(
                        "round {round} announced before all {} hellos were welcomed",
                        clients.len()
                    )));
                }
                let lanes = announced_clients(&mut clients, round, &announced)?;
                if let Some(s) = opts.straggle {
                    if s.round == round {
                        std::thread::sleep(s.delay);
                    }
                }
                // each upload leaves as soon as its lane finishes; after a
                // failed send the round still trains out, unsent
                let mut sent = Ok(());
                rounds::train_in_lanes(&opts.cfg, round, &mut scratch, lanes, |_, c, up, loss| {
                    let client = c.id;
                    let triples =
                        up.predictions.iter().map(|&(item, score)| (client, item, score)).collect();
                    c.recycle_upload(up);
                    if sent.is_ok() {
                        let frame = Frame::Upload { client, round, loss, triples };
                        summary.bytes_up += frame.data_section_bytes() as u64;
                        summary.participations += 1;
                        sent = conn.send(&frame);
                    }
                });
                sent?;
            }
            Frame::Disperse { client, round, triples } => {
                let Ok(at) = clients.binary_search_by_key(&client, |c| c.id) else { continue };
                let num_items = train.num_items() as u32;
                if let Some((user, item, score)) =
                    crate::server::untrainable(&triples, client, num_items)
                {
                    return Err(NetError::Protocol(format!(
                        "round {round} dispersal to client {client}: the triple of user {user}, \
                         item {item} and score {score} names another user, an item outside the \
                         {num_items}-item catalogue or a score that is not a probability"
                    )));
                }
                summary.bytes_down += (triples.len() * ptf_comm::message::BYTES_PER_TRIPLE) as u64;
                clients[at]
                    .receive_disperse(triples.into_iter().map(|(_, item, s)| (item, s)).collect());
            }
            Frame::Dropped { .. } => {
                summary.dropped += 1;
            }
            Frame::Finished { rounds } => {
                summary.rounds_finished = rounds;
                return Ok(summary);
            }
            Frame::Hello { .. } | Frame::Upload { .. } => {
                return Err(NetError::Protocol("server sent a client-only frame".into()));
            }
        }
    }
}

/// The hosted clients an announcement lists, in its order. The list must
/// be strictly ascending and name only clients this shard hosts;
/// anything else is a protocol violation naming the round and the
/// client, not a round the server would wait out. `clients` is sorted
/// by id.
fn announced_clients<'c>(
    clients: &'c mut [PtfClient],
    round: u32,
    announced: &[u32],
) -> Result<Vec<&'c mut PtfClient>, NetError> {
    if let Some(w) = announced.windows(2).find(|w| w[0] >= w[1]) {
        let what = if w[0] == w[1] { "repeats" } else { "is out of ascending order at" };
        return Err(NetError::Protocol(format!(
            "round {round} announcement {what} client {}",
            w[1]
        )));
    }
    let mut want = announced.iter().copied().peekable();
    let lanes: Vec<_> = clients.iter_mut().filter(|c| want.next_if_eq(&c.id).is_some()).collect();
    match want.next() {
        None => Ok(lanes),
        Some(stray) => Err(NetError::Protocol(format!(
            "round {round} announces client {stray}, which this shard does not host"
        ))),
    }
}
