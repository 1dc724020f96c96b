//! The reusable halves of a PTF-FedRec round.
//!
//! One driver, [`crate::Round`], runs Algorithm 1 at every client host —
//! resident, stored, or behind `ptf-net`'s transport — and it assembles
//! each round from the pieces here. They are public because two callers
//! outside the driver must match it bit for bit: a `ptf client` shard
//! process builds and trains its clients with [`build_client`] and
//! [`train_in_lanes`], and outside choreography (a benchmark that times
//! each half) replays a round call by call and checks its `RunTrace`
//! against the driver's.
//!
//! * [`build_client`] / [`build_server`] — fleet construction from the
//!   per-participant derived `ClientInit`/`ServerInit` RNG streams, so a
//!   client built alone in a remote process is bit-identical to the same
//!   client built inside the in-process fleet;
//! * [`sample_participants`] — the per-round `Participation` draw;
//! * [`train_in_lanes`] — the client phase of one worker, the one
//!   client-phase loop of the resident, stored and shard hosts. It runs each
//!   participant's local round in its split form — prepare, one epoch at
//!   a time, finish (see [`crate::client`]) — and steps up to four MF
//!   clients' epochs together through one fused SGD kernel;
//! * [`client_round`] — one client's local training + upload on its own
//!   `RngStream::Client` stream: the one-lane case of [`train_in_lanes`];
//! * [`server_phase`] — the serial reduce: upload replay into the
//!   round's ledger (in ascending client order), hidden-model training,
//!   and per-client dispersal on `RngStream::Disperse` streams, the
//!   catalogue scored for eight participants per pass over the server's
//!   item table.
//!
//! Everything here is deterministic given `(cfg.seed, round)`: no step
//! reads ambient state, so the caller may be an in-process worker, a
//! TCP client process, or a test harness.

use crate::client::PtfClient;
use crate::config::PtfConfig;
use crate::server::{PtfServer, DISPERSE_BLOCK};
use crate::upload::ClientUpload;
use ptf_comm::Payload;
use ptf_data::{shuffle, Dataset};
use ptf_federated::{
    derive_seed, round_rng, ClientData, RngStream, RoundCtx, RoundScratch, RoundTrace,
};
use ptf_models::mf::{self, EpochProgress, MfLane, LANES};
use ptf_models::{ModelHyper, ModelKind};
use ptf_privacy::ScoredItem;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::BorrowMut;

/// Builds the client for user `id` exactly as the in-process fleet
/// build does: partition from `train`, model seeded by the client's own
/// derived `RngStream::ClientInit` stream. Callers that host only a
/// subset of the fleet (a `ptf client` process) get bit-identical
/// client state to an in-process run.
pub fn build_client(
    train: &Dataset,
    id: u32,
    kind: ModelKind,
    hyper: &ModelHyper,
    cfg: &PtfConfig,
) -> PtfClient {
    let data = ClientData { id, positives: train.user_items(id).to_vec() };
    let client_seed = derive_seed(cfg.seed, 0, RngStream::ClientInit(id).id());
    PtfClient::new(data, kind, hyper, train.num_items(), client_seed, cfg)
}

/// Builds the hidden server model from the `RngStream::ServerInit`
/// stream — independent of client construction order (or location).
pub fn build_server(
    num_users: usize,
    num_items: usize,
    kind: ModelKind,
    hyper: &ModelHyper,
    cfg: &PtfConfig,
) -> PtfServer {
    let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 0, RngStream::ServerInit.id()));
    PtfServer::new(num_users, num_items, kind, hyper, &mut rng)
}

/// Draws the round's participant set `U^t` from the trainable fleet on
/// the `RngStream::Participation` stream (sorted ascending).
pub fn sample_participants(cfg: &PtfConfig, trainable: &[u32], round: u32) -> Vec<u32> {
    let mut rng = round_rng(cfg.seed, round, RngStream::Participation);
    cfg.participation.sample(trainable, &mut rng)
}

/// One client's half of a round (Algorithm 1 lines 5–8): local training
/// on `D_i ∪ D̃_i` plus upload construction, on the client's own derived
/// `RngStream::Client` stream. It is the one-lane case of
/// [`train_in_lanes`], so where the client runs — alone on a worker,
/// beside other lanes, in a remote process — cannot change the result.
pub fn client_round(
    client: &mut PtfClient,
    cfg: &PtfConfig,
    round: u32,
    scratch: &mut RoundScratch,
) -> (ClientUpload, f32) {
    let mut result = None;
    train_in_lanes(cfg, round, std::slice::from_mut(scratch), [client], |_, _, upload, loss| {
        result = Some((upload, loss));
    });
    result.expect("one participant in, one upload out")
}

/// One participant in a lane, from its negative draw to its upload.
struct Lane<C> {
    /// Position in the participant sequence.
    at: usize,
    client: C,
    rng: StdRng,
    epochs_left: u32,
    loss_sum: f32,
    progress: EpochProgress,
}

/// The client phase of one worker: [`client_round`] for each of
/// `participants`, up to `scratch.len()` (at most [`LANES`]) of them at
/// once. Each finished participant is handed to `done` with its position
/// in the sequence, its upload and its loss; participants finish out of
/// order.
///
/// A *lane* holds one participant from its negative draw to its upload,
/// with its own RNG stream and its own `scratch` entry. Lanes whose model
/// is MF advance together through one
/// [`ptf_models::mf::train_lanes`] kernel, one SGD sample of each per
/// step, so a core overlaps their dependency chains. When a lane's client
/// finishes, the lane takes the next participant. A client without the
/// MF hook trains alone, all its epochs at once, in the lane it was
/// given.
///
/// Interleaving cannot change a bit: a client's arithmetic and the order
/// of its RNG draws are the same in any lane, beside any neighbours, as
/// in [`client_round`] — the kernel steps each lane exactly as
/// `MfModel::train_batch` would, and reduces its loss as
/// `train_on_samples` does.
///
/// Once every participant is done, the buffers of the lanes that took one
/// are levelled ([`RoundScratch::level`]), so a worker that keeps its
/// `scratch` across rounds stops allocating once it has served each of
/// its clients.
///
/// `C` is whatever a host keeps a participant in: `&mut PtfClient` for a
/// resident fleet, an owned `PtfClient` for one restored per round (built
/// lazily, when a lane pulls it from `participants`, and returned through
/// `done`).
///
/// # Panics
/// If `scratch` is empty.
pub fn train_in_lanes<C: BorrowMut<PtfClient>>(
    cfg: &PtfConfig,
    round: u32,
    scratch: &mut [RoundScratch],
    participants: impl IntoIterator<Item = C>,
    mut done: impl FnMut(usize, C, ClientUpload, f32),
) {
    let width = scratch.len().min(LANES);
    assert!(width > 0, "a worker needs scratch for at least one lane");
    let scratch = &mut scratch[..width];
    let mut queue = participants.into_iter().enumerate();
    let mut lanes: [Option<Lane<C>>; LANES] = std::array::from_fn(|_| None);
    // lanes that took a participant: a non-MF client trains to the end in
    // the lane it is given, so those all pass through lane 0
    let mut used = 0;
    loop {
        for (k, (slot, scratch)) in lanes.iter_mut().zip(scratch.iter_mut()).enumerate() {
            while slot.is_none() {
                let Some((at, client)) = queue.next() else { break };
                used = used.max(k + 1);
                *slot = start_lane(cfg, round, scratch, at, client, &mut done);
            }
        }
        if lanes.iter().all(Option::is_none) {
            RoundScratch::level(&mut scratch[..used]);
            return;
        }
        mf::train_lanes(lanes.iter_mut().zip(scratch.iter()).filter_map(|(slot, scratch)| {
            let Lane { client, progress, .. } = slot.as_mut()?;
            Some(MfLane {
                model: client.borrow_mut().mf_model().expect("a lane holds an MF client"),
                samples: &scratch.row_samples,
                batch: cfg.client_batch,
                progress,
            })
        }));
        for (slot, scratch) in lanes.iter_mut().zip(scratch.iter_mut()) {
            let Some(lane) = slot else { continue };
            if !lane.progress.finished(scratch.row_samples.len()) {
                continue;
            }
            lane.loss_sum += lane.progress.mean_loss();
            lane.epochs_left -= 1;
            if lane.epochs_left > 0 {
                lane.progress = EpochProgress::default();
                shuffle(&mut scratch.row_samples, &mut lane.rng);
            } else if let Some(Lane { at, mut client, mut rng, loss_sum, .. }) = slot.take() {
                let (upload, loss) =
                    client.borrow_mut().finish_round(cfg, scratch, &mut rng, loss_sum);
                done(at, client, upload, loss);
            }
        }
    }
}

/// Prepares participant `at` in a free lane and shuffles its first
/// epoch. A client without the MF hook (or without epochs) is trained
/// and finished right here instead, and the lane stays free.
fn start_lane<C: BorrowMut<PtfClient>>(
    cfg: &PtfConfig,
    round: u32,
    scratch: &mut RoundScratch,
    at: usize,
    mut client: C,
    done: &mut impl FnMut(usize, C, ClientUpload, f32),
) -> Option<Lane<C>> {
    let c = client.borrow_mut();
    let mut rng = round_rng(cfg.seed, round, RngStream::Client(c.id));
    c.prepare_round(cfg, scratch, &mut rng);
    if c.mf_model().is_some() && cfg.client_epochs > 0 {
        shuffle(&mut scratch.row_samples, &mut rng);
        let epochs_left = cfg.client_epochs;
        let progress = EpochProgress::default();
        return Some(Lane { at, client, rng, epochs_left, loss_sum: 0.0, progress });
    }
    let mut loss_sum = 0.0;
    for _ in 0..cfg.client_epochs {
        loss_sum += c.train_epoch(cfg, scratch, &mut rng);
    }
    let (upload, loss) = c.finish_round(cfg, scratch, &mut rng, loss_sum);
    done(at, client, upload, loss);
    None
}

/// The server's serial half of a round (Algorithm 1 lines 9–12): replay
/// the collected uploads into the round's ledger, train the hidden model
/// on their union, and compute each participant's dispersal set.
///
/// The dispersal scores the catalogue for a block of up to eight
/// participants at once, then selects each one's D̃ᵢ in ascending order
/// on its own `RngStream::Disperse` stream: the same sets, bit for bit,
/// as [`PtfServer::disperse_for`] gives each participant alone.
///
/// `uploads` must be in ascending client order — the order every host
/// hands the driver its uploads in. Returns the server training loss and
/// one `(client, items)` dispersal per upload; delivering the items
/// (locally or over a wire) is the caller's job.
///
/// `map` compacts user ids for the hidden model. The cohort runtime's
/// *active-participants* server scope builds the model over only the
/// users that can ever participate, indexed by their position in the
/// sorted active set. With `map = Some(active)` the server model and its
/// soft-edge memory see compact ids, while everything observable from
/// outside — observer/ledger records, the dispersal keys, and every RNG
/// stream — stays keyed by the raw client id. `None` keys the model by
/// raw id.
pub fn server_phase(
    server: &mut PtfServer,
    cfg: &PtfConfig,
    round: u32,
    uploads: &[ClientUpload],
    ctx: &mut RoundCtx<'_>,
    map: Option<&[u32]>,
) -> (f32, Vec<(u32, Vec<ScoredItem>)>) {
    debug_assert!(uploads.windows(2).all(|w| w[0].client < w[1].client));
    for up in uploads {
        ctx.upload(up.client, "client-predictions", Payload::Triples { count: up.len() });
    }
    let compact = |raw: u32| -> u32 {
        match map {
            None => raw,
            Some(active) => {
                active.binary_search(&raw).expect("participant missing from the active-user map")
                    as u32
            }
        }
    };
    let mut server_rng = round_rng(cfg.seed, round, RngStream::Server);
    let server_loss = server.train_on_uploads_as(uploads, cfg, &mut server_rng, compact);
    let mut disperses = Vec::with_capacity(uploads.len());
    for block in uploads.chunks(DISPERSE_BLOCK) {
        let mut users = [0; DISPERSE_BLOCK];
        for (user, up) in users.iter_mut().zip(block) {
            *user = compact(up.client);
        }
        server.score_block(&users[..block.len()]);
        for (k, up) in block.iter().enumerate() {
            let uploaded = up.predictions.iter().map(|&(i, _)| i);
            let mut disperse_rng = round_rng(cfg.seed, round, RngStream::Disperse(up.client));
            let items = server.select_scored(k, uploaded, cfg, &mut disperse_rng);
            ctx.disperse(up.client, "server-predictions", Payload::Triples { count: items.len() });
            disperses.push((up.client, items));
        }
    }
    (server_loss, disperses)
}

/// Assembles the round's trace exactly as the in-process protocol does:
/// `losses` in participant order (ascending client id), the server loss,
/// and the context's byte total.
pub fn round_trace(round: u32, losses: &[f32], server_loss: f32, ctx: &RoundCtx<'_>) -> RoundTrace {
    RoundTrace::new(round, losses, server_loss, ctx.bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptf_data::{SyntheticConfig, TrainTestSplit};

    /// A round scores its participants in blocks; `disperse_for` scores
    /// one client. Over three trained rounds of an MF server, with 13, 8
    /// and 18 participants drawn from part of the fleet (partial blocks
    /// of five and two), keyed by raw id
    /// and through an active-user map, every participant gets the D̃ᵢ the
    /// one-client entry gives it from its sorted upload: ids, order and
    /// score bits.
    #[test]
    fn block_dispersal_equals_per_client_disperse_for() {
        let data =
            SyntheticConfig::new("blocks", 40, 400, 10.0).generate(&mut ptf_data::test_rng(3));
        let split = TrainTestSplit::split_80_20(&data, &mut ptf_data::test_rng(4));
        let (users, items) = (split.train.num_users(), split.train.num_items());
        let hyper = ModelHyper::small();
        let mut cfg = PtfConfig::small();
        cfg.alpha = 8;
        let active: Vec<u32> = (0..users as u32).filter(|u| u % 3 != 1).collect();
        let all: Vec<u32> = (0..users as u32).collect();
        for map in [None, Some(&active[..])] {
            let pool = map.unwrap_or(&all);
            let compact = |raw: u32| match map {
                None => raw,
                Some(active) => active.binary_search(&raw).unwrap() as u32,
            };
            let [mut blocks, mut alone] =
                [(); 2].map(|_| build_server(pool.len(), items, ModelKind::Mf, &hyper, &cfg));
            assert!(blocks.model().item_scope().is_full(), "the server table is dense");
            let mut scratch = RoundScratch::default();
            for (round, count) in [(0u32, 13usize), (1, 8), (2, 18)] {
                let participants = pool.iter().skip(round as usize).step_by(1 + round as usize % 2);
                let uploads: Vec<ClientUpload> = participants
                    .take(count)
                    .map(|&id| {
                        let mut client =
                            build_client(&split.train, id, ModelKind::Mf, &hyper, &cfg);
                        client_round(&mut client, &cfg, round, &mut scratch).0
                    })
                    .collect();
                assert_eq!(uploads.len(), count);
                let mut ctx = RoundCtx::detached(round);
                let (loss, got) = server_phase(&mut blocks, &cfg, round, &uploads, &mut ctx, map);

                let mut rng = round_rng(cfg.seed, round, RngStream::Server);
                let want_loss = alone.train_on_uploads_as(&uploads, &cfg, &mut rng, compact);
                assert_eq!(loss.to_bits(), want_loss.to_bits());
                assert_eq!(got.len(), count);
                for (up, (client, dispersal)) in uploads.iter().zip(&got) {
                    let mut uploaded: Vec<u32> = up.predictions.iter().map(|&(i, _)| i).collect();
                    uploaded.sort_unstable();
                    let mut rng = round_rng(cfg.seed, round, RngStream::Disperse(up.client));
                    let want = alone.disperse_for(compact(up.client), &uploaded, &cfg, &mut rng);
                    let bits = |d: &[ScoredItem]| -> Vec<(u32, u32)> {
                        d.iter().map(|&(i, s)| (i, s.to_bits())).collect()
                    };
                    assert_eq!(*client, up.client);
                    assert_eq!(dispersal.len(), cfg.alpha);
                    assert_eq!(bits(dispersal), bits(&want), "round {round}, client {client}");
                }
            }
        }
    }
}
