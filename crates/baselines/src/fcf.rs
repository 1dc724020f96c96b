//! FCF — Federated Collaborative Filtering (Ammad-ud-din et al., 2019).
//!
//! The canonical parameter-transmission FedRec: the server owns global
//! item embeddings; every round each client downloads them, runs local
//! SGD on its private interactions (updating its *private* user vector in
//! place and a local copy of the item rows it touches), and uploads the
//! item-matrix delta. The server averages deltas.
//!
//! Communication per client per round is two full item-matrix transfers —
//! the MB-scale cost Table IV contrasts with PTF-FedRec's KB-scale
//! triples. (Uploading the *full* delta matrix rather than touched rows is
//! deliberate and faithful: a sparse upload would reveal exactly which
//! items the client interacted with.)

use ptf_comm::Payload;
use ptf_data::negative::sample_negatives_into;
use ptf_data::{shuffle, Dataset, Scale};
use ptf_federated::{
    partition_clients, round_rng, ClientData, FederatedProtocol, Participation, RngStream,
    RoundCtx, RoundScratch, RoundTrace, Scheduler, ScratchPool,
};
use ptf_models::mf::{mf_sgd_step, MfModel};
use ptf_models::Recommender;
use ptf_tensor::{RowTable, ScopeView};
use rand::rngs::StdRng;

/// Observer over one client's item-delta rows: `(client, delta, dim, V)`.
/// The delta is a [`RowTable`] scoped to the items the client touched;
/// each row is `[Δembedding.., Δbias]`.
type DeltaObserver<'a> = dyn FnMut(u32, &RowTable, usize, usize) + 'a;

/// One client's buffered contribution from the parallel phase.
struct ClientResult {
    client: u32,
    /// Trained private user vector (written back serially).
    user_row: Vec<f32>,
    /// Item-row deltas, scoped to the touched items (sorted by id, so
    /// serial aggregation order is deterministic by construction).
    delta: RowTable,
    loss: f32,
}

/// FCF configuration (paper-aligned defaults).
#[derive(Clone, Debug)]
pub struct FcfConfig {
    pub rounds: u32,
    pub local_epochs: u32,
    /// Local SGD learning rate.
    pub lr: f32,
    pub neg_ratio: usize,
    pub dim: usize,
    pub reg: f32,
    pub participation: Participation,
    pub seed: u64,
    /// Worker threads for the parallel client phase (`0` = every
    /// hardware thread); bit-identical results at any value.
    pub threads: usize,
}

impl Default for FcfConfig {
    fn default() -> Self {
        Self {
            rounds: 20,
            local_epochs: 5,
            lr: 0.05,
            neg_ratio: 4,
            dim: 32,
            reg: 1e-4,
            participation: Participation::full(),
            seed: 31,
            threads: 0,
        }
    }
}

impl FcfConfig {
    pub fn small() -> Self {
        Self { rounds: 10, local_epochs: 3, dim: 16, ..Self::default() }
    }

    /// The configuration at `scale`: [`Self::default`] or [`Self::small`].
    pub fn at(scale: Scale) -> Self {
        scale.pick(Self::default, Self::small)
    }
}

/// A running FCF federation.
pub struct Fcf {
    cfg: FcfConfig,
    /// `user_emb` rows are the clients' *private* vectors (held here only
    /// because this is a single-process simulation — they never enter the
    /// wire accounting); the item table (`item_embedding()`/`item_bias()`
    /// per row, `item_row_mut()` for FedAvg) is the global shared state.
    model: MfModel,
    clients: Vec<ClientData>,
    trainable: Vec<u32>,
    scheduler: Scheduler,
    scratch: ScratchPool,
}

impl Fcf {
    pub fn new(train: &Dataset, cfg: FcfConfig) -> Self {
        let scope = ScopeView::Full(train.num_items());
        let model = MfModel::new_scoped(train.num_users(), cfg.dim, cfg.lr, scope, cfg.seed);
        let clients = partition_clients(train);
        let trainable = clients.iter().filter(|c| c.is_trainable()).map(|c| c.id).collect();
        let scheduler = Scheduler::new(cfg.threads);
        Self { cfg, model, clients, trainable, scheduler, scratch: ScratchPool::new() }
    }

    /// The wire size of one direction of the exchange (item matrix+bias).
    fn transfer_payload(&self) -> Payload {
        Payload::DenseMatrix { rows: self.model.num_items(), cols: self.cfg.dim + 1 }
    }

    /// One client's local phase, against a *read-only* model snapshot:
    /// trains a private copy of the user vector plus local copies of the
    /// item rows it touches, and returns the finished [`ClientResult`]
    /// (user row, item-row deltas, mean loss). Runs on scheduler workers —
    /// the only shared state it sees is the pre-round model, so the result
    /// depends solely on `(client, rng)`.
    ///
    /// The local working copies live in a [`RowTable`] scoped to the
    /// client's pool: each epoch grows the rows of its sorted pool in one
    /// pass, a fresh row copied from the server's pre-round values — the
    /// same row-sparse client-item-state machinery PTF-FedRec clients are
    /// built on, here sized to `positives × (1 + ratio)` instead of the
    /// full catalogue.
    fn client_update(
        model: &MfModel,
        client: &ClientData,
        cfg: &FcfConfig,
        scratch: &mut RoundScratch,
        rng: &mut StdRng,
    ) -> ClientResult {
        let dim = cfg.dim;
        let mut user_row = model.user_emb.row(client.id as usize).to_vec();
        // local working copies of the item rows this client will touch:
        // `[embedding.., bias]` per row, seeded from the pre-round model
        let mut local = RowTable::sparse_zeroed(model.num_items(), dim + 1);
        local.reserve_rows(client.positives.len() * (1 + cfg.neg_ratio));
        let mut loss_sum = 0.0f32;
        let mut steps = 0usize;
        for _ in 0..cfg.local_epochs {
            sample_negatives_into(
                &client.positives,
                model.num_items(),
                client.positives.len() * cfg.neg_ratio,
                rng,
                &mut scratch.negatives,
                &mut scratch.seen,
            );
            scratch.pool_ids.clear();
            scratch.pool_ids.extend_from_slice(&client.positives);
            scratch.pool_ids.extend_from_slice(&scratch.negatives);
            scratch.pool_ids.sort_unstable();
            local.ensure_many_with(&scratch.pool_ids, |item, row| {
                row[..dim].copy_from_slice(model.item_embedding(item));
                row[dim] = model.item_bias(item);
            });
            scratch.pairs.clear();
            scratch.pairs.extend(client.positives.iter().map(|&i| (i, 1.0f32)));
            scratch.pairs.extend(scratch.negatives.iter().map(|&i| (i, 0.0f32)));
            let samples = &mut scratch.pairs;
            shuffle(samples, rng);
            for &(item, label) in samples.iter() {
                let r = local.row_of(item);
                let (row, bias) = local.row_mut(r).split_at_mut(dim);
                loss_sum += mf_sgd_step(&mut user_row, row, &mut bias[0], label, cfg.lr, cfg.reg);
                steps += 1;
            }
        }
        let loss = if steps == 0 { 0.0 } else { loss_sum / steps as f32 };
        // the gradient message: trained local rows minus the pre-round base
        for r in 0..local.rows() {
            let item = local.index().id_of(r);
            let base_row = model.item_embedding(item);
            let base_bias = model.item_bias(item);
            let row = local.row_mut(r);
            for (d, &old) in row[..dim].iter_mut().zip(base_row) {
                *d -= old;
            }
            row[dim] -= base_bias;
        }
        ClientResult { client: client.id, user_row, delta: local, loss }
    }
}

impl Fcf {
    /// Like [`FederatedProtocol::run_round`], but hands every client's
    /// full item-matrix delta (V×(dim+1), bias in the last column — the
    /// exact message FCF puts on the wire) to `on_delta` before
    /// aggregation. FedMF uses this to run its encrypt → aggregate →
    /// decrypt cycle over the *real* gradients.
    pub fn run_round_observed(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        mut on_delta: impl FnMut(u32, &ptf_tensor::Matrix),
    ) -> RoundTrace {
        self.run_round_inner(ctx, &mut |cid, delta, dim, num_items| {
            let mut dense = ptf_tensor::Matrix::zeros(num_items, dim + 1);
            for (item, row) in delta.iter() {
                dense.row_mut(item as usize).copy_from_slice(row);
            }
            on_delta(cid, &dense);
        })
    }

    /// Shared round body; `observer` sees `(client, delta rows, dim, V)`.
    ///
    /// Two-phase map/reduce: every participant's [`Fcf::client_update`]
    /// runs in parallel against the pre-round model (clients are mutually
    /// independent — in the real FCF they *are* separate devices), then
    /// the buffered results are replayed serially in participant order so
    /// wire events, the observer, and the floating-point delta
    /// aggregation see exactly the stream a serial loop would produce.
    fn run_round_inner(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        observer: &mut DeltaObserver<'_>,
    ) -> RoundTrace {
        let (seed, round) = (self.cfg.seed, ctx.round());
        let mut part_rng = round_rng(seed, round, RngStream::Participation);
        let participants = self.cfg.participation.sample(&self.trainable, &mut part_rng);
        ctx.begin(&participants);

        let dim = self.cfg.dim;
        let num_items = self.model.num_items();
        let n = participants.len().max(1) as f32;

        // parallel phase: one derived RNG stream per client, read-only
        // model snapshot, per-worker scratch buffers
        let (model, cfg, clients) = (&self.model, &self.cfg, &self.clients);
        let mut ids: Vec<u32> = participants.clone();
        let results: Vec<ClientResult> =
            self.scheduler.map_clients_with(&self.scratch, &mut ids, |scratch, _, &mut cid| {
                let mut rng = round_rng(seed, round, RngStream::Client(cid));
                Self::client_update(model, &clients[cid as usize], cfg, scratch, &mut rng)
            });

        // serial phase: replay in participant order; the round aggregate
        // is itself a row-sparse table over the union of touched items
        let mut delta_sum = RowTable::sparse_zeroed(num_items, dim + 1);
        let mut losses: Vec<f32> = Vec::with_capacity(results.len());
        for result in results {
            let cid = result.client;
            ctx.disperse(cid, "item-embeddings", self.transfer_payload());
            losses.push(result.loss);
            observer(cid, &result.delta, dim, num_items);
            // per-item accumulation commutes across items (disjoint
            // entries); within an item the order is participant order.
            // Materialize this client's union of touched items in one
            // backward-merge pass first
            if let Some(ids) = result.delta.index().ids() {
                delta_sum.ensure_many(ids);
            }
            for (item, row) in result.delta.iter() {
                let r = delta_sum.row_of(item);
                for (d, &v) in delta_sum.row_mut(r).iter_mut().zip(row) {
                    *d += v;
                }
            }
            ctx.upload(cid, "item-gradients", self.transfer_payload());
            self.model.user_emb.row_mut(cid as usize).copy_from_slice(&result.user_row);
        }

        // FedAvg over the participant set
        for (item, drow) in delta_sum.iter() {
            let row = self.model.item_row_mut(item);
            for (p, d) in row.iter_mut().zip(drow) {
                *p += d / n;
            }
        }

        RoundTrace::new(round, &losses, 0.0, ctx.bytes())
    }
}

impl FederatedProtocol for Fcf {
    fn name(&self) -> &'static str {
        "FCF"
    }

    fn configured_rounds(&self) -> u32 {
        self.cfg.rounds
    }

    fn run_round(&mut self, ctx: &mut RoundCtx<'_>) -> RoundTrace {
        self.run_round_inner(ctx, &mut |_, _, _, _| {})
    }

    fn recommender(&self) -> &dyn Recommender {
        &self.model
    }

    fn threads(&self) -> usize {
        self.scheduler.threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptf_data::{SyntheticConfig, TrainTestSplit};
    use ptf_federated::Engine;
    use ptf_models::evaluate_model;

    fn split() -> TrainTestSplit {
        let data = SyntheticConfig::new("f", 30, 60, 12.0).generate(&mut ptf_data::test_rng(4));
        TrainTestSplit::split_80_20(&data, &mut ptf_data::test_rng(5))
    }

    fn quick_cfg() -> FcfConfig {
        FcfConfig { rounds: 5, local_epochs: 2, dim: 8, ..FcfConfig::default() }
    }

    #[test]
    fn federated_training_improves_ranking() {
        let s = split();
        let mut fcf = Engine::new(Fcf::new(&s.train, quick_cfg()));
        let before = evaluate_model(fcf.protocol().recommender(), &s.train, &s.test, 10);
        let trace = fcf.run();
        assert_eq!(trace.num_rounds(), 5);
        assert!(trace.client_loss_improved(), "{:?}", trace.rounds);
        let after = fcf.evaluate(&s.train, &s.test, 10);
        assert!(
            after.metrics.recall >= before.metrics.recall,
            "FCF made ranking worse: {:?} → {:?}",
            before.metrics,
            after.metrics
        );
    }

    #[test]
    fn communication_is_model_sized() {
        let s = split();
        let mut fcf = Engine::new(Fcf::new(&s.train, quick_cfg()));
        fcf.run_round();
        let expected_one_way = (s.train.num_items() * (8 + 1) * 4) as f64;
        let avg = fcf.ledger().avg_client_bytes_per_round();
        assert!(
            (avg - 2.0 * expected_one_way).abs() < 1.0,
            "per-client traffic {avg} should be 2×{expected_one_way}"
        );
    }

    #[test]
    fn private_user_vectors_change_only_for_participants() {
        let s = split();
        let mut cfg = quick_cfg();
        cfg.participation = Participation { fraction: 0.3, min_clients: 1 };
        let mut fcf = Engine::new(Fcf::new(&s.train, cfg));
        let before = fcf.protocol().model.user_emb.clone();
        fcf.run_round();
        let mut changed = 0;
        for u in 0..s.train.num_users() {
            if fcf.protocol().model.user_emb.row(u) != before.row(u) {
                changed += 1;
            }
        }
        let expected = (s.train.num_users() as f64 * 0.3).round() as usize;
        assert_eq!(changed, expected, "non-participants' private state moved");
    }

    #[test]
    fn deterministic_under_seed() {
        let s = split();
        let run = || {
            let mut f = Engine::new(Fcf::new(&s.train, quick_cfg()));
            f.run();
            f.evaluate(&s.train, &s.test, 10).metrics.ndcg
        };
        assert_eq!(run(), run());
    }
}
