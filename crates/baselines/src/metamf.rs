//! MetaMF — meta matrix factorization (Lin et al., SIGIR 2020), as a
//! hypernetwork baseline.
//!
//! The server learns a *meta network* that generates personalized item
//! embeddings per user; clients keep a private user vector and train it
//! against the generated embeddings, returning gradients w.r.t. the
//! embeddings (never their raw data). Our generator follows the
//! hypernetwork shape of the original: per-user code `z_u`, a shared item
//! basis `B`, and a *residual* gating layer
//!
//! `E_u = B ⊙ (1 + tanh(z_u W + b))`   (gate broadcast over items)
//!
//! so the server-side trainables are `{z_u}, B, W, b`. The `1 +` keeps the
//! generator near the identity at initialization (small `z`, `W` make the
//! tanh vanish), so training starts from a plain-MF basis instead of
//! all-zero embeddings. Per §IV of the
//! paper, traffic is embedding-matrix-sized in both directions (slightly
//! above FCF once codes/gradients are counted), and accuracy lands in the
//! same band as the other MF-family baselines — which is exactly the role
//! MetaMF plays in Tables III/IV.

use ptf_comm::Payload;
use ptf_data::negative::sample_negatives_into;
use ptf_data::{shuffle, Dataset, Scale};
use ptf_federated::{
    partition_clients, round_rng, ClientData, FederatedProtocol, Participation, RngStream,
    RoundCtx, RoundScratch, RoundTrace,
};
use ptf_models::mf::bce_loss;
use ptf_models::{stable_sigmoid, Recommender};
use ptf_tensor::par::{map_chunks, resolve_threads};
use ptf_tensor::{Matrix, RowTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// MetaMF configuration.
#[derive(Clone, Debug)]
pub struct MetaMfConfig {
    pub rounds: u32,
    pub local_epochs: u32,
    /// Client-side SGD rate (private user vectors).
    pub lr_client: f32,
    /// Server-side SGD rate (meta parameters).
    pub lr_server: f32,
    pub dim: usize,
    pub neg_ratio: usize,
    pub participation: Participation,
    pub seed: u64,
    /// Worker threads for the parallel client phase (`0` = every
    /// hardware thread); bit-identical results at any value.
    pub threads: usize,
}

impl Default for MetaMfConfig {
    fn default() -> Self {
        Self {
            rounds: 20,
            local_epochs: 5,
            lr_client: 0.05,
            lr_server: 0.2,
            dim: 32,
            neg_ratio: 4,
            participation: Participation::full(),
            seed: 41,
            threads: 0,
        }
    }
}

impl MetaMfConfig {
    pub fn small() -> Self {
        Self { rounds: 10, local_epochs: 3, dim: 16, ..Self::default() }
    }

    /// The configuration at `scale`: [`Self::default`] or [`Self::small`].
    pub fn at(scale: Scale) -> Self {
        scale.pick(Self::default, Self::small)
    }
}

/// A running MetaMF federation.
pub struct MetaMf {
    cfg: MetaMfConfig,
    /// Shared item basis B (V×d) — server meta parameter.
    basis: Matrix,
    /// Gating layer W (d×d), b (1×d) — server meta parameters.
    w_gate: Matrix,
    b_gate: Matrix,
    /// Per-user codes z_u (U×d) — server meta parameters.
    codes: Matrix,
    /// Private client user vectors (U×d) — *never transmitted*.
    user_emb: Matrix,
    clients: Vec<ClientData>,
    trainable: Vec<u32>,
    /// Each client-phase worker's scratch, kept across rounds.
    workers: Vec<RoundScratch>,
}

impl MetaMf {
    pub fn new(train: &Dataset, cfg: MetaMfConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let d = cfg.dim;
        let clients = partition_clients(train);
        let trainable = clients.iter().filter(|c| c.is_trainable()).map(|c| c.id).collect();
        Self {
            basis: Matrix::randn(train.num_items(), d, 0.1, &mut rng),
            w_gate: Matrix::randn(d, d, 0.1, &mut rng),
            b_gate: Matrix::zeros(1, d),
            codes: Matrix::randn(train.num_users(), d, 0.1, &mut rng),
            user_emb: Matrix::randn(train.num_users(), d, 0.1, &mut rng),
            clients,
            trainable,
            workers: Vec::new(),
            cfg,
        }
    }

    /// The gate vector `1 + tanh(z_u W + b)` and its pre-activation.
    fn gate_of(&self, user: u32) -> (Vec<f32>, Vec<f32>) {
        let d = self.cfg.dim;
        let z = self.codes.row(user as usize);
        let mut pre = self.b_gate.as_slice().to_vec();
        for (k, &zk) in z.iter().enumerate() {
            let wrow = self.w_gate.row(k);
            for (p, &w) in pre.iter_mut().zip(wrow) {
                *p += zk * w;
            }
        }
        debug_assert_eq!(pre.len(), d);
        let gate: Vec<f32> = pre.iter().map(|&x| 1.0 + x.tanh()).collect();
        (gate, pre)
    }

    /// Generated personalized embedding of one item: `B_i ⊙ gate`.
    fn gen_item(&self, gate: &[f32], item: u32) -> Vec<f32> {
        self.basis.row(item as usize).iter().zip(gate).map(|(&b, &g)| b * g).collect()
    }

    /// One client's local phase against the read-only pre-round server
    /// state: trains a private copy of the user vector and *pre-reduces*
    /// its generated-embedding gradients `dE_u` (per-step vectors are
    /// folded into `d_gate` and per-item basis-gradient rows in step
    /// order, so the buffered result is O(touched items × d), not
    /// O(steps × d) — the whole participant fleet's results are resident
    /// at once between the phases). Runs on client-phase workers; the basis
    /// it reads is the pre-round snapshot, matching the serial semantics.
    fn client_phase(
        &self,
        cid: u32,
        scratch: &mut RoundScratch,
        rng: &mut StdRng,
    ) -> MetaClientResult {
        let d = self.cfg.dim;
        let num_items = self.basis.rows();
        let (gate, pre) = self.gate_of(cid);
        let positives = &self.clients[cid as usize].positives;
        let mut user_row = self.user_emb.row(cid as usize).to_vec();

        // per-client reduction targets: dL/d(gate) and the per-item rows
        // of dL/dB (gradient through E_u = B ⊙ gate) — staged in a
        // row-sparse table scoped to the client's pool, the same
        // client-item-state machinery the scoped PTF clients run on
        let mut d_gate = vec![0.0f32; d];
        let mut g_basis_rows = RowTable::sparse_zeroed(num_items, d);
        g_basis_rows.reserve_rows(positives.len() * (1 + self.cfg.neg_ratio));
        let mut client_loss = 0.0f32;
        let mut steps = 0usize;
        for _ in 0..self.cfg.local_epochs {
            sample_negatives_into(
                positives,
                num_items,
                positives.len() * self.cfg.neg_ratio,
                rng,
                &mut scratch.negatives,
                &mut scratch.seen,
            );
            scratch.pool_ids.clear();
            scratch.pool_ids.extend_from_slice(positives);
            scratch.pool_ids.extend_from_slice(&scratch.negatives);
            scratch.pool_ids.sort_unstable();
            g_basis_rows.ensure_many(&scratch.pool_ids);
            scratch.pairs.clear();
            scratch.pairs.extend(positives.iter().map(|&i| (i, 1.0f32)));
            scratch.pairs.extend(scratch.negatives.iter().map(|&i| (i, 0.0f32)));
            let samples = &mut scratch.pairs;
            shuffle(samples, rng);
            for &(item, label) in samples.iter() {
                let e_i = self.gen_item(&gate, item);
                let logit: f32 = e_i.iter().zip(user_row.iter()).map(|(&a, &b)| a * b).sum();
                let err = stable_sigmoid(logit) - label;
                client_loss += bce_loss(logit, label);
                steps += 1;
                // dE_i = err · p, folded straight into the reductions
                let brow = self.basis.row(item as usize);
                let r = g_basis_rows.row_of(item);
                let grow = g_basis_rows.row_mut(r);
                for k in 0..d {
                    let de = err * user_row[k];
                    d_gate[k] += de * brow[k];
                    grow[k] += de * gate[k];
                }
                // dp = err · E_i (applied locally, stays private)
                for (pk, &ek) in user_row.iter_mut().zip(&e_i) {
                    *pk -= self.cfg.lr_client * err * ek;
                }
            }
        }
        let loss = client_loss / steps.max(1) as f32;
        MetaClientResult { client: cid, user_row, d_gate, g_basis_rows, pre, loss }
    }
}

/// One client's buffered contribution from the parallel phase.
struct MetaClientResult {
    client: u32,
    /// Trained private user vector (written back serially).
    user_row: Vec<f32>,
    /// Pre-reduced dL/d(gate) over the client's steps (in step order).
    d_gate: Vec<f32>,
    /// Pre-reduced per-item rows of dL/dB (sorted by item id).
    g_basis_rows: RowTable,
    /// Gate pre-activation (reused by the server-side backprop so it
    /// matches what the client trained against).
    pre: Vec<f32>,
    loss: f32,
}

impl FederatedProtocol for MetaMf {
    fn name(&self) -> &'static str {
        "MetaMF"
    }

    fn configured_rounds(&self) -> u32 {
        self.cfg.rounds
    }

    /// One round as a two-phase map/reduce: the client-side SGD (the
    /// dominant cost) and the per-client gradient pre-reduction run in
    /// parallel on per-client derived RNG streams against the read-only
    /// pre-round meta parameters; wire events and the cross-client
    /// accumulation into the meta gradients replay serially in
    /// participant order, so the result is identical at any thread count.
    fn run_round(&mut self, ctx: &mut RoundCtx<'_>) -> RoundTrace {
        let (seed, round) = (self.cfg.seed, ctx.round());
        let mut part_rng = round_rng(seed, round, RngStream::Participation);
        let participants = self.cfg.participation.sample(&self.trainable, &mut part_rng);
        ctx.begin(&participants);
        let n = participants.len().max(1) as f32;
        let d = self.cfg.dim;
        let num_items = self.basis.rows();

        // parallel client phase (per-worker scratch buffers, out of
        // `self` while the workers borrow it)
        let mut workers = std::mem::take(&mut self.workers);
        let this = &*self;
        let mut ids: Vec<u32> = participants.clone();
        let per_chunk = map_chunks(this.cfg.threads, &mut ids, &mut workers, |_, ids, scratch| {
            let each = ids.iter().map(|&cid| {
                let mut rng = round_rng(seed, round, RngStream::Client(cid));
                this.client_phase(cid, scratch, &mut rng)
            });
            each.collect::<Vec<MetaClientResult>>()
        });
        self.workers = workers;
        let results: Vec<MetaClientResult> = per_chunk.into_iter().flatten().collect();

        // serial phase: wire events + server-side backprop through the
        // generator (E_u = B ⊙ g, g = 1 + tanh(pre), pre = z W + b), in
        // participant order
        let mut g_basis = Matrix::zeros(num_items, d);
        let mut g_w = Matrix::zeros(d, d);
        let mut g_b = Matrix::zeros(1, d);
        let mut g_codes: Vec<(u32, Vec<f32>)> = Vec::with_capacity(results.len());
        let mut losses: Vec<f32> = Vec::with_capacity(results.len());

        for result in results {
            let cid = result.client;
            // server → client: generated embeddings E_u (V×d) + gate codes
            ctx.disperse(
                cid,
                "generated-embeddings",
                Payload::DenseMatrix { rows: num_items, cols: d },
            );
            ctx.disperse(cid, "meta-codes", Payload::Vector { len: d });
            losses.push(result.loss);
            // client → server: dE_u (full matrix on the wire, same privacy
            // rationale as FCF) + code gradient
            ctx.upload(
                cid,
                "embedding-gradients",
                Payload::DenseMatrix { rows: num_items, cols: d },
            );
            ctx.upload(cid, "code-gradients", Payload::Vector { len: d });
            self.user_emb.row_mut(cid as usize).copy_from_slice(&result.user_row);

            // fold the client's pre-reduced basis gradient into the round
            // aggregate; rows are disjoint per item, and the table
            // iterates in sorted id order, so aggregation order is
            // deterministic by construction
            for (item, row) in result.g_basis_rows.iter() {
                let grow = g_basis.row_mut(item as usize);
                for (g, &v) in grow.iter_mut().zip(row) {
                    *g += v;
                }
            }
            // through tanh
            let d_pre: Vec<f32> = result
                .d_gate
                .iter()
                .zip(&result.pre)
                .map(|(&dg, &x)| dg * (1.0 - x.tanh() * x.tanh()))
                .collect();
            let z = self.codes.row(cid as usize).to_vec();
            for (k, &zk) in z.iter().enumerate() {
                let wgrad = g_w.row_mut(k);
                for (w, &dp) in wgrad.iter_mut().zip(&d_pre) {
                    *w += zk * dp;
                }
            }
            for (gb, &dp) in g_b.row_mut(0).iter_mut().zip(&d_pre) {
                *gb += dp;
            }
            let wz: Vec<f32> = (0..d)
                .map(|k| self.w_gate.row(k).iter().zip(&d_pre).map(|(&w, &dp)| w * dp).sum())
                .collect();
            g_codes.push((cid, wz));
        }

        // apply averaged server updates
        let lr = self.cfg.lr_server / n;
        self.basis.scaled_add_assign(-lr, &g_basis);
        self.w_gate.scaled_add_assign(-lr, &g_w);
        self.b_gate.scaled_add_assign(-lr, &g_b);
        for (cid, dz) in g_codes {
            let row = self.codes.row_mut(cid as usize);
            for (zk, &d) in row.iter_mut().zip(&dz) {
                *zk -= self.cfg.lr_server * d;
            }
        }

        RoundTrace::new(round, &losses, 0.0, ctx.bytes())
    }

    fn recommender(&self) -> &dyn Recommender {
        self
    }

    fn threads(&self) -> usize {
        resolve_threads(self.cfg.threads)
    }
}

impl Recommender for MetaMf {
    fn name(&self) -> &'static str {
        "MetaMF"
    }

    fn num_users(&self) -> usize {
        self.codes.rows()
    }

    fn num_items(&self) -> usize {
        self.basis.rows()
    }

    fn num_params(&self) -> usize {
        self.basis.len() + self.w_gate.len() + self.b_gate.len() + self.codes.len()
    }

    fn logits_into(&self, user: u32, items: &[u32], out: &mut Vec<f32>) {
        let (gate, _) = self.gate_of(user);
        let p = self.user_emb.row(user as usize);
        out.clear();
        out.extend(items.iter().map(|&i| -> f32 {
            self.gen_item(&gate, i).iter().zip(p).map(|(&a, &b)| a * b).sum()
        }));
    }

    fn train_batch(&mut self, _batch: &[(u32, u32, f32)]) -> f32 {
        unimplemented!("MetaMF trains through its federated protocol, not batches")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptf_data::{SyntheticConfig, TrainTestSplit};
    use ptf_federated::Engine;

    fn split() -> TrainTestSplit {
        let data = SyntheticConfig::new("mm", 30, 60, 12.0).generate(&mut ptf_data::test_rng(8));
        TrainTestSplit::split_80_20(&data, &mut ptf_data::test_rng(9))
    }

    fn quick_cfg() -> MetaMfConfig {
        MetaMfConfig { rounds: 5, local_epochs: 2, dim: 8, ..MetaMfConfig::default() }
    }

    #[test]
    fn training_improves_loss() {
        let s = split();
        let mut mm = Engine::new(MetaMf::new(&s.train, quick_cfg()));
        let trace = mm.run();
        assert_eq!(trace.num_rounds(), 5);
        assert!(trace.client_loss_improved(), "{:?}", trace.rounds);
    }

    #[test]
    fn scores_are_probabilities_and_personalized() {
        let s = split();
        let mut mm = Engine::new(MetaMf::new(&s.train, quick_cfg()));
        mm.run();
        let a = mm.protocol().score(0, &[0, 1, 2]);
        let b = mm.protocol().score(1, &[0, 1, 2]);
        assert!(a.iter().all(|&p| (0.0..=1.0).contains(&p)));
        assert_ne!(a, b, "personalized embeddings should differ across users");
    }

    #[test]
    fn traffic_slightly_exceeds_fcf() {
        let s = split();
        let mut mm = Engine::new(MetaMf::new(&s.train, quick_cfg()));
        mm.run_round();
        let avg = mm.ledger().avg_client_bytes_per_round();
        let matrix_only = (s.train.num_items() * 8 * 4 * 2) as f64;
        assert!(avg > matrix_only, "codes should add to the matrix traffic");
        assert!(avg < matrix_only * 1.2, "overhead should stay small: {avg}");
    }

    #[test]
    fn evaluation_runs() {
        let s = split();
        let mut mm = Engine::new(MetaMf::new(&s.train, quick_cfg()));
        mm.run();
        let report = mm.evaluate(&s.train, &s.test, 10);
        assert!(report.users_evaluated > 0);
    }
}
