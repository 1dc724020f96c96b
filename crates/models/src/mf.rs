//! Matrix factorization: the workhorse of the parameter-transmission
//! baselines (FCF, FedMF) and a centralized reference point.
//!
//! Unlike the autograd-backed models, MF exposes its per-sample gradient
//! math directly — the federated baselines need raw item-embedding
//! gradients as *protocol messages* (FCF uploads them in the clear, FedMF
//! encrypts them), so the math must be callable outside a training step.
//!
//! The item table is a [`RowTable`]: dense for servers, baselines and
//! centralized runs, row-sparse for item-scoped clients, which hold only
//! the embedding rows they have actually touched (positives at
//! construction; sampled negatives and dispersed items materialize
//! lazily). Either way every row starts from its seed-derived
//! deterministic init. The table's trailing column is the item bias, so
//! one arena row carries the whole per-item state.

use crate::scoped::{dense_rng, item_seed, EMB_STD};
use crate::traits::{Recommender, ScopeView};
use ptf_tensor::kernels;
use ptf_tensor::{ItemScope, Matrix, RowTable};

/// Numerically stable BCE of a logit against a (soft) target.
pub fn bce_loss(logit: f32, target: f32) -> f32 {
    logit.max(0.0) - logit * target + (-logit.abs()).exp().ln_1p()
}

/// `(stable_sigmoid(logit), bce_loss(logit, target))`, bit for bit, from
/// one `exp`: both are functions of `exp(-|logit|)`, and the per-sample
/// training step needs both.
#[inline]
pub(crate) fn sigmoid_and_bce(logit: f32, target: f32) -> (f32, f32) {
    let e = (-logit.abs()).exp();
    let sigmoid = if logit >= 0.0 { 1.0 / (1.0 + e) } else { e / (1.0 + e) };
    (sigmoid, logit.max(0.0) - logit * target + e.ln_1p())
}

/// Per-sample MF gradients for `σ(⟨u, v⟩ + b) ≈ label` under BCE with L2
/// regularization `reg` on both embeddings, written into caller-owned
/// scratch buffers (resized to `dim`, previous contents overwritten).
///
/// This is the allocation-free form the federated round loops use: FCF
/// and FedMF compute these gradients once *per sample per round*, so two
/// fresh `Vec`s per call would dominate their heap traffic. Returns
/// `(db, loss)`.
pub fn mf_gradients_into(
    du: &mut Vec<f32>,
    dv: &mut Vec<f32>,
    user_vec: &[f32],
    item_vec: &[f32],
    item_bias: f32,
    label: f32,
    reg: f32,
) -> (f32, f32) {
    debug_assert_eq!(user_vec.len(), item_vec.len());
    let logit = kernels::dot(user_vec, item_vec) + item_bias;
    let (sigmoid, loss) = sigmoid_and_bce(logit, label);
    let err = sigmoid - label;
    du.clear();
    du.extend(user_vec.iter().zip(item_vec).map(|(&u, &v)| err * v + reg * u));
    dv.clear();
    dv.extend(user_vec.iter().zip(item_vec).map(|(&u, &v)| err * u + reg * v));
    (err, loss)
}

/// Allocating convenience wrapper over [`mf_gradients_into`].
///
/// Returns `(du, dv, db, loss)`.
pub fn mf_gradients(
    user_vec: &[f32],
    item_vec: &[f32],
    item_bias: f32,
    label: f32,
    reg: f32,
) -> (Vec<f32>, Vec<f32>, f32, f32) {
    let mut du = Vec::new();
    let mut dv = Vec::new();
    let (db, loss) = mf_gradients_into(&mut du, &mut dv, user_vec, item_vec, item_bias, label, reg);
    (du, dv, db, loss)
}

/// Applies one SGD step in place; returns the sample's loss.
///
/// Allocation-free: the gradients are computed and applied elementwise
/// from the pre-step values (bit-identical to materializing `du`/`dv`
/// via [`mf_gradients`] and then applying them) — this runs inside every
/// client's local round, where a heap allocation per sample is exactly
/// the memory-bandwidth waste the scratch-buffer hot path eliminates.
pub fn mf_sgd_step(
    user_vec: &mut [f32],
    item_vec: &mut [f32],
    item_bias: &mut f32,
    label: f32,
    lr: f32,
    reg: f32,
) -> f32 {
    debug_assert_eq!(user_vec.len(), item_vec.len());
    let logit = kernels::dot(user_vec, item_vec) + *item_bias;
    let (sigmoid, loss) = sigmoid_and_bce(logit, label);
    let err = sigmoid - label;
    kernels::mf_sgd_update(user_vec, item_vec, err, lr, reg);
    *item_bias -= lr * err;
    loss
}

/// A plain MF model (user table, item [`RowTable`] with a trailing bias
/// column) implementing [`Recommender`] with per-sample SGD. Used as a
/// centralized sanity baseline, the paper-scale throughput client, and
/// the building block the federated baselines decompose.
pub struct MfModel {
    pub user_emb: Matrix,
    /// Item state: `dim` embedding columns + 1 bias column per row.
    items: RowTable,
    pub lr: f32,
    pub reg: f32,
}

/// Checkpoint wire form (state only; hyperparameters stay live).
#[derive(serde::Serialize, serde::Deserialize)]
struct MfWire {
    arch: String,
    user_emb: Matrix,
    items: RowTable,
}

impl MfModel {
    /// An item-scoped MF model: the item table materializes only `scope`
    /// (plus whatever later training touches), every row initialized from
    /// its `(seed, id)`-derived stream. Two models with the same `seed`
    /// — one `Full`, one `Rows` — hold bit-identical values on every
    /// shared row.
    pub fn new_scoped(num_users: usize, dim: usize, lr: f32, scope: &ItemScope, seed: u64) -> Self {
        // the user table draws from its own derived stream so its values
        // cannot depend on the item scope (Full vs Rows parity)
        let user_emb = Matrix::randn(num_users, dim, EMB_STD, &mut dense_rng(seed));
        let items = RowTable::from_scope(scope, dim + 1, dim, EMB_STD, item_seed(seed));
        Self { user_emb, items, lr, reg: 1e-4 }
    }

    pub fn dim(&self) -> usize {
        self.user_emb.cols()
    }

    /// The item table (scope inspection, delta staging in baselines).
    pub fn items(&self) -> &RowTable {
        &self.items
    }

    /// Embedding slice of a materialized item.
    ///
    /// # Panics
    /// If `item` is not materialized (use [`Recommender::item_scope`] or
    /// score through [`MfModel::logit`], which handles cold rows).
    pub fn item_embedding(&self, item: u32) -> &[f32] {
        let r = self.items.lookup(item).expect("item row not materialized");
        &self.items.row(r)[..self.dim()]
    }

    /// Bias of a materialized item (see [`MfModel::item_embedding`]).
    pub fn item_bias(&self, item: u32) -> f32 {
        let r = self.items.lookup(item).expect("item row not materialized");
        self.items.row(r)[self.dim()]
    }

    /// Mutable `[embedding.., bias]` row of an item, materializing it if
    /// needed (FedAvg application in the baselines).
    pub fn item_row_mut(&mut self, item: u32) -> &mut [f32] {
        let r = self.items.ensure(item);
        self.items.row_mut(r)
    }

    /// Pre-reserves item-row capacity (see [`RowTable::reserve_rows`]).
    pub fn reserve_item_rows(&mut self, additional: usize) {
        self.items.reserve_rows(additional);
    }

    pub fn logit(&self, user: u32, item: u32) -> f32 {
        let u = self.user_emb.row(user as usize);
        let dim = u.len();
        self.items.with_row(item, |row| kernels::dot(u, &row[..dim]) + row[dim])
    }
}

impl Recommender for MfModel {
    fn name(&self) -> &'static str {
        "MF"
    }

    fn num_users(&self) -> usize {
        self.user_emb.rows()
    }

    fn num_items(&self) -> usize {
        self.items.num_items()
    }

    fn num_params(&self) -> usize {
        // materialized rows only — the whole point of scoping
        self.user_emb.len() + self.items.len()
    }

    fn item_scope(&self) -> ScopeView<'_> {
        match self.items.ids() {
            None => ScopeView::Full(self.items.num_items()),
            Some(ids) => ScopeView::Rows(ids),
        }
    }

    fn prepare_items(&mut self, sorted_ids: &[u32]) {
        self.items.ensure_many(sorted_ids);
    }

    fn evict_items(&mut self, keep_sorted: &[u32]) -> usize {
        // MF has no optimizer moments — the row table carries the whole
        // per-item state, so table-level eviction is the entire operation
        self.items.retain_ids(keep_sorted)
    }

    fn logits_into(&self, user: u32, items: &[u32], out: &mut Vec<f32>) {
        out.clear();
        out.extend(items.iter().map(|&i| self.logit(user, i)));
    }

    /// A dense table is one row-major block of `[embedding, bias]` rows,
    /// so the catalogue goes through [`kernels::row_logits`], whose every
    /// logit equals [`MfModel::logit`]'s bit for bit; a row-scoped table
    /// scores id by id, deriving the cold rows.
    fn logits_all_into(&self, user: u32, out: &mut Vec<f32>) {
        out.clear();
        if self.items.is_dense() {
            out.resize(self.num_items(), 0.0);
            kernels::row_logits(self.user_emb.row(user as usize), self.items.arena(), out);
        } else {
            out.extend((0..self.num_items() as u32).map(|i| self.logit(user, i)));
        }
    }

    fn train_batch(&mut self, batch: &[(u32, u32, f32)]) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        // disjoint field borrows: the user row and the item row live in
        // different containers, so the whole step runs in place
        let dim = self.dim();
        let Self { user_emb, items, lr, reg } = self;
        let mut total = 0.0;
        for &(u, i, label) in batch {
            let r = items.ensure(i);
            let (item_vec, bias) = items.row_mut(r).split_at_mut(dim);
            total +=
                mf_sgd_step(user_emb.row_mut(u as usize), item_vec, &mut bias[0], label, *lr, *reg);
        }
        total / batch.len() as f32
    }

    fn export_full_state(&self) -> Option<String> {
        // MF trains with plain SGD (no optimizer moments, no RNG), so the
        // user table + full row table with its ids and init seed is
        // already lossless for bit-identical resume
        let wire = MfWire {
            arch: "MF".to_string(),
            user_emb: self.user_emb.clone(),
            items: self.items.clone(),
        };
        serde_json::to_string(&wire).ok()
    }

    fn import_full_state(&mut self, json: &str) -> Result<(), String> {
        let wire: MfWire =
            serde_json::from_str(json).map_err(|e| format!("bad checkpoint: {e}"))?;
        if wire.arch != "MF" {
            return Err(format!("architecture mismatch: expected MF, got {}", wire.arch));
        }
        if wire.user_emb.shape() != self.user_emb.shape() {
            return Err(format!(
                "shape mismatch for user_emb: {:?} vs {:?}",
                wire.user_emb.shape(),
                self.user_emb.shape()
            ));
        }
        if wire.items.num_items() != self.items.num_items()
            || wire.items.cols() != self.items.cols()
        {
            return Err(format!(
                "shape mismatch for items: {}x{} vs {}x{}",
                wire.items.num_items(),
                wire.items.cols(),
                self.items.num_items(),
                self.items.cols()
            ));
        }
        self.user_emb = wire.user_emb;
        self.items = wire.items;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::stable_sigmoid;

    #[test]
    fn catalogue_logits_equal_the_per_item_logit_bit_for_bit() {
        // dims on and off the lane width; dense and row-scoped tables
        for dim in [3usize, 8, 13, 32] {
            let batch = [(0u32, 5u32, 1.0f32), (1, 30, 0.0), (1, 44, 1.0), (0, 2, 0.0)];
            for scope in [ItemScope::Full(47), ItemScope::rows(47, vec![5, 9, 30])] {
                let mut m = MfModel::new_scoped(2, dim, 0.1, &scope, 9);
                m.train_batch(&batch);
                for user in 0..2 {
                    let mut all = vec![7.0; 2];
                    m.logits_all_into(user, &mut all);
                    assert_eq!(all.len(), 47);
                    for (i, &x) in all.iter().enumerate() {
                        assert_eq!(x.to_bits(), m.logit(user, i as u32).to_bits(), "item {i}");
                    }
                    let scores = m.score_all(user);
                    for (s, x) in scores.iter().zip(&all) {
                        assert_eq!(s.to_bits(), stable_sigmoid(*x).to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn fused_sigmoid_and_bce_is_bit_identical_to_the_two_calls() {
        let mut logits = vec![0.0f32, -0.0, 88.0, -88.0, 104.0, -104.0, 1e-40, -1e-40];
        logits.extend([f32::MIN_POSITIVE, -f32::MIN_POSITIVE, f32::MAX, f32::MIN]);
        logits.extend([f32::INFINITY, f32::NEG_INFINITY]);
        logits.extend((-4000..=4000).map(|k| k as f32 * 0.0251));
        for &x in &logits {
            for t in [0.0f32, 1.0, 0.3, 0.999] {
                let (sigmoid, loss) = sigmoid_and_bce(x, t);
                assert_eq!(sigmoid.to_bits(), stable_sigmoid(x).to_bits(), "sigmoid, x={x:e}");
                assert_eq!(loss.to_bits(), bce_loss(x, t).to_bits(), "loss, x={x:e} t={t}");
            }
        }
    }

    #[test]
    fn bce_loss_matches_naive_formula() {
        for &(x, t) in &[(0.5f32, 1.0f32), (-2.0, 0.0), (3.0, 0.3), (0.0, 0.5)] {
            let s = stable_sigmoid(x);
            let naive = -(t * s.ln() + (1.0 - t) * (1.0 - s).ln());
            assert!((bce_loss(x, t) - naive).abs() < 1e-5, "x={x} t={t}");
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let u = vec![0.3f32, -0.2, 0.5];
        let v = vec![-0.1f32, 0.4, 0.2];
        let bias = 0.05f32;
        let label = 1.0f32;
        let (du, dv, db, _) = mf_gradients(&u, &v, bias, label, 0.0);
        let eps = 1e-3f32;
        for k in 0..3 {
            let mut up = u.clone();
            up[k] += eps;
            let mut un = u.clone();
            un[k] -= eps;
            let logit =
                |uu: &[f32]| -> f32 { uu.iter().zip(&v).map(|(&a, &b)| a * b).sum::<f32>() + bias };
            let num = (bce_loss(logit(&up), label) - bce_loss(logit(&un), label)) / (2.0 * eps);
            assert!((du[k] - num).abs() < 1e-3, "du[{k}]: {} vs {num}", du[k]);
        }
        // dv symmetric by construction; spot-check bias
        let num_db =
            (bce_loss(u.iter().zip(&v).map(|(&a, &b)| a * b).sum::<f32>() + bias + eps, label)
                - bce_loss(
                    u.iter().zip(&v).map(|(&a, &b)| a * b).sum::<f32>() + bias - eps,
                    label,
                ))
                / (2.0 * eps);
        assert!((db - num_db).abs() < 1e-3);
        let _ = dv;
    }

    #[test]
    fn regularization_pulls_toward_zero() {
        let u = vec![1.0f32];
        let v = vec![0.0f32];
        // err = σ(0) − 0.5 = 0 → gradient is purely the reg term
        let (du, dv, _, _) = mf_gradients(&u, &v, 0.0, 0.5, 0.1);
        assert!((du[0] - 0.1).abs() < 1e-6);
        assert_eq!(dv[0], 0.0);
    }

    #[test]
    fn sgd_overfits_tiny_data() {
        let mut m = MfModel::new_scoped(2, 8, 0.1, &ItemScope::Full(4), 2);
        let data: Vec<(u32, u32, f32)> = vec![(0, 0, 1.0), (0, 1, 0.0), (1, 2, 1.0), (1, 3, 0.0)];
        for _ in 0..300 {
            m.train_batch(&data);
        }
        let s0 = m.score(0, &[0, 1]);
        assert!(s0[0] > 0.8 && s0[1] < 0.2, "{s0:?}");
    }

    #[test]
    fn recommender_impl_shapes() {
        let m = MfModel::new_scoped(3, 4, 0.1, &ItemScope::Full(5), 3);
        assert_eq!(m.num_params(), 3 * 4 + 5 * 4 + 5);
        assert_eq!(m.score_all(1).len(), 5);
        assert_eq!(m.name(), "MF");
        assert_eq!(m.item_scope(), ScopeView::Full(5));
        assert!(!m.scoped());
    }

    #[test]
    fn scoped_model_holds_only_its_rows_until_touched() {
        let scope = ItemScope::rows(100, vec![3, 40, 77]);
        let mut m = MfModel::new_scoped(1, 8, 0.1, &scope, 11);
        assert_eq!(m.num_items(), 100);
        assert_eq!(m.item_scope().len(), 3);
        assert_eq!(m.num_params(), 8 + 3 * 9);
        assert!(m.scoped());
        // scoring an out-of-scope item works (cold init) without growing
        let s = m.score(0, &[50])[0];
        assert!((0.0..=1.0).contains(&s));
        assert_eq!(m.item_scope().len(), 3, "scoring must not materialize");
        // training one touches exactly that row
        m.train_batch(&[(0, 50, 1.0)]);
        assert_eq!(m.item_scope().len(), 4);
        assert!(m.item_scope().contains(50));
    }

    #[test]
    fn scoped_and_full_agree_on_shared_rows() {
        let full = MfModel::new_scoped(2, 8, 0.1, &ItemScope::Full(50), 21);
        let rows = MfModel::new_scoped(2, 8, 0.1, &ItemScope::rows(50, vec![5, 9, 30]), 21);
        assert_eq!(full.score(1, &[5, 9, 30]), rows.score(1, &[5, 9, 30]));
        // …including out-of-scope (cold) items
        assert_eq!(full.score(0, &[17]), rows.score(0, &[17]));
    }

    #[test]
    fn eviction_keeps_dense_and_sparse_tables_bit_identical() {
        // the contract that makes eviction safe: a Full-scope model (rows
        // reset in place) and a Rows-scope model (rows physically removed)
        // stay bit-identical under the same train-and-evict schedule
        let mut full = MfModel::new_scoped(2, 8, 0.1, &ItemScope::Full(50), 21);
        let mut rows = MfModel::new_scoped(2, 8, 0.1, &ItemScope::rows(50, vec![5, 9]), 21);
        let all: Vec<u32> = (0..50).collect();
        let batch = [(0u32, 5u32, 1.0f32), (0, 30, 0.0), (1, 44, 1.0), (1, 9, 0.0)];
        full.train_batch(&batch);
        rows.train_batch(&batch);
        let keep = [5u32, 9];
        assert!(full.evict_items(&keep) > 0);
        assert_eq!(rows.evict_items(&keep), 2, "rows 30 and 44 must drop");
        assert_eq!(rows.item_scope().len(), 2, "sparse eviction bounds the row set");
        assert_eq!(full.score(0, &all), rows.score(0, &all), "post-evict scores diverged");
        // evicted rows re-materialize and keep training in lockstep
        full.train_batch(&batch);
        rows.train_batch(&batch);
        assert_eq!(full.score(1, &all), rows.score(1, &all), "post-re-touch scores diverged");
    }

    #[test]
    fn export_import_roundtrip_scoped() {
        let scope = ItemScope::rows(30, vec![1, 4, 20]);
        let mut m = MfModel::new_scoped(2, 4, 0.2, &scope, 5);
        for _ in 0..20 {
            m.train_batch(&[(0, 1, 1.0), (1, 4, 0.0), (0, 25, 1.0)]);
        }
        let ckpt = m.export_full_state().unwrap();
        let expected = m.score(0, &[1, 4, 20, 25, 7]);

        let mut fresh = MfModel::new_scoped(2, 4, 0.2, &scope, 999);
        assert_ne!(fresh.score(0, &[1, 4, 20, 25, 7]), expected);
        fresh.import_full_state(&ckpt).unwrap();
        assert_eq!(fresh.score(0, &[1, 4, 20, 25, 7]), expected);
        assert!(fresh.item_scope().contains(25), "materialized rows restored");

        // wrong-shape and wrong-arch checkpoints are rejected
        let mut other = MfModel::new_scoped(3, 4, 0.2, &scope, 5);
        assert!(other.import_full_state(&ckpt).unwrap_err().contains("shape mismatch"));
        assert!(m.import_full_state("{garbage").is_err());
    }
}
