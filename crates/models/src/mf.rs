//! Matrix factorization: the workhorse of the parameter-transmission
//! baselines (FCF, FedMF) and a centralized reference point.
//!
//! Unlike the autograd-backed models, MF exposes its per-sample SGD step
//! ([`mf_sgd_step`]) directly: FCF trains a local copy of the item rows a
//! client touches with it and uploads the trained rows minus the round's
//! base rows as its gradient message (in the clear; FedMF wraps FCF and
//! encrypts it), so the step must be callable outside a model.
//!
//! The item table is a [`RowTable`]: dense for servers, baselines and
//! centralized runs, row-sparse for item-scoped clients, which hold only
//! the embedding rows they have actually touched (positives at
//! construction; each round's sampled negatives and dispersed items
//! through [`Recommender::prepare_items`]). Either way every row starts
//! from its seed-derived deterministic init. The table's trailing column
//! is the item bias, so one arena row carries the whole per-item state.

use crate::scoped::{dense_rng, item_seed, EMB_STD};
use crate::traits::Recommender;
use ptf_tensor::kernels;
use ptf_tensor::{Matrix, RowTable, ScopeView};

/// Numerically stable BCE of a logit against a (soft) target.
pub fn bce_loss(logit: f32, target: f32) -> f32 {
    logit.max(0.0) - logit * target + (-logit.abs()).exp().ln_1p()
}

/// `(stable_sigmoid(logit), bce_loss(logit, target))`, bit for bit, from
/// one `exp`: both are functions of `exp(-|logit|)`, and the per-sample
/// training step needs both.
#[inline]
pub(crate) fn sigmoid_and_bce(logit: f32, target: f32) -> (f32, f32) {
    let e = exp_neg_abs(logit);
    (sigmoid_from_exp(logit, e), bce_from_exp(logit, e, target))
}

/// `exp(-|logit|)`, the one transcendental both halves of
/// [`sigmoid_and_bce`] share.
#[inline(always)]
fn exp_neg_abs(logit: f32) -> f32 {
    (-logit.abs()).exp()
}

/// `stable_sigmoid(logit)` from `e = exp_neg_abs(logit)`.
#[inline(always)]
fn sigmoid_from_exp(logit: f32, e: f32) -> f32 {
    if logit >= 0.0 {
        1.0 / (1.0 + e)
    } else {
        e / (1.0 + e)
    }
}

/// `bce_loss(logit, target)` from `e = exp_neg_abs(logit)`.
#[inline(always)]
fn bce_from_exp(logit: f32, e: f32, target: f32) -> f32 {
    logit.max(0.0) - logit * target + e.ln_1p()
}

/// Applies one SGD step in place for `σ(⟨u, v⟩ + b) ≈ label` under BCE
/// with L2 regularization `reg` on both embeddings; returns the sample's
/// loss.
///
/// Allocation-free: the gradients are computed and applied elementwise
/// from the pre-step values — this runs inside every
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
    /// (plus whatever [`Recommender::prepare_items`] adds later), every
    /// row initialized from its `(seed, id)`-derived stream. Two models
    /// with the same `seed` — one `Full`, one `Rows` — hold bit-identical
    /// values on every shared row.
    pub fn new_scoped(
        num_users: usize,
        dim: usize,
        lr: f32,
        scope: ScopeView<'_>,
        seed: u64,
    ) -> Self {
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

    /// Mutable `[embedding.., bias]` row of a materialized item (FedAvg
    /// application in the baselines).
    ///
    /// # Panics
    /// If `item` is not materialized.
    pub fn item_row_mut(&mut self, item: u32) -> &mut [f32] {
        let r = self.items.row_of(item);
        self.items.row_mut(r)
    }

    pub fn logit(&self, user: u32, item: u32) -> f32 {
        let u = self.user_emb.row(user as usize);
        let dim = u.len();
        self.items.with_row(item, |row| kernels::dot(u, &row[..dim]) + row[dim])
    }
}

/// The most models [`train_lanes`] steps at once.
pub const LANES: usize = 4;

/// How many samples ahead a lane locates and prefetches item rows (a
/// power of two: the rows in flight sit in a ring indexed by sample).
const AHEAD: usize = 4;

/// How many samples' losses a lane holds back before adding them to its
/// chunk sum.
const HELD: usize = 16;

/// Where one model's SGD chain stands in a pass over its samples: the
/// per-lane state of [`train_lanes`], which the caller keeps between
/// calls. It reduces the loss exactly as [`crate::train_on_samples`]
/// does: an f32 sum per `batch`-sized chunk, divided by the chunk's
/// length, and the chunk means summed in f64.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochProgress {
    /// The next sample to step.
    next: usize,
    /// Samples whose losses are in the open chunk's f32 sum, and the sum.
    open: usize,
    batch_loss: f32,
    /// Sum of the closed chunks' mean losses.
    loss: f64,
    batches: usize,
}

impl EpochProgress {
    /// True once all `samples` of the pass have been stepped.
    pub fn finished(&self, samples: usize) -> bool {
        self.next >= samples
    }

    /// The pass's mean loss, bit for bit what `train_on_samples` returns
    /// for it (0 for a pass without samples).
    pub fn mean_loss(&self) -> f32 {
        if self.batches == 0 {
            0.0
        } else {
            (self.loss / self.batches as f64) as f32
        }
    }

    /// Adds held-back `(logit, exp(-|logit|), label)` samples' losses to
    /// the open chunk, in sample order.
    #[inline(always)]
    fn add_losses(&mut self, held: &[(f32, f32, f32)]) {
        for &(logit, e, label) in held {
            self.batch_loss += bce_from_exp(logit, e, label);
        }
        self.open += held.len();
    }

    #[inline(always)]
    fn close_chunk(&mut self) {
        self.loss += (self.batch_loss / self.open as f32) as f64;
        self.batches += 1;
        self.open = 0;
        self.batch_loss = 0.0;
    }
}

/// One lane of [`train_lanes`]: a model, its shuffled samples for the
/// current pass, the batch size its loss is reduced over, and where it
/// stands.
pub struct MfLane<'a> {
    pub model: &'a mut MfModel,
    pub samples: &'a [(u32, u32, f32)],
    pub batch: usize,
    pub progress: &'a mut EpochProgress,
}

impl MfLane<'_> {
    /// The row of sample `s`'s item, with a prefetch of its values.
    #[inline(always)]
    fn locate(&self, s: usize) -> usize {
        let items = &self.model.items;
        let r = items.row_of(self.samples[s].1);
        ptf_tensor::isa::prefetch(items.row(r));
        r
    }
}

/// Per-sample SGD on up to [`LANES`] independent models at once: every
/// step advances each lane by one sample, until some lane has stepped
/// the last sample of its pass.
///
/// Each lane's arithmetic is [`MfModel::train_batch`]'s, sample for
/// sample, so every model and every [`EpochProgress::mean_loss`] comes
/// out bit-identical to training that model alone with
/// `train_on_samples`. Only the instruction stream changes. One model's
/// samples form a single dependency chain through its user row — `dot`
/// → `exp` → divide → update → the next sample's `dot` — and a lone
/// chain leaves the core waiting on latency. A step issues the lanes'
/// logits, then their sigmoids, then their updates, so the out-of-order
/// core has up to four independent chains to overlap. Two more things
/// keep the chains short: a lane prefetches the item rows of its samples
/// a few steps ahead, and it holds back its samples' losses (the `ln_1p`
/// no chain waits for) and adds them up a few at a time, in order.
///
/// Every sample's item row must already be materialized
/// ([`Recommender::prepare_items`]), as for [`MfModel::train_batch`].
///
/// # Panics
/// On more than [`LANES`] lanes, a zero batch size, or a sample whose
/// item row is not materialized.
pub fn train_lanes<'a>(lanes: impl IntoIterator<Item = MfLane<'a>>) {
    use ptf_tensor::isa::dispatch;
    let mut lanes = lanes.into_iter();
    match (lanes.next(), lanes.next(), lanes.next(), lanes.next(), lanes.next()) {
        (None, ..) => {}
        (Some(a), None, ..) => dispatch(
            #[inline(always)]
            || step_lanes([a]),
        ),
        (Some(a), Some(b), None, ..) => dispatch(
            #[inline(always)]
            || step_lanes([a, b]),
        ),
        (Some(a), Some(b), Some(c), None, _) => dispatch(
            #[inline(always)]
            || step_lanes([a, b, c]),
        ),
        (Some(a), Some(b), Some(c), Some(d), None) => dispatch(
            #[inline(always)]
            || step_lanes([a, b, c, d]),
        ),
        _ => panic!("train_lanes takes at most {LANES} lanes"),
    }
}

#[inline(always)]
fn step_lanes<const N: usize>(mut lanes: [MfLane<'_>; N]) {
    assert!(lanes.iter().all(|l| l.batch > 0), "batch size must be positive");
    let steps = lanes.iter().map(|l| l.samples.len().saturating_sub(l.progress.next)).min();
    let steps = steps.unwrap_or(0);
    if steps == 0 {
        return;
    }
    // per lane, the rows of its next AHEAD samples, by sample index
    let mut ahead = [[0usize; AHEAD]; N];
    for (lane, ring) in lanes.iter().zip(&mut ahead) {
        let next = lane.progress.next;
        for s in next..(next + AHEAD).min(lane.samples.len()) {
            ring[s % AHEAD] = lane.locate(s);
        }
    }
    let mut held = [[(0.0f32, 0.0f32, 0.0f32); HELD]; N];
    let mut num_held = [0usize; N];
    for _ in 0..steps {
        let mut rows = [0usize; N];
        let mut logits = [0.0f32; N];
        for (k, lane) in lanes.iter().enumerate() {
            let s = lane.progress.next;
            rows[k] = ahead[k][s % AHEAD];
            if s + AHEAD < lane.samples.len() {
                ahead[k][s % AHEAD] = lane.locate(s + AHEAD);
            }
            let MfModel { user_emb, items, .. } = &*lane.model;
            let (item_vec, bias) = items.row(rows[k]).split_at(user_emb.cols());
            let user = user_emb.row(lane.samples[s].0 as usize);
            logits[k] = kernels::dot(user, item_vec) + bias[0];
        }
        let mut errs = [0.0f32; N];
        for (k, lane) in lanes.iter().enumerate() {
            let label = lane.samples[lane.progress.next].2;
            let e = exp_neg_abs(logits[k]);
            errs[k] = sigmoid_from_exp(logits[k], e) - label;
            held[k][num_held[k]] = (logits[k], e, label);
            num_held[k] += 1;
        }
        for (k, lane) in lanes.iter_mut().enumerate() {
            let u = lane.samples[lane.progress.next].0;
            let MfModel { user_emb, items, lr, reg } = &mut *lane.model;
            let dim = user_emb.cols();
            let (item_vec, bias) = items.row_mut(rows[k]).split_at_mut(dim);
            kernels::mf_sgd_update(user_emb.row_mut(u as usize), item_vec, errs[k], *lr, *reg);
            bias[0] -= *lr * errs[k];
            let progress = &mut *lane.progress;
            progress.next += 1;
            let closes =
                progress.open + num_held[k] == lane.batch || progress.next == lane.samples.len();
            if closes || num_held[k] == HELD {
                progress.add_losses(&held[k][..num_held[k]]);
                num_held[k] = 0;
                if closes {
                    progress.close_chunk();
                }
            }
        }
    }
    for (lane, (held, &n)) in lanes.iter_mut().zip(held.iter().zip(&num_held)) {
        lane.progress.add_losses(&held[..n]);
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
        self.items.index().view()
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
            let r = items.row_of(i);
            let (item_vec, bias) = items.row_mut(r).split_at_mut(dim);
            total +=
                mf_sgd_step(user_emb.row_mut(u as usize), item_vec, &mut bias[0], label, *lr, *reg);
        }
        total / batch.len() as f32
    }

    fn as_mf_mut(&mut self) -> Option<&mut MfModel> {
        Some(self)
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
    use crate::test_util::prepare_batch;
    use crate::traits::stable_sigmoid;

    #[test]
    fn catalogue_logits_equal_the_per_item_logit_bit_for_bit() {
        // dims on and off the lane width; dense and row-scoped tables
        for dim in [3usize, 8, 13, 32] {
            let batch = [(0u32, 5u32, 1.0f32), (1, 30, 0.0), (1, 44, 1.0), (0, 2, 0.0)];
            for scope in [ScopeView::Full(47), ScopeView::Rows { num_items: 47, ids: &[5, 9, 30] }]
            {
                let mut m = MfModel::new_scoped(2, dim, 0.1, scope, 9);
                prepare_batch(&mut m, &batch);
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
    fn lanes_train_each_model_as_train_on_samples_does_alone() {
        // uneven passes (a lane finishes, the rest carry on through
        // further calls) over dense and row-scoped tables, with batch
        // sizes on and off the held-back loss block
        let passes: [&[u32]; 4] = [&[3, 9, 3, 40, 41], &[9; 23], &[44, 2, 30], &[1]];
        let samples = |k: usize| -> Vec<(u32, u32, f32)> {
            passes[k].iter().map(|&i| (0, i, (i % 3) as f32 / 2.0)).collect()
        };
        let model = |k: usize| {
            let scope = if k.is_multiple_of(2) {
                ScopeView::Full(47)
            } else {
                ScopeView::Rows { num_items: 47, ids: &[9] }
            };
            let mut m = MfModel::new_scoped(1, 8, 0.1, scope, k as u64);
            prepare_batch(&mut m, &samples(k));
            m
        };
        for batch in [1usize, 4, 16, 17, 64] {
            let alone: Vec<_> = (0..LANES)
                .map(|k| {
                    let mut m = model(k);
                    let loss = crate::train_on_samples(&mut m, &samples(k), batch);
                    (m.export_full_state(), loss.to_bits())
                })
                .collect();
            for width in 1..=LANES {
                let mut lanes: Vec<_> =
                    (0..width).map(|k| (model(k), samples(k), EpochProgress::default())).collect();
                while lanes.iter().any(|(_, s, p)| !p.finished(s.len())) {
                    train_lanes(lanes.iter_mut().filter(|(_, s, p)| !p.finished(s.len())).map(
                        |(model, samples, progress)| MfLane { model, samples, batch, progress },
                    ));
                }
                for (k, (m, _, p)) in lanes.iter().enumerate() {
                    let got = (m.export_full_state(), p.mean_loss().to_bits());
                    assert!(got == alone[k], "batch {batch}, {width} lanes: lane {k} differs");
                }
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

    /// `(du, dv, db, loss)` of one sample: the update [`mf_sgd_step`]
    /// applies, divided by `-lr`.
    fn step_gradients(
        u: &[f32],
        v: &[f32],
        bias: f32,
        label: f32,
        reg: f32,
    ) -> (Vec<f32>, Vec<f32>, f32, f32) {
        let lr = 0.5;
        let (mut u2, mut v2, mut b2) = (u.to_vec(), v.to_vec(), bias);
        let loss = mf_sgd_step(&mut u2, &mut v2, &mut b2, label, lr, reg);
        let grad = |before: &[f32], after: &[f32]| -> Vec<f32> {
            before.iter().zip(after).map(|(&x, &y)| (y - x) / -lr).collect()
        };
        (grad(u, &u2), grad(v, &v2), (b2 - bias) / -lr, loss)
    }

    #[test]
    fn gradients_match_finite_differences() {
        let u = vec![0.3f32, -0.2, 0.5];
        let v = vec![-0.1f32, 0.4, 0.2];
        let bias = 0.05f32;
        let label = 1.0f32;
        let (du, dv, db, loss) = step_gradients(&u, &v, bias, label, 0.0);
        let loss_at = |uu: &[f32], vv: &[f32], b: f32| bce_loss(kernels::dot(uu, vv) + b, label);
        assert_eq!(loss, loss_at(&u, &v, bias), "the step reports the pre-step loss");
        let eps = 1e-3f32;
        let nudged = |x: &[f32], k: usize, by: f32| {
            let mut x = x.to_vec();
            x[k] += by;
            x
        };
        for k in 0..3 {
            let num_u = (loss_at(&nudged(&u, k, eps), &v, bias)
                - loss_at(&nudged(&u, k, -eps), &v, bias))
                / (2.0 * eps);
            assert!((du[k] - num_u).abs() < 1e-3, "du[{k}]: {} vs {num_u}", du[k]);
            let num_v = (loss_at(&u, &nudged(&v, k, eps), bias)
                - loss_at(&u, &nudged(&v, k, -eps), bias))
                / (2.0 * eps);
            assert!((dv[k] - num_v).abs() < 1e-3, "dv[{k}]: {} vs {num_v}", dv[k]);
        }
        let num_db = (loss_at(&u, &v, bias + eps) - loss_at(&u, &v, bias - eps)) / (2.0 * eps);
        assert!((db - num_db).abs() < 1e-3, "db: {db} vs {num_db}");
    }

    #[test]
    fn regularization_pulls_toward_zero() {
        let u = vec![1.0f32];
        let v = vec![0.0f32];
        // err = σ(0) − 0.5 = 0 → gradient is purely the reg term
        let (du, dv, db, _) = step_gradients(&u, &v, 0.0, 0.5, 0.1);
        assert!((du[0] - 0.1).abs() < 1e-6, "du: {}", du[0]);
        assert_eq!(dv[0], 0.0);
        assert_eq!(db, 0.0);
    }

    #[test]
    fn sgd_overfits_tiny_data() {
        let mut m = MfModel::new_scoped(2, 8, 0.1, ScopeView::Full(4), 2);
        let data: Vec<(u32, u32, f32)> = vec![(0, 0, 1.0), (0, 1, 0.0), (1, 2, 1.0), (1, 3, 0.0)];
        for _ in 0..300 {
            m.train_batch(&data);
        }
        let s0 = m.score(0, &[0, 1]);
        assert!(s0[0] > 0.8 && s0[1] < 0.2, "{s0:?}");
    }

    #[test]
    fn recommender_impl_shapes() {
        let m = MfModel::new_scoped(3, 4, 0.1, ScopeView::Full(5), 3);
        assert_eq!(m.num_params(), 3 * 4 + 5 * 4 + 5);
        assert_eq!(m.score_all(1).len(), 5);
        assert_eq!(m.name(), "MF");
        assert_eq!(m.item_scope(), ScopeView::Full(5));
    }

    #[test]
    fn scoped_model_holds_only_its_rows_until_touched() {
        let scope = ScopeView::Rows { num_items: 100, ids: &[3, 40, 77] };
        let mut m = MfModel::new_scoped(1, 8, 0.1, scope, 11);
        assert_eq!(m.num_items(), 100);
        assert_eq!(m.item_scope().len(), 3);
        assert_eq!(m.num_params(), 8 + 3 * 9);
        assert!(!m.item_scope().is_full());
        // scoring an out-of-scope item works (cold init) without growing
        let s = m.score(0, &[50])[0];
        assert!((0.0..=1.0).contains(&s));
        assert_eq!(m.item_scope().len(), 3, "scoring must not materialize");
        // preparing one adds exactly that row, with the init it scored at
        m.prepare_items(&[40, 50]);
        assert_eq!(m.item_scope().len(), 4);
        assert!(m.item_scope().contains(50));
        assert_eq!(m.score(0, &[50])[0], s);
    }

    #[test]
    #[should_panic(expected = "item 50 was not prepared")]
    fn training_an_unprepared_item_panics_naming_it() {
        let mut m =
            MfModel::new_scoped(1, 8, 0.1, ScopeView::Rows { num_items: 100, ids: &[3] }, 11);
        m.train_batch(&[(0, 3, 1.0), (0, 50, 0.0)]);
    }

    #[test]
    fn scoped_and_full_agree_on_shared_rows() {
        let full = MfModel::new_scoped(2, 8, 0.1, ScopeView::Full(50), 21);
        let rows =
            MfModel::new_scoped(2, 8, 0.1, ScopeView::Rows { num_items: 50, ids: &[5, 9, 30] }, 21);
        assert_eq!(full.score(1, &[5, 9, 30]), rows.score(1, &[5, 9, 30]));
        // …including out-of-scope (cold) items
        assert_eq!(full.score(0, &[17]), rows.score(0, &[17]));
    }

    #[test]
    fn eviction_keeps_dense_and_sparse_tables_bit_identical() {
        // the contract that makes eviction safe: a Full-scope model (rows
        // reset in place) and a Rows-scope model (rows physically removed)
        // stay bit-identical under the same train-and-evict schedule
        let mut full = MfModel::new_scoped(2, 8, 0.1, ScopeView::Full(50), 21);
        let mut rows =
            MfModel::new_scoped(2, 8, 0.1, ScopeView::Rows { num_items: 50, ids: &[5, 9] }, 21);
        let all: Vec<u32> = (0..50).collect();
        let batch = [(0u32, 5u32, 1.0f32), (0, 30, 0.0), (1, 44, 1.0), (1, 9, 0.0)];
        prepare_batch(&mut rows, &batch);
        full.train_batch(&batch);
        rows.train_batch(&batch);
        let keep = [5u32, 9];
        assert!(full.evict_items(&keep) > 0);
        assert_eq!(rows.evict_items(&keep), 2, "rows 30 and 44 must drop");
        assert_eq!(rows.item_scope().len(), 2, "sparse eviction bounds the row set");
        assert_eq!(full.score(0, &all), rows.score(0, &all), "post-evict scores diverged");
        // evicted rows re-materialize and keep training in lockstep
        prepare_batch(&mut rows, &batch);
        full.train_batch(&batch);
        rows.train_batch(&batch);
        assert_eq!(full.score(1, &all), rows.score(1, &all), "post-re-touch scores diverged");
    }

    #[test]
    fn export_import_roundtrip_scoped() {
        let scope = ScopeView::Rows { num_items: 30, ids: &[1, 4, 20] };
        let mut m = MfModel::new_scoped(2, 4, 0.2, scope, 5);
        m.prepare_items(&[25]);
        for _ in 0..20 {
            m.train_batch(&[(0, 1, 1.0), (1, 4, 0.0), (0, 25, 1.0)]);
        }
        let ckpt = m.export_full_state().unwrap();
        let expected = m.score(0, &[1, 4, 20, 25, 7]);

        let mut fresh = MfModel::new_scoped(2, 4, 0.2, scope, 999);
        assert_ne!(fresh.score(0, &[1, 4, 20, 25, 7]), expected);
        fresh.import_full_state(&ckpt).unwrap();
        assert_eq!(fresh.score(0, &[1, 4, 20, 25, 7]), expected);
        assert!(fresh.item_scope().contains(25), "materialized rows restored");

        // wrong-shape and wrong-arch checkpoints are rejected
        let mut other = MfModel::new_scoped(3, 4, 0.2, scope, 5);
        assert!(other.import_full_state(&ckpt).unwrap_err().contains("shape mismatch"));
        assert!(m.import_full_state("{garbage").is_err());
    }
}
