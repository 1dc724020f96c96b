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
//! through [`Recommender::prepare_items`]) until that growth would cost
//! as much as the dense table, which then replaces it. Either way every
//! row starts from its seed-derived deterministic init. The table's
//! trailing column is the item bias, so one arena row carries the whole
//! per-item state.
//!
//! Two kernels train it, both under [`isa::dispatch`] and both the
//! arithmetic of [`mf_sgd_step`] sample by sample: [`train_lanes`] steps
//! up to four one-user client models side by side, and
//! [`MfModel::train_batch`] (the server's, over many users) steps runs of
//! up to four consecutive samples whose users and items are pairwise
//! distinct. Each takes its samples' `exp` four lanes at a time through
//! [`math::exp`] (glibc's FMA `expf` ported, on the AVX2+FMA path only;
//! libm on the baseline one) and their losses' `ln_1p` sixteen at a time
//! through [`math::ln_1p`], so no output bit depends on which path ran.
//! [`mf_sgd_step`] itself, the FCF/FedMF step, still calls libm.

use crate::scoped::{dense_rng, item_seed, EMB_STD};
use crate::traits::Recommender;
use ptf_tensor::isa::{self, Isa};
use ptf_tensor::packed::{Reader, Writer};
use ptf_tensor::{kernels, math};
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

/// `-|logit|` of every lane: the argument of [`exp_neg_abs`].
#[inline(always)]
fn neg_abs<const N: usize>(mut logits: [f32; N]) -> [f32; N] {
    for logit in &mut logits {
        *logit = -logit.abs();
    }
    logits
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

    /// [`Recommender::train_batch`], compiled into its caller: the batch
    /// is cut into runs of up to [`LANES`] consecutive samples whose
    /// users are pairwise distinct and whose items are too, so no sample
    /// of a run reads a row another one writes. A run takes its logits,
    /// then one [`math::exp`] over them, then its updates: the arithmetic
    /// of [`mf_sgd_step`] sample by sample, so the model and the mean loss
    /// come out bit-identical to stepping the samples one at a time, while
    /// the out-of-order core overlaps up to four chains. The losses are
    /// held back and added in sample order, [`HELD`] at a time.
    #[inline(always)]
    fn step_runs(&mut self, isa: Isa, batch: &[(u32, u32, f32)]) -> f32 {
        let mut total = 0.0f32;
        let mut held = [(0.0f32, 0.0f32, 0.0f32); HELD];
        let mut num_held = 0;
        let mut rest = batch;
        while !rest.is_empty() {
            let (run, tail) = rest.split_at(run_len(rest));
            if num_held + run.len() > HELD {
                add_bce(&mut total, &held[..num_held]);
                num_held = 0;
            }
            let out = &mut held[num_held..num_held + run.len()];
            match *run {
                [a] => self.step_run(isa, [a], out),
                [a, b] => self.step_run(isa, [a, b], out),
                [a, b, c] => self.step_run(isa, [a, b, c], out),
                [a, b, c, d] => self.step_run(isa, [a, b, c, d], out),
                _ => unreachable!("a run holds 1 to {LANES} samples"),
            }
            num_held += run.len();
            rest = tail;
        }
        add_bce(&mut total, &held[..num_held]);
        total / batch.len() as f32
    }

    /// Steps one run of samples with distinct users and distinct items,
    /// writing each sample's `(logit, exp(-|logit|), label)` to `held`.
    #[inline(always)]
    fn step_run<const N: usize>(
        &mut self,
        isa: Isa,
        run: [(u32, u32, f32); N],
        held: &mut [(f32, f32, f32)],
    ) {
        // disjoint field borrows: the user rows and the item rows live in
        // different containers, so the whole step runs in place
        let dim = self.dim();
        let Self { user_emb, items, lr, reg } = self;
        let mut rows = [0; N];
        let mut logits = [0.0f32; N];
        for (k, &(u, i, _)) in run.iter().enumerate() {
            rows[k] = items.row_of(i);
            let (item_vec, bias) = items.row(rows[k]).split_at(dim);
            logits[k] = kernels::dot(user_emb.row(u as usize), item_vec) + bias[0];
        }
        let es = math::exp(isa, neg_abs(logits));
        for (k, &(u, _, label)) in run.iter().enumerate() {
            let err = sigmoid_from_exp(logits[k], es[k]) - label;
            let (item_vec, bias) = items.row_mut(rows[k]).split_at_mut(dim);
            kernels::mf_sgd_update(user_emb.row_mut(u as usize), item_vec, err, *lr, *reg);
            bias[0] -= *lr * err;
            held[k] = (logits[k], es[k], label);
        }
    }
}

/// The length of the run [`MfModel::step_runs`] takes from the head of
/// a non-empty `batch`: the longest prefix, up to [`LANES`] samples, whose
/// users are pairwise distinct and whose items are too.
#[inline(always)]
fn run_len(batch: &[(u32, u32, f32)]) -> usize {
    let mut n = 1;
    while n < LANES.min(batch.len()) {
        let (user, item, _) = batch[n];
        if batch[..n].iter().any(|&(u, i, _)| u == user || i == item) {
            break;
        }
        n += 1;
    }
    n
}

/// The most models [`train_lanes`] steps at once.
pub const LANES: usize = 4;

/// How many samples ahead a lane prefetches item rows.
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
        add_bce(&mut self.batch_loss, held);
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

/// Adds up to [`HELD`] held-back `(logit, exp(-|logit|), label)`
/// samples' losses to `sum`, in sample order: each is
/// `bce_from_exp(logit, e, label)`, bit for bit, with every `ln_1p` taken
/// in one lane-wise [`math::ln_1p`].
#[inline(always)]
fn add_bce(sum: &mut f32, held: &[(f32, f32, f32)]) {
    // lanes past `held` keep an input the port computes itself
    let mut es = [0.5f32; HELD];
    for (e, &(_, held_e, _)) in es.iter_mut().zip(held) {
        *e = held_e;
    }
    for (&(logit, _, label), log) in held.iter().zip(math::ln_1p(es)) {
        *sum += logit.max(0.0) - logit * label + log;
    }
}

/// One lane of [`train_lanes`]: a model, its shuffled samples for the
/// current pass, the batch size its loss is reduced over, and where it
/// stands.
///
/// A lane trains user 0 of its model — a client's one-user model — and
/// each sample is `(item row, label)`: the caller resolves every item id
/// to its row once, after preparing the rows ([`RowTable::row_of`] on
/// [`MfModel::items`]), instead of the kernel searching for it once per
/// sample per pass.
pub struct MfLane<'a> {
    pub model: &'a mut MfModel,
    pub samples: &'a [(u32, f32)],
    pub batch: usize,
    pub progress: &'a mut EpochProgress,
}

impl MfLane<'_> {
    /// Prefetches the item row of sample `s`.
    #[inline(always)]
    fn prefetch_row(&self, s: usize) {
        ptf_tensor::isa::prefetch(self.model.items.row(self.samples[s].0 as usize));
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
/// logits, then their sigmoids (one [`math::exp`] over the lanes), then
/// their updates, so the out-of-order core has up to four independent
/// chains to overlap. Two more things keep the chains short: a lane
/// prefetches the item rows of its samples a few steps ahead, and it
/// holds back its samples' losses (the `ln_1p` no chain waits for) and
/// adds them up sixteen at a time, in order, through one
/// [`math::ln_1p`].
///
/// Every sample's item row must already be materialized
/// ([`Recommender::prepare_items`]) and resolved ([`MfLane`]), and the
/// model's rows may not move while its pass runs.
///
/// # Panics
/// On more than [`LANES`] lanes, a zero batch size, or a sample row
/// outside the table.
pub fn train_lanes<'a>(lanes: impl IntoIterator<Item = MfLane<'a>>) {
    use ptf_tensor::isa::dispatch;
    let mut lanes = lanes.into_iter();
    match (lanes.next(), lanes.next(), lanes.next(), lanes.next(), lanes.next()) {
        (None, ..) => {}
        (Some(a), None, ..) => dispatch(
            #[inline(always)]
            |isa| step_lanes(isa, [a]),
        ),
        (Some(a), Some(b), None, ..) => dispatch(
            #[inline(always)]
            |isa| step_lanes(isa, [a, b]),
        ),
        (Some(a), Some(b), Some(c), None, _) => dispatch(
            #[inline(always)]
            |isa| step_lanes(isa, [a, b, c]),
        ),
        (Some(a), Some(b), Some(c), Some(d), None) => dispatch(
            #[inline(always)]
            |isa| step_lanes(isa, [a, b, c, d]),
        ),
        _ => panic!("train_lanes takes at most {LANES} lanes"),
    }
}

#[inline(always)]
fn step_lanes<const N: usize>(isa: Isa, mut lanes: [MfLane<'_>; N]) {
    assert!(lanes.iter().all(|l| l.batch > 0), "batch size must be positive");
    let steps = lanes.iter().map(|l| l.samples.len().saturating_sub(l.progress.next)).min();
    let steps = steps.unwrap_or(0);
    if steps == 0 {
        return;
    }
    for lane in &lanes {
        let next = lane.progress.next;
        for s in next..(next + AHEAD).min(lane.samples.len()) {
            lane.prefetch_row(s);
        }
    }
    let mut held = [[(0.0f32, 0.0f32, 0.0f32); HELD]; N];
    let mut num_held = [0usize; N];
    for _ in 0..steps {
        let mut rows = [0usize; N];
        let mut logits = [0.0f32; N];
        for (k, lane) in lanes.iter().enumerate() {
            let s = lane.progress.next;
            rows[k] = lane.samples[s].0 as usize;
            if s + AHEAD < lane.samples.len() {
                lane.prefetch_row(s + AHEAD);
            }
            let MfModel { user_emb, items, .. } = &*lane.model;
            let (item_vec, bias) = items.row(rows[k]).split_at(user_emb.cols());
            logits[k] = kernels::dot(user_emb.row(0), item_vec) + bias[0];
        }
        let es = math::exp(isa, neg_abs(logits));
        let mut errs = [0.0f32; N];
        for (k, lane) in lanes.iter().enumerate() {
            let label = lane.samples[lane.progress.next].1;
            errs[k] = sigmoid_from_exp(logits[k], es[k]) - label;
            held[k][num_held[k]] = (logits[k], es[k], label);
            num_held[k] += 1;
        }
        for (k, lane) in lanes.iter_mut().enumerate() {
            let MfModel { user_emb, items, lr, reg } = &mut *lane.model;
            let dim = user_emb.cols();
            let (item_vec, bias) = items.row_mut(rows[k]).split_at_mut(dim);
            kernels::mf_sgd_update(user_emb.row_mut(0), item_vec, errs[k], *lr, *reg);
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
        if self.items.index().is_dense() {
            out.resize(self.num_items(), 0.0);
            kernels::row_logits(self.user_emb.row(user as usize), self.items.arena(), out);
        } else {
            out.extend((0..self.num_items() as u32).map(|i| self.logit(user, i)));
        }
    }

    /// A dense table scores [`kernels::USER_BLOCK`] users per pass over
    /// it through [`kernels::block_row_logits`], under
    /// [`isa::dispatch`]; each logit equals [`MfModel::logit`]'s bit for
    /// bit. A row-scoped table scores user by user.
    fn block_logits_all_into(&self, users: &[u32], out: &mut [Vec<f32>]) {
        debug_assert_eq!(users.len(), out.len(), "one logit row per user");
        if !self.items.index().is_dense() {
            for (&user, row) in users.iter().zip(out) {
                self.logits_all_into(user, row);
            }
            return;
        }
        let table = self.items.arena();
        let blocks = users.chunks(kernels::USER_BLOCK).zip(out.chunks_mut(kernels::USER_BLOCK));
        for (users, out) in blocks {
            let mut embs: [&[f32]; kernels::USER_BLOCK] = Default::default();
            let mut rows: [&mut [f32]; kernels::USER_BLOCK] = Default::default();
            for ((emb, row), (&user, logits)) in
                embs.iter_mut().zip(&mut rows).zip(users.iter().zip(out))
            {
                *emb = self.user_emb.row(user as usize);
                // the kernel writes every entry: a reused row is not re-zeroed
                logits.resize(self.num_items(), 0.0);
                *row = logits;
            }
            let (embs, rows) = (&embs[..users.len()], &mut rows[..users.len()]);
            isa::dispatch(
                #[inline(always)]
                |_| kernels::block_row_logits(embs, table, rows),
            );
        }
    }

    /// Per-sample SGD, bit for bit the one-sample-at-a-time loop over
    /// [`mf_sgd_step`], in runs of up to [`LANES`] consecutive samples
    /// with distinct users and distinct items, under [`isa::dispatch`].
    fn train_batch(&mut self, batch: &[(u32, u32, f32)]) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        isa::dispatch(
            #[inline(always)]
            |isa| self.step_runs(isa, batch),
        )
    }

    fn as_mf_mut(&mut self) -> Option<&mut MfModel> {
        Some(self)
    }

    /// `{"arch":"MF","user_emb":…,"items":…}`: state only, the
    /// hyperparameters stay live. MF trains with plain SGD (no optimizer
    /// moments, no RNG), so the user table and the full row table with its
    /// ids and init seed are already lossless for bit-identical resume.
    fn write_full_state(&self, w: &mut Writer<'_>) -> bool {
        w.open();
        w.key("arch");
        w.str("MF");
        w.key("user_emb");
        self.user_emb.write_state(w);
        w.key("items");
        self.items.write_state(w);
        w.close();
        true
    }

    fn read_full_state(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        r.open()?;
        r.key("arch")?;
        let arch = r.str()?;
        if arch != "MF" {
            return Err(r.error(format_args!("architecture mismatch: expected MF, got {arch}")));
        }
        r.key("user_emb")?;
        let live = self.user_emb.shape();
        self.user_emb.read_state(r, |rows, cols| match (rows, cols) == live {
            true => Ok(()),
            false => Err(format!("shape mismatch for user_emb: {:?} vs {live:?}", (rows, cols))),
        })?;
        r.key("items")?;
        let live = (self.items.num_items(), self.items.cols());
        self.items.read_state(r, |num_items, cols| match (num_items, cols) == live {
            true => Ok(()),
            false => Err(format!(
                "shape mismatch for items: {num_items}x{cols} vs {}x{}",
                live.0, live.1
            )),
        })?;
        r.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::prepare_batch;
    use crate::traits::stable_sigmoid;

    #[test]
    fn catalogue_logits_equal_the_per_item_logit_bit_for_bit() {
        // dims on and off the lane width; dense and row-scoped tables;
        // one user at a time and in blocks
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
                // blocks of 1–11 users (one full lane block and a rest)
                for n in 1..=11 {
                    let users: Vec<u32> = (0..n).map(|k| (k % 3 % 2) as u32).collect();
                    let mut block = vec![vec![7.0; 3]; n];
                    m.block_logits_all_into(&users, &mut block);
                    for (&user, row) in users.iter().zip(&block) {
                        let mut alone = Vec::new();
                        m.logits_all_into(user, &mut alone);
                        let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(row), bits(&alone), "{n} users, dim {dim}");
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
        let rows = |m: &MfModel, k: usize| -> Vec<(u32, f32)> {
            samples(k).iter().map(|&(_, i, label)| (m.items().row_of(i) as u32, label)).collect()
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
                let mut lanes: Vec<_> = (0..width)
                    .map(|k| {
                        let m = model(k);
                        let rows = rows(&m, k);
                        (m, rows, EpochProgress::default())
                    })
                    .collect();
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

    /// `train_batch` as it was before runs: one sample at a time through
    /// [`mf_sgd_step`], libm's `exp` and `ln_1p` included.
    fn one_sample_at_a_time(m: &mut MfModel, batch: &[(u32, u32, f32)]) -> f32 {
        let dim = m.dim();
        let MfModel { user_emb, items, lr, reg } = m;
        let mut total = 0.0;
        for &(u, i, label) in batch {
            let r = items.row_of(i);
            let (item_vec, bias) = items.row_mut(r).split_at_mut(dim);
            total +=
                mf_sgd_step(user_emb.row_mut(u as usize), item_vec, &mut bias[0], label, *lr, *reg);
        }
        total / batch.len() as f32
    }

    #[test]
    fn dispatched_runs_train_as_the_one_sample_loop_does() {
        // batches built to break runs: sample p of an eight-sample batch
        // repeats the user, then the item, of an earlier sample q of its
        // run, at each p in 1–3; one user throughout; one item throughout
        let distinct: Vec<(u32, u32, f32)> =
            (0..8).map(|k| (k, 3 * k + 1, (k % 3) as f32 / 2.0)).collect();
        let mut built = Vec::new();
        for p in 1..LANES {
            for q in 0..p {
                let mut user = distinct.clone();
                user[p].0 = user[q].0;
                let mut item = distinct.clone();
                item[p].1 = item[q].1;
                built.extend([user, item]);
            }
        }
        built.push((0..9).map(|k| (3, 2 * k, 0.75)).collect());
        built.push((0..9).map(|k| (k, 7, 0.25)).collect());
        let bits = |m: &MfModel| -> Vec<u32> {
            m.user_emb.as_slice().iter().chain(m.items().arena()).map(|x| x.to_bits()).collect()
        };
        let scopes = [ScopeView::Full(60), ScopeView::Rows { num_items: 60, ids: &[1, 7, 30] }];
        for scope in scopes {
            let fresh = || MfModel::new_scoped(12, 13, 0.05, scope, 5);
            let (mut oracle, mut runs, mut baseline) = (fresh(), fresh(), fresh());
            let mut rng = ptf_tensor::test_rng(3);
            let random = (1..=1030).map(|n| {
                let mut sample = || {
                    use rand::Rng;
                    (rng.gen_range(0..12), rng.gen_range(0..60), rng.gen_range(0..=4) as f32 / 4.0)
                };
                (0..n).map(|_| sample()).collect::<Vec<_>>()
            });
            for batch in built.iter().cloned().chain(random) {
                for m in [&mut oracle, &mut runs, &mut baseline] {
                    prepare_batch(m, &batch);
                }
                let want = one_sample_at_a_time(&mut oracle, &batch).to_bits();
                let n = batch.len();
                assert_eq!(runs.train_batch(&batch).to_bits(), want, "loss, batch of {n}");
                let got = baseline.step_runs(Isa::Baseline, &batch).to_bits();
                assert_eq!(got, want, "baseline loss, batch of {n}");
                assert!(bits(&runs) == bits(&oracle), "state, batch of {n}: {batch:?}");
                assert!(bits(&baseline) == bits(&oracle), "baseline state, batch of {n}");
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
