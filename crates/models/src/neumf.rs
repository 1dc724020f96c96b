//! NeuMF — the paper's "simple and straightforward" client model.
//!
//! As specified in the paper (Eq. 1 and §IV-D): user and item embeddings
//! are concatenated and pushed through an MLP (`64 → 32 → 16` on top of
//! 32-dim embeddings), then a trainable head `h` produces the logit:
//! `r̂_ij = σ(hᵀ MLP([u_i, v_j]))`.
//!
//! # The training step, by hand
//!
//! NeuMF does not run on the autograd tape: like MF's `mf_sgd_step`, its
//! forward and backward passes are written out over model-owned scratch
//! (the tape build survives as the test oracle). With `a₋₁ = [u | v]`,
//! `zₗ = aₗ₋₁·Wₗ + bₗ`, `aₗ = max(zₗ, 0)`, logit `x = a_L·h + c` and the
//! batch-mean BCE loss, the chain rule gives, over the `B` rows of a batch,
//!
//! ```text
//! dx   = (σ(x) − t) / B
//! dh   = a_Lᵀ·dx         dc  = Σ dx        dz_L  = [a_L > 0]·(dx·hᵀ)
//! dWₗ  = aₗ₋₁ᵀ·dzₗ       dbₗ = Σ dzₗ       dzₗ₋₁ = [aₗ₋₁ > 0]·(dzₗ·Wₗᵀ)
//! ```
//!
//! so each layer is the three matmul forms of `ptf_tensor::matrix`
//! (`acc` forward, `tn_acc` and `nt_acc` backward) over this module's
//! buffers, and three observations make it cheap:
//!
//! * **Layer 0 splits into a user half and an item half.**
//!   `[u | v]·W₀ = u·W₀[..d] + v·W₀[d..]`, and a federated client owns
//!   one user, so every row of its batch shares the first term. Per *run
//!   of consecutive equal users* the forward pass computes
//!   `u·W₀[..d] + b₀` once and copies it into each row's pre-activation;
//!   the backward pass sums the run's `dz₀` rows once and takes
//!   `dW₀[..d] += uᵀ·Σdz₀` and `du = Σdz₀·W₀[..d]ᵀ` from the sum. A
//!   client batch is one run; a shuffled server batch is runs of length
//!   one and pays the per-row cost — the saving follows from the batch,
//!   not from a mode.
//! * **Bias is where the accumulation starts.** A pre-activation row is
//!   initialized to the bias (or its run's user half) and the matmul
//!   accumulates onto it, in registers on the widths the kernels are
//!   monomorphised for (16/32/64); ReLU is one clamp over the block.
//! * **Dead units take no gradient and pass none on.** Where
//!   `aₗ₋₁[k] = 0` the row adds exactly zero to `dWₗ[k]`, and
//!   `dzₗ₋₁[k]` is masked to zero. The mask is one pass over the block;
//!   the products are *not* skipped per dead unit — a register-resident
//!   row update costs less than the mispredicted branch that would
//!   guard it.
//!
//! Gradients land in a reused [`Grads`] — dense for weights and biases,
//! row-sparse for the two embedding tables — and go through the same
//! [`ptf_tensor::Adam`] step as the tape models', so lazy rows, eviction
//! and the state envelope are those of `ScopedParams`. The working
//! buffers are scratch, not state: every one is fully overwritten per
//! batch and none is exported.

use crate::mf::sigmoid_and_bce;
use crate::scoped::{self, dense, ScopedParams, EMB_STD};
use crate::traits::{Recommender, ScopeView};
use ptf_tensor::prelude::*;
use ptf_tensor::{init, isa, kernels, matrix, ItemScope, ParamId, Params, RowSparse};

/// NeuMF hyperparameters (defaults follow §IV-D).
#[derive(Clone, Debug)]
pub struct NeuMfConfig {
    /// Embedding dimension (paper: 32).
    pub dim: usize,
    /// MLP layer output widths (paper: 64, 32, 16).
    pub layers: Vec<usize>,
    /// Adam learning rate (paper: 0.001).
    pub lr: f32,
}

impl Default for NeuMfConfig {
    fn default() -> Self {
        Self { dim: 32, layers: vec![64, 32, 16], lr: 1e-3 }
    }
}

/// The NeuMF model.
pub struct NeuMf {
    num_users: usize,
    /// Parameters + optimizer; the scoped parameter is `item_emb`.
    store: ScopedParams,
    user_emb: ParamId,
    /// `(weight, bias)` per MLP layer, then the scoring head.
    layers: Vec<(ParamId, ParamId)>,
    head: (ParamId, ParamId),
    /// Output width of each MLP layer.
    widths: Vec<usize>,
    /// `train_batch`'s working buffers (taken out for the step's duration).
    work: Workspace,
}

/// One forward pass over a block of `(user, item)` rows.
#[derive(Default)]
struct Forward {
    /// `(user, end row)` of each run of consecutive equal users.
    runs: Vec<(u32, usize)>,
    /// The runs' user embeddings, `runs × dim`, and their halves of
    /// layer 0's pre-activation `u·W₀[..d] + b₀`, `runs × n₀`.
    u: Vec<f32>,
    user_half: Vec<f32>,
    /// The rows' item embeddings, `rows × dim`.
    v: Vec<f32>,
    /// Post-ReLU activations, layer-major: layer `l` is the `rows × nₗ`
    /// block that starts `rows · (n₀ + … + nₗ₋₁)` in.
    acts: Vec<f32>,
    logits: Vec<f32>,
}

/// Everything a training step writes besides the parameters. All of it is
/// overwritten per batch; the buffers grow to the largest batch seen.
#[derive(Default)]
struct Workspace {
    /// Row of each batch item in `item_emb`.
    rows: Vec<u32>,
    fwd: Forward,
    /// `dz` of the layer being differentiated, and of the one below it
    /// (which for layer 0 is `dv`, the item-embedding gradient rows).
    dz: Vec<f32>,
    dz_below: Vec<f32>,
    /// `Σ dz₀` over each run, `runs × n₀`, and the `du` rows it yields.
    run_sums: Vec<f32>,
    du: Vec<f32>,
    grads: Option<Grads>,
}

/// Rows per forward block of the `&self` scoring path: bounds its buffers
/// whatever the length of the item list.
const SCORE_BLOCK: usize = 64;

impl NeuMf {
    /// An item-scoped NeuMF: the item table materializes only `scope`
    /// (plus whatever later training touches), every row initialized from
    /// its `(seed, id)`-derived stream; all other parameters draw from a
    /// scope-independent derived stream, so `Full`- and `Rows`-scoped
    /// models with the same seed are bit-identical on shared rows.
    pub fn new_scoped(num_users: usize, cfg: &NeuMfConfig, scope: &ItemScope, seed: u64) -> Self {
        assert!(num_users > 0 && scope.num_items() > 0, "empty model");
        assert!(!cfg.layers.is_empty(), "NeuMF needs at least one MLP layer");
        assert!(cfg.dim > 0 && cfg.layers.iter().all(|&w| w > 0), "NeuMF widths must be positive");
        let mut rng = scoped::dense_rng(seed);
        let mut params = Params::new();
        let user_emb =
            params.push("user_emb", Matrix::randn(num_users, cfg.dim, EMB_STD, &mut rng));
        let item_emb = params.push("item_emb", scoped::item_block(scope, cfg.dim, seed));
        let mut layers = Vec::with_capacity(cfg.layers.len());
        let mut fan_in = 2 * cfg.dim;
        for (l, &width) in cfg.layers.iter().enumerate() {
            let w = params.push(format!("w{l}"), init::xavier_uniform(fan_in, width, &mut rng));
            let b = params.push(format!("b{l}"), Matrix::zeros(1, width));
            layers.push((w, b));
            fan_in = width;
        }
        let head_w = params.push("head_w", init::xavier_uniform(fan_in, 1, &mut rng));
        let head_b = params.push("head_b", Matrix::zeros(1, 1));
        Self {
            num_users,
            store: ScopedParams::new(params, item_emb, 0, scope, seed, cfg.lr),
            user_emb,
            layers,
            head: (head_w, head_b),
            widths: cfg.layers.clone(),
            work: Workspace::default(),
        }
    }

    /// Layer `l`'s block of a [`Forward::acts`] buffer holding `n` rows.
    #[inline(always)]
    fn layer_acts<'a>(&self, acts: &'a [f32], n: usize, l: usize) -> &'a [f32] {
        let below: usize = self.widths[..l].iter().sum();
        &acts[n * below..n * (below + self.widths[l])]
    }

    /// The forward pass over `n` rows whose item embeddings are staged in
    /// `f.v` and whose users are `user_of(0..n)`: fills the rest of `f`.
    #[inline(always)]
    fn forward(&self, user_of: impl Fn(usize) -> u32, n: usize, f: &mut Forward) {
        let p = self.store.params();
        let d = self.store.dim();
        debug_assert_eq!(f.v.len(), n * d);

        f.runs.clear();
        f.u.clear();
        for r in 0..n {
            let u = user_of(r);
            match f.runs.last_mut() {
                Some((last, end)) if *last == u => *end = r + 1,
                _ => {
                    f.runs.push((u, r + 1));
                    f.u.extend_from_slice(p.get(self.user_emb).row(u as usize));
                }
            }
        }

        // layer 0: the user half once per run, then the item half per row
        let n0 = self.widths[0];
        let (w0, b0) = self.layers[0];
        let (w0_user, w0_item) = p.get(w0).as_slice().split_at(d * n0);
        f.user_half.clear();
        for _ in 0..f.runs.len() {
            f.user_half.extend_from_slice(p.get(b0).as_slice());
        }
        matrix::acc(&f.u, d, w0_user, n0, &mut f.user_half);
        f.acts.resize(n * self.widths.iter().sum::<usize>(), 0.0);
        let (a0, mut above) = f.acts.split_at_mut(n * n0);
        let mut start = 0;
        for (&(_, end), half) in f.runs.iter().zip(f.user_half.chunks_exact(n0)) {
            for row in a0[start * n0..end * n0].chunks_exact_mut(n0) {
                row.copy_from_slice(half);
            }
            start = end;
        }
        matrix::acc(&f.v, d, w0_item, n0, a0);
        relu(a0);

        let (mut below, mut inner): (&[f32], usize) = (a0, n0);
        for (&(w, b), &width) in self.layers.iter().zip(&self.widths).skip(1) {
            let (a, rest) = std::mem::take(&mut above).split_at_mut(n * width);
            for row in a.chunks_exact_mut(width) {
                row.copy_from_slice(p.get(b).as_slice());
            }
            matrix::acc(below, inner, p.get(w).as_slice(), width, a);
            relu(a);
            (below, inner, above) = (a, width, rest);
        }

        let (hw, hb) = (p.get(self.head.0).as_slice(), p.get(self.head.1).as_slice()[0]);
        f.logits.clear();
        f.logits.extend(
            below.chunks_exact(inner).map(|a| a.iter().zip(hw).fold(hb, |s, (&x, &w)| s + x * w)),
        );
    }

    /// The backward pass of the batch whose forward pass is `work.fwd`,
    /// with `∂loss/∂logit` per row in place of the logits. Overwrites
    /// `grads`.
    #[inline(always)]
    fn backward(&self, work: &mut Workspace, grads: &mut Grads) {
        let p = self.store.params();
        let Workspace { rows, fwd, dz, dz_below, run_sums, du, .. } = work;
        let dx = &fwd.logits;
        let (n, d) = (dx.len(), self.store.dim());
        for (id, _, _) in p.iter() {
            match grads.slot_mut(id) {
                Some(GradBuf::Dense(m)) => m.fill(0.0),
                Some(GradBuf::Rows(rs)) => rs.clear(),
                None => unreachable!("every NeuMF parameter has a gradient buffer"),
            }
        }

        // head: dh = a_Lᵀ·dx, dc = Σ dx, dz_L = [a_L > 0]·(dx·hᵀ)
        let top = self.layers.len() - 1;
        let width = self.widths[top];
        let a_top = self.layer_acts(&fwd.acts, n, top);
        dense(grads, self.head.1)[0] = dx.iter().sum();
        matrix::tn_acc(a_top, width, dx, 1, dense(grads, self.head.0));
        dz.clear();
        dz.resize(n * width, 0.0);
        // (the head's `width × 1` column read as the `1 × width` row hᵀ)
        matrix::acc(dx, 1, p.get(self.head.0).as_slice(), width, dz);
        mask_dead(dz, a_top);

        // hidden layers, top down; `dz` ends as dz₀
        for l in (1..=top).rev() {
            let (w, b) = self.layers[l];
            let (width, inner) = (self.widths[l], self.widths[l - 1]);
            let a_in = self.layer_acts(&fwd.acts, n, l - 1);
            col_sums(dz, width, dense(grads, b));
            matrix::tn_acc(a_in, inner, dz, width, dense(grads, w));
            dz_below.clear();
            dz_below.resize(n * inner, 0.0);
            matrix::nt_acc(dz, width, p.get(w).as_slice(), inner, dz_below);
            mask_dead(dz_below, a_in);
            std::mem::swap(dz, dz_below);
        }

        // layer 0, item half: one row per batch row
        let n0 = self.widths[0];
        let (w0, b0) = self.layers[0];
        let (w0_user, w0_item) = p.get(w0).as_slice().split_at(d * n0);
        col_sums(dz, n0, dense(grads, b0));
        let (dw0_user, dw0_item) = dense(grads, w0).split_at_mut(d * n0);
        matrix::tn_acc(&fwd.v, d, dz, n0, dw0_item);
        dz_below.clear();
        dz_below.resize(n * d, 0.0);
        matrix::nt_acc(dz, n0, w0_item, d, dz_below);
        // layer 0, user half: one row per run, from the run's summed dz₀
        run_sums.resize(fwd.runs.len() * n0, 0.0);
        let mut start = 0;
        for (&(_, end), sum) in fwd.runs.iter().zip(run_sums.chunks_exact_mut(n0)) {
            col_sums(&dz[start * n0..end * n0], n0, sum);
            start = end;
        }
        matrix::tn_acc(&fwd.u, d, run_sums, n0, dw0_user);
        du.clear();
        du.resize(fwd.runs.len() * d, 0.0);
        matrix::nt_acc(run_sums, n0, w0_user, d, du);

        let d_users = sparse(grads, self.user_emb);
        for (&(u, _), du) in fwd.runs.iter().zip(du.chunks_exact(d)) {
            d_users.add_row(u, du);
        }
        let d_items = sparse(grads, self.store.emb());
        for (&row, dv) in rows.iter().zip(dz_below.chunks_exact(d)) {
            d_items.add_row(row, dv);
        }
    }

    /// [`Recommender::logits_into`], compiled into its caller: the trait
    /// method runs it under [`isa::dispatch`].
    #[inline(always)]
    fn write_logits(&self, user: u32, items: &[u32], out: &mut Vec<f32>) {
        debug_assert!((user as usize) < self.num_users, "user id out of range");
        debug_assert!(
            items.iter().all(|&i| (i as usize) < self.store.num_items()),
            "item id out of range"
        );
        out.clear();
        out.reserve(items.len());
        let table = self.store.params().get(self.store.emb());
        let d = self.store.dim();
        // `&self`: the block buffers are this call's own
        let mut f = Forward::default();
        for block in items.chunks(SCORE_BLOCK) {
            f.v.resize(block.len() * d, 0.0);
            for (&i, v) in block.iter().zip(f.v.chunks_exact_mut(d)) {
                match self.store.lookup(i) {
                    Some(row) => v.copy_from_slice(table.row(row)),
                    // not materialized: the row still holds its derived init
                    None => self.store.cold_row(i, v),
                }
            }
            self.forward(|_| user, block.len(), &mut f);
            out.extend_from_slice(&f.logits);
        }
    }

    /// [`Recommender::train_batch`], compiled into its caller: the trait
    /// method runs it under [`isa::dispatch`].
    #[inline(always)]
    fn step(&mut self, batch: &[(u32, u32, f32)]) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        debug_assert!(
            batch.iter().all(|&(u, _, _)| (u as usize) < self.num_users),
            "user id out of range"
        );
        // materialize any first-touched rows, then train against the
        // row-mapped indices (identity when dense)
        self.store.ensure(batch.iter().map(|&(_, i, _)| i));
        let mut work = std::mem::take(&mut self.work);
        let mut grads = work.grads.take().unwrap_or_else(|| self.new_grads());

        let table = self.store.params().get(self.store.emb());
        work.rows.clear();
        work.fwd.v.clear();
        for &(_, i, _) in batch {
            let row = self.store.lookup(i).expect("item materialized");
            work.rows.push(row as u32);
            work.fwd.v.extend_from_slice(table.row(row));
        }
        self.forward(|r| batch[r].0, batch.len(), &mut work.fwd);

        // the logits become ∂loss/∂logit in place
        let mut total = 0.0f64;
        for (x, &(_, _, t)) in work.fwd.logits.iter_mut().zip(batch) {
            debug_assert!((0.0..=1.0).contains(&t), "target {t} outside [0,1]");
            let (sigmoid, loss) = sigmoid_and_bce(*x, t);
            total += loss as f64;
            *x = (sigmoid - t) / batch.len() as f32;
        }
        self.backward(&mut work, &mut grads);
        self.store.step(&grads);
        work.grads = Some(grads);
        self.work = work;
        (total / batch.len() as f64) as f32
    }

    /// The reused gradient store: dense buffers for weights, biases and
    /// the head, row-sparse ones for the two embedding tables.
    fn new_grads(&self) -> Grads {
        let p = self.store.params();
        let mut grads = Grads::new_for(p);
        for (id, _, m) in p.iter() {
            *grads.slot_mut(id) = Some(if id == self.user_emb || id == self.store.emb() {
                GradBuf::Rows(RowSparse::new(m.cols()))
            } else {
                GradBuf::Dense(Matrix::zeros_like(m))
            });
        }
        grads
    }
}

fn sparse(grads: &mut Grads, id: ParamId) -> &mut RowSparse {
    match grads.slot_mut(id) {
        Some(GradBuf::Rows(rs)) => rs,
        _ => unreachable!("embedding tables take row-sparse gradients"),
    }
}

/// `out = Σ` of the `width`-wide rows of `m`, summed top to bottom.
#[inline(always)]
fn col_sums(m: &[f32], width: usize, out: &mut [f32]) {
    out.fill(0.0);
    for row in m.chunks_exact(width) {
        kernels::add_assign(out, row);
    }
}

/// ReLU over a block of pre-activations, in place.
#[inline(always)]
fn relu(z: &mut [f32]) {
    z.iter_mut().for_each(|z| *z = z.max(0.0));
}

/// Zeroes the gradient of every unit whose activation `a` is dead.
#[inline(always)]
fn mask_dead(dz: &mut [f32], a: &[f32]) {
    for (g, &a) in dz.iter_mut().zip(a) {
        if a <= 0.0 {
            *g = 0.0;
        }
    }
}

impl Recommender for NeuMf {
    fn name(&self) -> &'static str {
        "NeuMF"
    }

    fn num_users(&self) -> usize {
        self.num_users
    }

    fn num_items(&self) -> usize {
        self.store.num_items()
    }

    fn num_params(&self) -> usize {
        self.store.params().num_scalars()
    }

    fn item_scope(&self) -> ScopeView<'_> {
        self.store.view()
    }

    fn prepare_items(&mut self, sorted_ids: &[u32]) {
        self.store.ensure_many(sorted_ids);
    }

    fn evict_items(&mut self, keep_sorted: &[u32]) -> usize {
        self.store.evict(keep_sorted)
    }

    fn logits_into(&self, user: u32, items: &[u32], out: &mut Vec<f32>) {
        isa::dispatch(
            #[inline(always)]
            || self.write_logits(user, items, out),
        )
    }

    fn train_batch(&mut self, batch: &[(u32, u32, f32)]) -> f32 {
        isa::dispatch(
            #[inline(always)]
            || self.step(batch),
        )
    }

    fn export_full_state(&self) -> Option<String> {
        self.store.export("NeuMF", None)
    }

    fn import_full_state(&mut self, json: &str) -> Result<(), String> {
        self.store.import("NeuMF", json).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ptf_tape::{Graph, Var};
    use rand::Rng;

    /// The oracle: the same model built on the autograd tape, which is
    /// how NeuMF trained and scored before its step was written by hand.
    impl NeuMf {
        /// The logit column of `(users[k], v[k])` pairs, `v` holding the
        /// rows' item embeddings.
        fn tape_logits(&self, g: &mut Graph<'_>, users: &[u32], v: Var) -> Var {
            let ue = g.param(self.user_emb);
            let u = g.gather(ue, users);
            let mut h = g.concat_cols(u, v);
            for &(w, b) in &self.layers {
                let (wv, bv) = (g.param(w), g.param(b));
                let lin = g.matmul(h, wv);
                let lin = g.add_row(lin, bv);
                h = g.relu(lin);
            }
            let (hwv, hbv) = (g.param(self.head.0), g.param(self.head.1));
            let out = g.matmul(h, hwv);
            g.add_row(out, hbv)
        }

        /// Scores with unmaterialized rows read from their derived init.
        fn tape_score(&self, user: u32, items: &[u32]) -> Vec<f32> {
            let table = self.store.params().get(self.store.emb());
            let mut v = Matrix::zeros(items.len(), self.store.dim());
            for (r, &i) in items.iter().enumerate() {
                match self.store.lookup(i) {
                    Some(row) => v.row_mut(r).copy_from_slice(table.row(row)),
                    None => self.store.cold_row(i, v.row_mut(r)),
                }
            }
            let mut g = Graph::new(self.store.params());
            let v = g.leaf(v);
            let logits = self.tape_logits(&mut g, &vec![user; items.len()], v);
            let probs = g.sigmoid(logits);
            g.value(probs).as_slice().to_vec()
        }

        /// One training step through `Graph::backward`.
        fn tape_train_batch(&mut self, batch: &[(u32, u32, f32)]) -> f32 {
            self.store.ensure(batch.iter().map(|&(_, i, _)| i));
            let users: Vec<u32> = batch.iter().map(|&(u, _, _)| u).collect();
            let rows: Vec<u32> =
                batch.iter().map(|&(_, i, _)| self.store.lookup(i).unwrap() as u32).collect();
            let labels: Vec<f32> = batch.iter().map(|&(_, _, l)| l).collect();
            let (grads, loss) = {
                let mut g = Graph::new(self.store.params());
                let ie = g.param(self.store.emb());
                let v = g.gather(ie, &rows);
                let logits = self.tape_logits(&mut g, &users, v);
                let loss = g.bce_with_logits(logits, &labels);
                (g.backward(loss), g.scalar(loss))
            };
            self.store.step(&grads);
            loss
        }
    }

    /// Layer lists that hit and miss the fixed kernel widths, on the
    /// output side and (through the next layer's `nt_acc`) the input side.
    const ARCHS: [&[usize]; 8] =
        [&[64, 32, 16], &[16], &[32, 16], &[8], &[24, 12], &[20, 16], &[64, 7], &[33, 32, 5]];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn hand_derived_step_matches_the_tape(
            seed in any::<u64>(),
            dim in 4usize..=40,
            arch in 0usize..ARCHS.len(),
            n in 1usize..=70,
            shape in 0u32..12,
        ) {
            // 1–3 users, in runs or interleaved; a 9-item catalogue so
            // items repeat; soft labels; dense or lazily growing item rows
            let (num_users, interleaved, sparse) = (1 + shape % 3, shape & 4 != 0, shape >= 6);
            let cfg = NeuMfConfig { dim, layers: ARCHS[arch].to_vec(), lr: 1e-3 };
            let scope = if sparse {
                ItemScope::Rows { num_items: 9, ids: vec![2, 5] }
            } else {
                ItemScope::Full(9)
            };
            let mut rng = ptf_tensor::test_rng(seed);
            let batch: Vec<(u32, u32, f32)> = (0..n)
                .map(|r| {
                    let user = if interleaved { r as u32 } else { (r * num_users as usize / n) as u32 };
                    (user % num_users, rand::Rng::gen_range(&mut rng, 0..9u32), rand::Rng::gen(&mut rng))
                })
                .collect();

            let mut hand = NeuMf::new_scoped(3, &cfg, &scope, seed);
            let mut tape = NeuMf::new_scoped(3, &cfg, &scope, seed);
            let all: Vec<u32> = (0..9).collect();
            for step in 0..5 {
                // a rotating prefix, so the scratch sees shrinking and
                // growing batches
                let part = &batch[..n - (step * 7) % n];
                let (lh, lt) = (hand.train_batch(part), tape.tape_train_batch(part));
                prop_assert!((lh - lt).abs() <= 1e-6, "step {step}: loss {lh} vs tape {lt}");
            }
            for ((_, name, h), (_, _, t)) in hand.store.params().iter().zip(tape.store.params().iter()) {
                prop_assert!(h.max_abs_diff(t) <= 1e-5, "{name} drifted {}", h.max_abs_diff(t));
            }
            for user in 0..3 {
                let scores = hand.score(user, &all);
                let mut into = vec![7.0; 3];
                hand.score_into(user, &all, &mut into);
                prop_assert_eq!(&scores, &into);
                for (s, t) in scores.iter().zip(tape.tape_score(user, &all)) {
                    prop_assert!((s - t).abs() <= 1e-5, "score {s} vs tape {t}");
                }
            }

            // scratch is not state: a model restored from the envelope
            // (empty scratch) takes the next step bit for bit like the
            // one whose scratch the steps above left dirty
            let mut fresh = NeuMf::new_scoped(3, &cfg, &scope, seed ^ 1);
            fresh.import_full_state(&hand.export_full_state().unwrap()).unwrap();
            prop_assert_eq!(hand.train_batch(&batch).to_bits(), fresh.train_batch(&batch).to_bits());
            prop_assert_eq!(hand.export_full_state(), fresh.export_full_state());
        }
    }

    #[test]
    fn long_item_lists_score_block_by_block_like_short_ones() {
        // logits_into works in SCORE_BLOCK-row blocks; a row's score must
        // not depend on which block it falls in
        let cfg = NeuMfConfig { dim: 8, layers: vec![16, 8], lr: 0.01 };
        let m = NeuMf::new_scoped(2, &cfg, &ItemScope::Full(3 * SCORE_BLOCK + 5), 4);
        let all = m.score_all(1);
        assert_eq!(all.len(), 3 * SCORE_BLOCK + 5);
        for i in [0, SCORE_BLOCK - 1, SCORE_BLOCK, 3 * SCORE_BLOCK + 4] {
            assert_eq!(m.score(1, &[i as u32])[0].to_bits(), all[i].to_bits(), "item {i}");
        }
        assert_eq!(m.score(1, &[]), Vec::<f32>::new());
    }

    #[test]
    fn the_dispatched_entries_are_bit_identical_to_the_baseline_bodies() {
        if !crate::test_util::avx2_path() {
            return;
        }
        use crate::test_util::bits;
        // the paper's widths (every fixed kernel width) and widths that
        // miss them, dense and lazily growing item rows
        for (layers, sparse) in [(vec![64, 32, 16], false), (vec![24, 12], true)] {
            let cfg = NeuMfConfig { dim: 32, layers, lr: 1e-2 };
            let scope = if sparse {
                ItemScope::Rows { num_items: 40, ids: vec![3, 9] }
            } else {
                ItemScope::Full(40)
            };
            let (mut base, mut twin) =
                (NeuMf::new_scoped(3, &cfg, &scope, 17), NeuMf::new_scoped(3, &cfg, &scope, 17));
            let mut rng = ptf_tensor::test_rng(5);
            for step in 0..5 {
                // 1–3 users in runs, soft labels
                let users = 1 + step % 3;
                let batch: Vec<(u32, u32, f32)> = (0..48)
                    .map(|r| ((r * users / 48) as u32, rng.gen_range(0..40), rng.gen()))
                    .collect();
                let (lb, lt) = (base.step(&batch), twin.train_batch(&batch));
                assert_eq!(lb.to_bits(), lt.to_bits(), "step {step}: loss {lb} vs {lt}");
            }
            assert_eq!(base.export_full_state(), twin.export_full_state());
            let all: Vec<u32> = (0..40).collect();
            for user in 0..3 {
                let (mut lb, mut lt) = (Vec::new(), Vec::new());
                base.write_logits(user, &all, &mut lb);
                twin.logits_into(user, &all, &mut lt);
                assert_eq!(bits(&lb), bits(&lt), "user {user}");
            }
        }
    }

    fn tiny() -> NeuMf {
        let cfg = NeuMfConfig { dim: 8, layers: vec![16, 8], lr: 0.01 };
        NeuMf::new_scoped(5, &cfg, &ItemScope::Full(12), 1)
    }

    #[test]
    fn param_count_matches_architecture() {
        let m = tiny();
        // embeddings: 5*8 + 12*8; mlp: 16*16+16 + 16*8+8; head: 8*1+1
        let expected = 5 * 8 + 12 * 8 + (16 * 16 + 16) + (16 * 8 + 8) + (8 + 1);
        assert_eq!(m.num_params(), expected);
    }

    #[test]
    fn scores_are_probabilities() {
        let m = tiny();
        let s = m.score(0, &[0, 1, 2, 3]);
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|&p| (0.0..=1.0).contains(&p)), "{s:?}");
    }

    #[test]
    fn score_all_default_impl() {
        let m = tiny();
        assert_eq!(m.score_all(2).len(), 12);
    }

    #[test]
    fn training_reduces_loss() {
        let mut m = tiny();
        let batch: Vec<(u32, u32, f32)> =
            vec![(0, 0, 1.0), (0, 1, 0.0), (1, 2, 1.0), (1, 3, 0.0), (2, 4, 1.0), (2, 5, 0.0)];
        let first = m.train_batch(&batch);
        let mut last = first;
        for _ in 0..120 {
            last = m.train_batch(&batch);
        }
        assert!(last < first * 0.5, "loss did not shrink: {first} → {last}");
    }

    #[test]
    fn overfits_to_separate_positives_from_negatives() {
        let mut m = tiny();
        let batch: Vec<(u32, u32, f32)> = vec![(0, 0, 1.0), (0, 1, 0.0), (0, 2, 1.0), (0, 3, 0.0)];
        for _ in 0..200 {
            m.train_batch(&batch);
        }
        let s = m.score(0, &[0, 1, 2, 3]);
        assert!(s[0] > 0.8 && s[2] > 0.8, "positives low: {s:?}");
        assert!(s[1] < 0.2 && s[3] < 0.2, "negatives high: {s:?}");
    }

    #[test]
    fn soft_labels_are_regressed() {
        let mut m = tiny();
        let batch = vec![(0, 0, 0.7f32)];
        for _ in 0..300 {
            m.train_batch(&batch);
        }
        let s = m.score(0, &[0]);
        assert!((s[0] - 0.7).abs() < 0.1, "soft target missed: {}", s[0]);
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut m = tiny();
        let before = m.score(0, &[0]);
        assert_eq!(m.train_batch(&[]), 0.0);
        assert_eq!(m.score(0, &[0]), before);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = NeuMfConfig::default();
        let a = NeuMf::new_scoped(3, &cfg, &ItemScope::Full(4), 9);
        let b = NeuMf::new_scoped(3, &cfg, &ItemScope::Full(4), 9);
        assert_eq!(a.score(0, &[0, 1]), b.score(0, &[0, 1]));
    }

    #[test]
    fn set_graph_is_accepted_and_ignored() {
        let mut m = tiny();
        let before = m.score(0, &[0]);
        m.set_graph(&[(0, 0, 1.0)]);
        assert_eq!(m.score(0, &[0]), before);
    }
}
