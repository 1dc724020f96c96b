//! NGCF — Neural Graph Collaborative Filtering (Wang et al., SIGIR 2019).
//!
//! Per propagation layer `l` (row-vector convention, `Ã` the normalized
//! bipartite adjacency from [`crate::graph`]):
//!
//! ```text
//! E^{(l+1)} = LeakyReLU( (ÃE^{(l)} + E^{(l)}) W₁⁽ˡ⁾ + (ÃE^{(l)} ⊙ E^{(l)}) W₂⁽ˡ⁾ )
//! ```
//!
//! i.e. the standard NGCF message passing with self-connection and the
//! element-wise affinity term, followed in training by message dropout.
//! The final representation concatenates every layer,
//! `[E^{(0)} | … | E^{(L)}]`, and scores are sigmoid dot products.
//!
//! # The training step, by hand
//!
//! NGCF does not run on an autograd tape: like NeuMF's, its forward and
//! backward passes are written out over buffers the model owns (the tape
//! build in the dev-only `ptf-tape` crate is the test oracle). Per layer
//! `l`, with `Mₗ = Ã·Eₗ` and the stacked weights `W⁽ˡ⁾ = [W₁⁽ˡ⁾; W₂⁽ˡ⁾]`
//! (`2d × d`):
//!
//! ```text
//! Xₗ = [Mₗ + Eₗ | Mₗ ⊙ Eₗ]      Zₗ = Xₗ·W⁽ˡ⁾      Eₗ₊₁ = mₗ ⊙ LeakyReLU(Zₗ)
//! ```
//!
//! where the dropout mask `mₗ` is `1/keep` on kept units and 0 on dropped
//! ones. Row `k` of a batch of `B` has logit `xₖ = Σₗ ⟨Eₗ[uₖ], Eₗ[vₖ]⟩`,
//! and the loss is the mean BCE plus `c·(‖F_u‖² + ‖F_v‖² + Σ‖W‖²)` over
//! the batch's concatenated rows, `c = reg/B`. With `dxₖ = (σ(xₖ) − tₖ)/B`,
//! `dFₗ` the gradient with respect to `Eₗ` through the logits and the
//! penalty (`dxₖ·Eₗ[vₖ] + 2c·Eₗ[uₖ]` at `uₖ`, symmetrically at `vₖ`) and
//! `Gₗ` the whole gradient with respect to `Eₗ`, the chain rule gives, top
//! layer down,
//!
//! ```text
//! G_L   = dF_L
//! dZₗ   = Gₗ₊₁ ⊙ mₗ ⊙ LeakyReLU′(Zₗ)
//! dW⁽ˡ⁾ = Xₗᵀ·dZₗ + 2c·W⁽ˡ⁾          dXₗ = dZₗ·W⁽ˡ⁾ᵀ
//! dMₗ   = dXₗ[:, :d] + dXₗ[:, d:] ⊙ Eₗ
//! Gₗ    = dFₗ + dXₗ[:, :d] + dXₗ[:, d:] ⊙ Mₗ + Ã·dMₗ        (Ãᵀ = Ã)
//! ```
//!
//! and `G₀` is the embedding table's gradient. Three observations make it
//! cheap:
//!
//! * **One product per layer.** `(Mₗ + Eₗ)·W₁ + (Mₗ ⊙ Eₗ)·W₂ = Xₗ·W⁽ˡ⁾`:
//!   one `matrix::acc` with inner dimension `2d` onto register-resident
//!   `d`-wide rows, and its backward is one `tn_acc` and one `nt_acc` at
//!   width `2d`. `X` is built in one pass, and so are `dM` with the direct
//!   term. The stacked weights are a per-batch copy of `2d²` floats per
//!   layer; the parameters and the state envelope keep `w1_l`/`w2_l`.
//! * **The top layer only where the loss reads it.** `E_L` enters the
//!   loss at the batch's users and items alone, so `M_L` (through
//!   `Csr::spmm_acc_at`), `X_L`, `Z_L`, `E_L` and the top layer's backward
//!   run over `R`, the sorted unique batch nodes — about half the nodes on
//!   a server batch. Every lower layer covers all nodes, since `Ã` spreads
//!   them. Each layer keeps its own block, so the `[E₀ | … | E_L]`
//!   concatenation is never built during training.
//! * **Dropout masks are bits, and a node's bits are its own.** A batch
//!   draws one key from the dropout stream (a rate of 0 draws nothing).
//!   The `d` elements of a node on layer `l` take their bits from the
//!   `(key, l, global node id)`-derived stream, users first, then the
//!   catalogue (`num_users + item id`): one `u64` per two elements, each
//!   32-bit half keeping its element iff it is below `round(keep·2³²)`.
//!   So a mask is O(materialized nodes) to draw and does not depend on
//!   which nodes a table holds: a row-scoped model drops exactly what its
//!   `Full` twin drops on every node both hold. The mask is stored one bit
//!   per element and the backward reads the same bits. (A keep
//!   probability of 0.9 needs more than one random bit per element, so
//!   one `u64` cannot serve 64 elements.)
//!
//! Gradients land in a reused dense [`Grads`] and go through the Adam
//! step of `ScopedParams`, as NeuMF's do; the working buffers are
//! scratch, not state. The scoring cache is the same forward pass without
//! dropout over every node, each layer written into its column slice of
//! one `nodes × d(L+1)` matrix.

use crate::backbone::{add_pair_grads, bce_grads, joint_table, BatchNodes, GraphBackbone};
use crate::registry::ModelHyper;
use crate::scoped::{self, dense};
use crate::traits::Recommender;
use ptf_tensor::packed::{Reader, Writer};
use ptf_tensor::prelude::*;
use ptf_tensor::{derive_seed, init, isa, kernels, matrix, ParamId, Params, ScopeView};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Mutex;

/// Negative slope of the LeakyReLU (reference implementation: 0.2).
const LEAKY_SLOPE: f32 = 0.2;

/// The NGCF model: the shared graph backbone plus per-layer propagation
/// weights and a dropout stream.
pub struct Ngcf {
    base: GraphBackbone,
    /// L2 penalty on batch embeddings and propagation weights — the
    /// reference NGCF's weight decay; without it the extra W₁/W₂
    /// parameters overfit sparse interaction data badly.
    reg: f32,
    /// Message dropout rate applied to each layer's output during
    /// training (reference NGCF: 0.1). Inference never drops.
    message_dropout: f32,
    /// `W₁⁽ˡ⁾`/`W₂⁽ˡ⁾`, one pair per propagation layer.
    w1: Vec<ParamId>,
    w2: Vec<ParamId>,
    /// Model-owned RNG for training-time dropout: one key per batch.
    dropout_rng: StdRng,
    /// The working buffers of `train_batch` (taken out for the step's
    /// duration) and of the cache build, which runs under `&self`.
    work: Mutex<Workspace>,
}

/// One propagation layer's forward pass over its rows: every node below
/// the top layer, `R` at the top.
#[derive(Clone, Default)]
struct Layer {
    /// `Mₗ = Ã·Eₗ`, `rows × d`.
    m: Vec<f32>,
    /// `Xₗ = [Mₗ + Eₗ | Mₗ ⊙ Eₗ]`, `rows × 2d`.
    x: Vec<f32>,
    /// `Zₗ = Xₗ·W⁽ˡ⁾`, `rows × d`.
    z: Vec<f32>,
    /// `Eₗ₊₁`, `rows × d`.
    e: Vec<f32>,
    /// The dropout keep bits of `e`, one per element; empty without
    /// dropout.
    keep: Vec<u64>,
}

/// Everything a training step writes besides the parameters and the
/// dropout stream. All of it is overwritten per batch; the buffers grow
/// to the largest batch seen.
#[derive(Default)]
struct Workspace {
    at: BatchNodes,
    /// `W⁽ˡ⁾` of every layer, `2d × d` each, layer after layer.
    w: Vec<f32>,
    layers: Vec<Layer>,
    /// The logits, then `∂loss/∂logit` in place.
    logits: Vec<f32>,
    /// The gradient with respect to the output rows of the layer being
    /// differentiated (`Gₗ₊₁`, then `dZₗ` in place), and with respect to
    /// its input over every node (`Gₗ`).
    g: Vec<f32>,
    g_below: Vec<f32>,
    /// `dXₗ` (`rows × 2d`), `dMₗ` (every node) and `dW⁽ˡ⁾`.
    dx: Vec<f32>,
    dm: Vec<f32>,
    dw: Vec<f32>,
    grads: Option<Grads>,
}

impl Ngcf {
    #[cfg(test)]
    pub(crate) fn store(&self) -> &crate::scoped::ScopedParams {
        self.base.store()
    }

    /// An item-scoped NGCF: the item block of the joint node table
    /// materializes only `scope` (plus whatever
    /// [`Recommender::prepare_items`] adds later), every row initialized
    /// from its `(seed, id)`-derived stream; user rows and propagation
    /// weights draw from a scope-independent stream, and dropout masks
    /// from per-node streams. A `Rows` model is bit-identical to a `Full`
    /// model of the same seed on every shared row. Reads `dim`,
    /// `gcn_layers`, `lr`, `ngcf_reg` and `ngcf_dropout`.
    pub fn new_scoped(num_users: usize, cfg: &ModelHyper, scope: ScopeView<'_>, seed: u64) -> Self {
        assert!(cfg.gcn_layers > 0, "NGCF needs at least one propagation layer");
        assert!(
            (0.0..1.0).contains(&cfg.ngcf_dropout),
            "dropout rate must be in [0,1), got {}",
            cfg.ngcf_dropout
        );
        let mut rng = scoped::dense_rng(seed);
        let mut params = Params::new();
        let emb = params.push("emb", joint_table(num_users, cfg.dim, scope, seed, &mut rng));
        let mut w1 = Vec::with_capacity(cfg.gcn_layers);
        let mut w2 = Vec::with_capacity(cfg.gcn_layers);
        let dim = cfg.dim;
        for l in 0..cfg.gcn_layers {
            w1.push(params.push(format!("w1_{l}"), init::xavier_uniform(dim, dim, &mut rng)));
            w2.push(params.push(format!("w2_{l}"), init::xavier_uniform(dim, dim, &mut rng)));
        }
        let dropout_rng = StdRng::seed_from_u64(rng.gen());
        Self {
            base: GraphBackbone::new(num_users, params, emb, scope, seed, cfg.lr),
            reg: cfg.ngcf_reg,
            message_dropout: cfg.ngcf_dropout,
            w1,
            w2,
            dropout_rng,
            work: Mutex::default(),
        }
    }

    fn dim(&self) -> usize {
        self.base.store().dim()
    }

    fn num_layers(&self) -> usize {
        self.w1.len()
    }

    /// Copies `W⁽ˡ⁾ = [W₁⁽ˡ⁾; W₂⁽ˡ⁾]` of every layer into `w`.
    #[inline(always)]
    fn stack_weights(&self, w: &mut Vec<f32>) {
        let p = self.base.store().params();
        w.clear();
        for (&w1, &w2) in self.w1.iter().zip(&self.w2) {
            w.extend_from_slice(p.get(w1).as_slice());
            w.extend_from_slice(p.get(w2).as_slice());
        }
    }

    /// `Eₗ` over every node, for `l` below the top: the embedding table at
    /// `l = 0`, else layer `l − 1`'s output.
    #[inline(always)]
    fn input<'a>(&'a self, layers: &'a [Layer], l: usize) -> &'a [f32] {
        if l == 0 {
            self.base.emb()
        } else {
            &layers[l - 1].e
        }
    }

    /// The forward pass over the stacked weights `w`. Every layer covers
    /// all nodes except the top one, which covers `top` (all nodes if
    /// `None`); with a batch's dropout `key`, each layer draws the keep
    /// bits of the nodes it covers.
    #[inline(always)]
    fn forward(&self, w: &[f32], top: Option<&[u32]>, key: Option<u64>, layers: &mut [Layer]) {
        let (a, d, slope) = (self.base.prop(), self.dim(), LEAKY_SLOPE);
        let keep = 1.0 - self.message_dropout;
        let (threshold, scale) = ((keep as f64 * 4_294_967_296.0).round() as u64, 1.0 / keep);
        for l in 0..layers.len() {
            let (below, rest) = layers.split_at_mut(l);
            let (layer, e) = (&mut rest[0], self.input(below, l));
            let rows = if l + 1 == self.num_layers() { top } else { None };
            let n = rows.map_or(a.rows(), <[u32]>::len);
            layer.m.clear();
            layer.m.resize(n * d, 0.0);
            match rows {
                Some(rows) => a.spmm_acc_at(rows, e, d, &mut layer.m),
                None => a.spmm_acc(e, d, &mut layer.m),
            }
            // every element of X, Z's accumulator start and E is written below
            layer.x.resize(n * 2 * d, 0.0);
            for (k, (x, m)) in
                layer.x.chunks_exact_mut(2 * d).zip(layer.m.chunks_exact(d)).enumerate()
            {
                let node = rows.map_or(k, |rows| rows[k] as usize);
                let (sum, prod) = x.split_at_mut(d);
                let lanes = sum.iter_mut().zip(prod.iter_mut()).zip(m.iter().zip(&e[node * d..]));
                for ((sum, prod), (&m, &e)) in lanes {
                    *sum = m + e;
                    *prod = m * e;
                }
            }
            layer.z.clear();
            layer.z.resize(n * d, 0.0);
            matrix::acc(&layer.x, 2 * d, &w[l * 2 * d * d..(l + 1) * 2 * d * d], d, &mut layer.z);
            layer.keep.clear();
            if let Some(key) = key {
                let node = |k: usize| self.base.global_node(rows.map_or(k as u32, |rows| rows[k]));
                draw_keep_bits(key, l, n, d, threshold, node, &mut layer.keep);
            }
            layer.e.resize(n * d, 0.0);
            if layer.keep.is_empty() {
                for (e, &z) in layer.e.iter_mut().zip(&layer.z) {
                    *e = leaky(z, slope);
                }
            } else {
                let blocks = layer.e.chunks_mut(64).zip(layer.z.chunks(64)).zip(&layer.keep);
                for ((e, z), &bits) in blocks {
                    for ((e, &z), &kept) in e.iter_mut().zip(z).zip(&lane_masks(bits)) {
                        *e = f32::from_bits((leaky(z, slope) * scale).to_bits() & kept);
                    }
                }
            }
        }
    }

    /// Each batch row's logit `Σₗ ⟨Eₗ[u], Eₗ[v]⟩` into `work.logits`.
    #[inline(always)]
    fn logits(&self, work: &mut Workspace) {
        let Workspace { at, layers, logits, .. } = work;
        let (d, top) = (self.dim(), self.num_layers());
        logits.clear();
        logits.resize(at.users.len(), 0.0);
        for l in 0..top {
            let e = self.input(layers, l);
            for ((x, &u), &v) in logits.iter_mut().zip(&at.users).zip(&at.items) {
                *x += kernels::dot(row(e, u, d), row(e, v, d));
            }
        }
        let e = &layers[top - 1].e;
        for ((x, &u), &v) in logits.iter_mut().zip(&at.user_at).zip(&at.item_at) {
            *x += kernels::dot(row(e, u, d), row(e, v, d));
        }
    }

    /// The backward pass of the batch whose forward pass is in `work`,
    /// with `∂loss/∂logit` per row in place of the logits. Overwrites
    /// `grads`.
    #[inline(always)]
    fn backward(&self, work: &mut Workspace, grads: &mut Grads) {
        let Workspace { at, w, layers, logits: dl, g, g_below, dx, dm, dw, .. } = work;
        let (a, d, top, slope) = (self.base.prop(), self.dim(), self.num_layers(), LEAKY_SLOPE);
        let c2 = 2.0 * self.reg / dl.len() as f32;
        let scale = 1.0 / (1.0 - self.message_dropout);

        g.clear();
        g.resize(at.nodes.len() * d, 0.0);
        add_pair_grads(g, &layers[top - 1].e, d, &at.user_at, &at.item_at, dl, c2);
        for l in (0..top).rev() {
            let layer = &layers[l];
            let rows = (l + 1 == top).then_some(at.nodes.as_slice());
            let n = rows.map_or(a.rows(), <[u32]>::len);
            // dZ, in place of G
            if layer.keep.is_empty() {
                for (g, &z) in g.iter_mut().zip(&layer.z) {
                    *g = leaky_grad(*g, z, slope);
                }
            } else {
                for ((g, z), &bits) in g.chunks_mut(64).zip(layer.z.chunks(64)).zip(&layer.keep) {
                    for ((g, &z), &kept) in g.iter_mut().zip(z).zip(&lane_masks(bits)) {
                        *g = leaky_grad(f32::from_bits((*g * scale).to_bits() & kept), z, slope);
                    }
                }
            }
            let w_l = &w[l * 2 * d * d..(l + 1) * 2 * d * d];
            dw.clear();
            dw.extend(w_l.iter().map(|&w| c2 * w));
            matrix::tn_acc(&layer.x, 2 * d, g, d, dw);
            let (dw1, dw2) = dw.split_at(d * d);
            dense(grads, self.w1[l]).copy_from_slice(dw1);
            dense(grads, self.w2[l]).copy_from_slice(dw2);
            dx.clear();
            dx.resize(n * 2 * d, 0.0);
            matrix::nt_acc(g, d, w_l, 2 * d, dx);

            // dM and the direct term in one pass, then Gₗ += Ã·dM + dFₗ
            let e = self.input(layers, l);
            // (below the top every row is written; at it, rows outside R
            // stay zero)
            let g_l: &mut [f32] = if l == 0 {
                self.base.emb_grad(grads)
            } else {
                g_below.resize(a.rows() * d, 0.0);
                if rows.is_some() {
                    g_below.fill(0.0);
                }
                g_below
            };
            dm.resize(a.rows() * d, 0.0);
            if rows.is_some() {
                dm.fill(0.0);
            }
            for (k, (dx, m)) in dx.chunks_exact(2 * d).zip(layer.m.chunks_exact(d)).enumerate() {
                let at = rows.map_or(k, |rows| rows[k] as usize) * d;
                let (dsum, dprod) = dx.split_at(d);
                let outs = dm[at..].iter_mut().zip(&mut g_l[at..]);
                let ins = dsum.iter().zip(dprod).zip(e[at..].iter().zip(m));
                for ((dm, g_l), ((&dsum, &dprod), (&e, &m))) in outs.zip(ins) {
                    *dm = dsum + dprod * e;
                    *g_l = dsum + dprod * m;
                }
            }
            a.spmm_acc(dm, d, g_l);
            add_pair_grads(g_l, e, d, &at.users, &at.items, dl, c2);
            if l > 0 {
                std::mem::swap(g, g_below);
            }
        }
    }

    /// [`Recommender::train_batch`], compiled into its caller: the trait
    /// method runs it under [`isa::dispatch`].
    #[inline(always)]
    fn step(&mut self, batch: &[(u32, u32, f32)]) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        let mut work = std::mem::take(self.work.get_mut().expect("workspace lock poisoned"));
        self.base.begin_batch(batch, &mut work.at);
        let mut grads = work.grads.take().unwrap_or_else(|| self.base.new_grads());
        self.stack_weights(&mut work.w);
        work.layers.resize_with(self.num_layers(), Layer::default);
        let key = (self.message_dropout > 0.0).then(|| self.dropout_rng.next_u64());
        self.forward(&work.w, Some(&work.at.nodes), key, &mut work.layers);
        self.logits(&mut work);
        let loss = bce_grads(&mut work.logits, batch);
        self.backward(&mut work, &mut grads);
        self.base.step(&grads);
        work.grads = Some(grads);
        *self.work.get_mut().expect("workspace lock poisoned") = work;
        loss
    }

    /// The scoring cache: the forward pass without dropout over every
    /// node, layer `l` in columns `l·d..(l+1)·d` of `out`.
    fn build_cache(&self, out: &mut Matrix) {
        let (d, top) = (self.dim(), self.num_layers());
        let mut work = self.work.lock().expect("workspace lock poisoned");
        let Workspace { w, layers, .. } = &mut *work;
        self.stack_weights(w);
        layers.resize_with(top, Layer::default);
        self.forward(w, None, None, layers);
        out.reset_to(self.base.prop().rows(), d * (top + 1));
        for (node, row) in out.as_mut_slice().chunks_exact_mut(d * (top + 1)).enumerate() {
            for (l, block) in row.chunks_exact_mut(d).enumerate() {
                block.copy_from_slice(&self.input(layers, l)[node * d..(node + 1) * d]);
            }
        }
    }

    /// The final concatenated representation an *unmaterialized* (hence
    /// isolated) item would get, into `out` (`d(L+1)` wide): zero messages
    /// and zero affinity leave only the self path, `e ← LeakyReLU(e W₁⁽ˡ⁾)`
    /// layer by layer. The forward pass's product over `[e | 0]` adds
    /// exact zeros after the same serial sum, so this matches a full
    /// model's edgeless item bit for bit.
    fn cold_item_final(&self, id: u32, out: &mut [f32]) {
        let (p, d) = (self.base.store().params(), self.dim());
        self.base.store().rows().cold_row(id, &mut out[..d]);
        for (l, &w1) in self.w1.iter().enumerate() {
            let (done, todo) = out.split_at_mut((l + 1) * d);
            let next = &mut todo[..d];
            next.fill(0.0);
            matrix::acc(&done[l * d..], d, p.get(w1).as_slice(), d, next);
            next.iter_mut().for_each(|z| *z = leaky(*z, LEAKY_SLOPE));
        }
    }
}

/// Row `i` of a block of `d`-wide rows.
#[inline(always)]
fn row(e: &[f32], i: u32, d: usize) -> &[f32] {
    &e[i as usize * d..(i as usize + 1) * d]
}

#[inline(always)]
fn leaky(z: f32, slope: f32) -> f32 {
    if z > 0.0 {
        z
    } else {
        slope * z
    }
}

/// `g·LeakyReLU′(z)`.
#[inline(always)]
fn leaky_grad(g: f32, z: f32, slope: f32) -> f32 {
    if z > 0.0 {
        g
    } else {
        slope * g
    }
}

/// Draws the keep bits of `n` rows of `d` elements on `layer` into
/// `bits`, row `k` from the `(key, layer, node(k))`-derived stream of its
/// global node: one `u64` per two elements, each 32-bit half (low half
/// first) keeping its element iff it is below `threshold`.
#[inline(always)]
fn draw_keep_bits(
    key: u64,
    layer: usize,
    n: usize,
    d: usize,
    threshold: u64,
    node: impl Fn(usize) -> u64,
    bits: &mut Vec<u64>,
) {
    bits.clear();
    // one spare word, which a row's last bits may spill into
    bits.resize((n * d).div_ceil(64) + 1, 0);
    for k in 0..n {
        let stream = derive_seed(key, layer as u64, node(k));
        for start in (0..d).step_by(64) {
            let width = (d - start).min(64);
            let mut word = 0;
            for pair in 0..width.div_ceil(2) {
                let r = derive_seed(stream, (start / 2 + pair) as u64, 0);
                let two =
                    ((r & 0xffff_ffff) < threshold) as u64 | (((r >> 32) < threshold) as u64) << 1;
                word |= two << (2 * pair);
            }
            // an odd width's last draw has no element in its high half
            word &= u64::MAX >> (64 - width);
            let at = k * d + start;
            bits[at / 64] |= word << (at % 64);
            bits[at / 64 + 1] |= (word >> 1) >> (63 - at % 64);
        }
    }
    bits.pop();
}

/// The lanes of a word of keep bits: all ones where the element is kept,
/// zero where it is dropped — a dropped element is masked to `+0.0`.
#[inline(always)]
fn lane_masks(bits: u64) -> [u32; 64] {
    std::array::from_fn(|j| 0u32.wrapping_sub(((bits >> j) & 1) as u32))
}

impl Recommender for Ngcf {
    fn name(&self) -> &'static str {
        "NGCF"
    }

    fn num_users(&self) -> usize {
        self.base.num_users()
    }

    fn num_items(&self) -> usize {
        self.base.store().rows().index().num_items()
    }

    fn num_params(&self) -> usize {
        self.base.store().params().num_scalars()
    }

    fn item_scope(&self) -> ScopeView<'_> {
        self.base.store().rows().index().view()
    }

    fn prepare_items(&mut self, sorted_ids: &[u32]) {
        self.base.prepare_items(sorted_ids);
    }

    fn evict_items(&mut self, keep_sorted: &[u32]) -> usize {
        self.base.evict_items(keep_sorted)
    }

    fn logits_into(&self, user: u32, items: &[u32], out: &mut Vec<f32>) {
        self.base.logits_into(
            user,
            items,
            out,
            |f| self.build_cache(f),
            |i, cold| self.cold_item_final(i, cold),
        );
    }

    fn train_batch(&mut self, batch: &[(u32, u32, f32)]) -> f32 {
        isa::dispatch(
            #[inline(always)]
            |_| self.step(batch),
        )
    }

    fn set_graph(&mut self, edges: &[(u32, u32, f32)]) {
        self.base.set_graph(edges);
    }

    fn uses_graph(&self) -> bool {
        true
    }

    fn write_full_state(&self, w: &mut Writer<'_>) -> bool {
        self.base.store().write(w, "NGCF", Some(&self.dropout_rng));
        true
    }

    fn read_full_state(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        // the dropout stream is part of the training state: without it a
        // resumed model would draw different masks than the original
        self.dropout_rng = self
            .base
            .read(r, "NGCF")?
            .ok_or_else(|| "NGCF checkpoint is missing the dropout RNG state".to_string())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::prepare_batch;
    use proptest::prelude::*;
    use ptf_tape::{Graph, Var};

    /// Whether element `j` of a layer was kept.
    fn kept(bits: &[u64], j: usize) -> bool {
        (bits[j / 64] >> (j % 64)) & 1 == 1
    }

    /// The oracle: the same model built on the autograd tape, which is
    /// how NGCF trained and scored before its step was written by hand.
    impl Ngcf {
        /// One propagation layer on the tape; `mask` (node-row values)
        /// stands in for dropout.
        fn tape_layer(&self, g: &mut Graph<'_>, e: Var, l: usize, mask: Option<Matrix>) -> Var {
            let msg = g.spmm(self.base.prop(), e);
            self.tape_layer_from(g, msg, e, l, mask)
        }

        fn tape_layer_from(
            &self,
            g: &mut Graph<'_>,
            msg: Var,
            e: Var,
            l: usize,
            mask: Option<Matrix>,
        ) -> Var {
            let with_self = g.add(msg, e);
            let w1 = g.param(self.w1[l]);
            let term1 = g.matmul(with_self, w1);
            let affinity = g.mul(msg, e);
            let w2 = g.param(self.w2[l]);
            let term2 = g.matmul(affinity, w2);
            let summed = g.add(term1, term2);
            let out = g.leaky_relu(summed, LEAKY_SLOPE);
            match mask {
                Some(mask) => {
                    let mask = g.leaf(mask);
                    g.mul(out, mask)
                }
                None => out,
            }
        }

        /// `[E₀ | … | E_L]` on the tape, each layer times its mask.
        fn tape_final(&self, g: &mut Graph<'_>, mut masks: Vec<Option<Matrix>>) -> Var {
            let e0 = g.param(self.base.store().emb());
            let (mut e, mut out) = (e0, e0);
            for (l, mask) in masks.drain(..).enumerate() {
                e = self.tape_layer(g, e, l, mask);
                out = g.concat_cols(out, e);
            }
            out
        }

        /// One training step through `Graph::backward`, each layer's
        /// output multiplied by `masks[l]`.
        fn tape_train_batch_masked(
            &mut self,
            batch: &[(u32, u32, f32)],
            masks: Vec<Option<Matrix>>,
        ) -> f32 {
            let mut at = BatchNodes::default();
            self.base.begin_batch(batch, &mut at);
            let labels: Vec<f32> = batch.iter().map(|&(_, _, l)| l).collect();
            let (grads, loss) = {
                let mut g = Graph::new(self.base.store().params());
                let f = self.tape_final(&mut g, masks);
                let u = g.gather(f, &at.users);
                let v = g.gather(f, &at.items);
                let logits = g.row_dot(u, v);
                let data_loss = g.bce_with_logits(logits, &labels);
                let mut penalty = g.frob_sq(u);
                let pv = g.frob_sq(v);
                penalty = g.add(penalty, pv);
                for &w in self.w1.iter().chain(&self.w2) {
                    let wv = g.param(w);
                    let pw = g.frob_sq(wv);
                    penalty = g.add(penalty, pw);
                }
                let penalty = g.scale(penalty, self.reg / batch.len() as f32);
                let loss = g.add(data_loss, penalty);
                (g.backward(loss), g.scalar(data_loss))
            };
            self.base.step(&grads);
            loss
        }

        fn tape_train_batch(&mut self, batch: &[(u32, u32, f32)]) -> f32 {
            self.tape_train_batch_masked(batch, vec![None; self.num_layers()])
        }

        /// Scores on the tape; a cold item's final rows come from the
        /// tape too, as an isolated node (zero messages) of its derived
        /// init.
        fn tape_score(&self, user: u32, items: &[u32]) -> Vec<f32> {
            let mut g = Graph::new(self.base.store().params());
            let f = self.tape_final(&mut g, vec![None; self.num_layers()]);
            let u = g.value(f).row(user as usize).to_vec();
            items
                .iter()
                .map(|&i| {
                    let fi = match self.base.store().rows().lookup(i) {
                        Some(node) => g.value(f).row(node).to_vec(),
                        None => {
                            let d = self.dim();
                            let mut init = Matrix::zeros(1, d);
                            self.base.store().rows().cold_row(i, init.as_mut_slice());
                            let mut c = Graph::new(self.base.store().params());
                            let (mut e, mut out) = (c.leaf(init.clone()), c.leaf(init));
                            for l in 0..self.num_layers() {
                                let msg = c.leaf(Matrix::zeros(1, d));
                                e = self.tape_layer_from(&mut c, msg, e, l, None);
                                out = c.concat_cols(out, e);
                            }
                            c.value(out).as_slice().to_vec()
                        }
                    };
                    crate::traits::stable_sigmoid(kernels::dot(&u, &fi))
                })
                .collect()
        }

        /// The masks the last `train_batch` drew, as the tape's per-layer
        /// node-row multipliers (rows outside `R` on the top layer do not
        /// reach the loss; they keep 1).
        fn drawn_masks(&self) -> Vec<Option<Matrix>> {
            let (d, nodes) = (self.dim(), self.base.prop().rows());
            let scale = 1.0 / (1.0 - self.message_dropout);
            let value = |bits: &[u64], j| if kept(bits, j) { scale } else { 0.0 };
            let work = self.work.lock().unwrap();
            (0..self.num_layers())
                .map(|l| {
                    let bits = &work.layers[l].keep;
                    let mut mask = Matrix::full(nodes, d, 1.0);
                    if l + 1 == self.num_layers() {
                        for (k, &node) in work.at.nodes.iter().enumerate() {
                            for j in 0..d {
                                mask.set(node as usize, j, value(bits, k * d + j));
                            }
                        }
                    } else {
                        for j in 0..nodes * d {
                            mask.as_mut_slice()[j] = value(bits, j);
                        }
                    }
                    Some(mask)
                })
                .collect()
        }
    }

    /// Adam normalizes every gradient element, so an element whose
    /// gradient is rounding noise in both builds (they sum in different
    /// orders) steps by up to `lr` whichever way the noise falls: the
    /// comparisons run at `lr = 1e-4`, where five steps still move the
    /// parameters by a multiple of the 1e-5 tolerance.
    fn cfg(dim: usize, layers: usize, dropout: f32) -> ModelHyper {
        let (lr, ngcf_reg, ngcf_dropout) = (1e-4, 1e-2, dropout);
        ModelHyper { dim, gcn_layers: layers, lr, ngcf_reg, ngcf_dropout, ..ModelHyper::default() }
    }

    /// 3 users × 9 items: a soft-weighted graph over some of them, and a
    /// batch of `n` soft-labelled rows.
    #[allow(clippy::type_complexity)]
    fn case(seed: u64, n: usize) -> (Vec<(u32, u32, f32)>, Vec<(u32, u32, f32)>) {
        let mut rng = ptf_tensor::test_rng(seed);
        let edges = (0..6)
            .map(|_| (rng.gen_range(0..3u32), rng.gen_range(0..7u32), rng.gen_range(0.3f32..1.0)))
            .collect();
        let batch =
            (0..n).map(|_| (rng.gen_range(0..3u32), rng.gen_range(0..9u32), rng.gen())).collect();
        (edges, batch)
    }

    fn scope(sparse: bool) -> ScopeView<'static> {
        if sparse {
            ScopeView::Rows { num_items: 9, ids: &[2, 5] }
        } else {
            ScopeView::Full(9)
        }
    }

    /// Embedding widths that hit and miss the fixed kernel widths, on
    /// `acc`'s output (`d`) and `nt_acc`'s (`2d`).
    const DIMS: [usize; 7] = [5, 8, 16, 24, 32, 33, 64];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn hand_derived_step_matches_the_tape(
            seed in any::<u64>(),
            dim in 0usize..DIMS.len(),
            layers in 1usize..=3,
            n in 1usize..=70,
            sparse in any::<bool>(),
        ) {
            let cfg = cfg(DIMS[dim], layers, 0.0);
            let (edges, batch) = case(seed, n);
            let mut hand = Ngcf::new_scoped(3, &cfg, scope(sparse), seed);
            let mut tape = Ngcf::new_scoped(3, &cfg, scope(sparse), seed);
            prepare_batch(&mut hand, &edges);
            prepare_batch(&mut hand, &batch);
            hand.set_graph(&edges);
            prepare_batch(&mut tape, &edges);
            prepare_batch(&mut tape, &batch);
            tape.set_graph(&edges);
            let start = hand.base.store().params().get(hand.w1[0]).clone();
            let all: Vec<u32> = (0..9).collect();
            for step in 0..5 {
                // a rotating prefix, so the workspace sees shrinking and
                // growing batches
                let part = &batch[..n - (step * 7) % n];
                let (lh, lt) = (hand.train_batch(part), tape.tape_train_batch(part));
                prop_assert!((lh - lt).abs() <= 1e-6, "step {step}: loss {lh} vs tape {lt}");
            }
            for ((_, name, h), (_, _, t)) in
                hand.base.store().params().iter().zip(tape.base.store().params().iter())
            {
                prop_assert!(
                    h.max_abs_diff(t) <= 1e-5,
                    "{name} drifted {} (dim {}, {layers} layers, {n} rows, sparse {sparse})",
                    h.max_abs_diff(t),
                    DIMS[dim]
                );
            }
            let moved = hand.base.store().params().get(hand.w1[0]).max_abs_diff(&start);
            prop_assert!(moved >= 1e-4, "W₁⁽⁰⁾ moved only {moved}");
            for user in 0..3 {
                let scores = hand.score(user, &all);
                let mut into = vec![7.0; 3];
                hand.score_into(user, &all, &mut into);
                prop_assert_eq!(&scores, &into);
                for (s, t) in scores.iter().zip(tape.tape_score(user, &all)) {
                    prop_assert!((s - t).abs() <= 1e-5, "score {s} vs tape {t}");
                }
            }
        }
    }

    #[test]
    fn dropped_units_pass_no_gradient() {
        // the tape multiplies each layer by the mask the hand step drew —
        // a constant, so a dropped (zero) unit passes exactly no gradient
        // there — and the two steps must agree
        for (layers, sparse) in [(1, false), (2, true), (3, false)] {
            let cfg = cfg(16, layers, 0.4);
            let (edges, batch) = case(layers as u64, 50);
            let mut hand = Ngcf::new_scoped(3, &cfg, scope(sparse), 5);
            let mut tape = Ngcf::new_scoped(3, &cfg, scope(sparse), 5);
            prepare_batch(&mut hand, &edges);
            prepare_batch(&mut hand, &batch);
            hand.set_graph(&edges);
            prepare_batch(&mut tape, &edges);
            prepare_batch(&mut tape, &batch);
            tape.set_graph(&edges);
            for step in 0..3 {
                let lh = hand.train_batch(&batch);
                let masks = hand.drawn_masks();
                let dropped =
                    masks.iter().flatten().flat_map(|m| m.as_slice()).filter(|&&v| v == 0.0);
                assert!(dropped.count() > 0, "nothing was dropped");
                let lt = tape.tape_train_batch_masked(&batch, masks);
                assert!((lh - lt).abs() <= 1e-6, "step {step}: loss {lh} vs tape {lt}");
            }
            for ((_, name, h), (_, _, t)) in
                hand.base.store().params().iter().zip(tape.base.store().params().iter())
            {
                assert!(h.max_abs_diff(t) <= 1e-5, "{name} drifted {}", h.max_abs_diff(t));
            }
        }
    }

    #[test]
    fn the_kept_share_is_the_keep_probability() {
        // 54,055 nodes of 37 elements: ≈ 10⁶ draws, and an odd width whose
        // rows straddle the words; the kept count is binomial
        for rate in [0.1f32, 0.5, 0.9] {
            let keep = 1.0 - rate;
            let threshold = (keep as f64 * 4_294_967_296.0).round() as u64;
            let (nodes, d) = (54_055, 37);
            let n = nodes * d;
            let mut bits = Vec::new();
            draw_keep_bits(rate.to_bits() as u64, 1, nodes, d, threshold, |k| k as u64, &mut bits);
            assert_eq!(bits.len(), n.div_ceil(64));
            let count: u32 = bits.iter().map(|w| w.count_ones()).sum();
            let p = keep as f64;
            let sigma = (n as f64 * p * (1.0 - p)).sqrt();
            let off = (count as f64 - n as f64 * p).abs();
            assert!(off <= 4.0 * sigma, "rate {rate}: kept {count} of {n}, {off} off ({sigma} σ)");
            assert_eq!(
                (0..n).filter(|&j| kept(&bits, j)).count(),
                count as usize,
                "no bit past the last element"
            );
        }
    }

    #[test]
    fn a_nodes_keep_bits_do_not_depend_on_the_layout() {
        // a row-scoped model and its Full twin drop the same elements of
        // every node both hold, on every layer, and so train alike
        let cfg = cfg(5, 3, 0.3);
        let edges = [(0, 2, 0.9), (1, 5, 1.0), (2, 3, 0.6), (0, 7, 0.8)];
        let batch: Vec<(u32, u32, f32)> =
            (0..30).map(|k| (k % 3, [2, 3, 5, 7][k as usize % 4], (k % 2) as f32)).collect();
        let mut full = Ngcf::new_scoped(3, &cfg, scope(false), 13);
        let mut rows = Ngcf::new_scoped(3, &cfg, scope(true), 13);
        for m in [&mut full, &mut rows] {
            prepare_batch(m, &edges);
            prepare_batch(m, &batch);
            m.set_graph(&edges);
        }
        for step in 0..3 {
            let (lf, lr) = (full.train_batch(&batch), rows.train_batch(&batch));
            assert_eq!(lf.to_bits(), lr.to_bits(), "step {step}");
            let held = rows.base.prop().rows() as u32;
            assert!(held < full.base.prop().rows() as u32, "the scoped model holds every node");
            let (wf, wr) = (full.work.get_mut().unwrap(), rows.work.get_mut().unwrap());
            for l in 0..2 {
                for node in 0..held {
                    let at = rows.base.global_node(node) as usize;
                    for j in 0..5 {
                        let (f, r) = (&wf.layers[l].keep, &wr.layers[l].keep);
                        assert_eq!(kept(f, at * 5 + j), kept(r, node as usize * 5 + j));
                    }
                }
            }
            assert_eq!(wf.layers[2].keep, wr.layers[2].keep, "the top layer covers R alike");
        }
    }

    #[test]
    fn a_restored_model_draws_the_same_masks() {
        let cfg = cfg(8, 2, 0.3);
        let (edges, batch) = case(9, 40);
        let mut a = Ngcf::new_scoped(3, &cfg, scope(true), 21);
        prepare_batch(&mut a, &edges);
        prepare_batch(&mut a, &batch);
        a.set_graph(&edges);
        for _ in 0..3 {
            a.train_batch(&batch);
        }
        let mut b = Ngcf::new_scoped(3, &cfg, scope(false), 99);
        b.import_full_state(&a.export_full_state().unwrap()).unwrap();
        prepare_batch(&mut a, &edges);
        prepare_batch(&mut a, &batch);
        a.set_graph(&edges);
        prepare_batch(&mut b, &edges);
        prepare_batch(&mut b, &batch);
        b.set_graph(&edges);
        assert_eq!(a.train_batch(&batch).to_bits(), b.train_batch(&batch).to_bits());
        let (wa, wb) = (a.work.get_mut().unwrap(), b.work.get_mut().unwrap());
        for (la, lb) in wa.layers.iter().zip(&wb.layers) {
            assert!(!la.keep.is_empty());
            assert_eq!(la.keep, lb.keep, "the next batch's masks differ");
        }
        assert_eq!(a.export_full_state(), b.export_full_state());
    }

    #[test]
    fn a_batch_draws_one_key_and_none_without_dropout() {
        let cfg = cfg(5, 2, 0.25);
        let (edges, batch) = case(4, 7);
        let mut m = Ngcf::new_scoped(3, &cfg, scope(false), 2);
        prepare_batch(&mut m, &edges);
        prepare_batch(&mut m, &batch);
        m.set_graph(&edges);
        let mut expect = m.dropout_rng.clone();
        m.train_batch(&batch);
        expect.next_u64();
        assert_eq!(m.dropout_rng.state(), expect.state());
        let mut still =
            Ngcf::new_scoped(3, &ModelHyper { ngcf_dropout: 0.0, ..cfg }, scope(false), 2);
        let before = still.dropout_rng.state();
        still.train_batch(&batch);
        assert_eq!(still.dropout_rng.state(), before);
    }

    #[test]
    fn the_dispatched_step_is_bit_identical_to_the_baseline_body() {
        if !crate::test_util::avx2_path() {
            return;
        }
        use crate::test_util::bits;
        // the paper's width (d = 32, 2d = 64), a second fixed width and
        // one that misses them all; dropout on, so the stream must agree
        for (dim, layers, sparse) in [(32, 3, false), (16, 2, true), (5, 1, false)] {
            let cfg = ModelHyper { lr: 1e-2, ngcf_reg: 1e-3, ..cfg(dim, layers, 0.1) };
            let (edges, batch) = case(dim as u64, 60);
            let mut base = Ngcf::new_scoped(3, &cfg, scope(sparse), 8);
            let mut twin = Ngcf::new_scoped(3, &cfg, scope(sparse), 8);
            prepare_batch(&mut base, &edges);
            prepare_batch(&mut base, &batch);
            base.set_graph(&edges);
            prepare_batch(&mut twin, &edges);
            prepare_batch(&mut twin, &batch);
            twin.set_graph(&edges);
            for step in 0..5 {
                let part = &batch[..60 - 7 * step];
                let (lb, lt) = (base.step(part), twin.train_batch(part));
                assert_eq!(lb.to_bits(), lt.to_bits(), "dim {dim} step {step}: {lb} vs {lt}");
            }
            // the envelope carries the dropout stream
            assert_eq!(base.export_full_state(), twin.export_full_state());
            let all: Vec<u32> = (0..9).collect();
            for user in 0..3 {
                let (mut lb, mut lt) = (Vec::new(), Vec::new());
                base.logits_into(user, &all, &mut lb);
                twin.logits_into(user, &all, &mut lt);
                assert_eq!(bits(&lb), bits(&lt), "dim {dim} user {user}");
            }
        }
    }

    fn tiny() -> Ngcf {
        let cfg = ModelHyper {
            dim: 8,
            gcn_layers: 2,
            lr: 0.02,
            ngcf_reg: 1e-3,
            ngcf_dropout: 0.1,
            ..ModelHyper::default()
        };
        Ngcf::new_scoped(4, &cfg, ScopeView::Full(6), 7)
    }

    #[test]
    fn param_count_matches_architecture() {
        let m = tiny();
        // table (4+6)*8 + 2 layers × two 8×8 weights
        assert_eq!(m.num_params(), 10 * 8 + 2 * 2 * 64);
    }

    #[test]
    fn final_embedding_concatenates_layers() {
        let m = tiny();
        // dim 8 × (1 original + 2 layers)
        assert_eq!(m.base.with_final(|f| m.build_cache(f), Matrix::cols), 24);
    }

    #[test]
    fn scores_are_probabilities() {
        let mut m = tiny();
        m.set_graph(&[(0, 0, 1.0), (1, 2, 1.0)]);
        let s = m.score(0, &[0, 1, 2, 3, 4, 5]);
        assert!(s.iter().all(|&p| (0.0..=1.0).contains(&p)), "{s:?}");
    }

    #[test]
    fn training_reduces_loss_and_separates() {
        let mut m = tiny();
        m.set_graph(&[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        let batch: Vec<(u32, u32, f32)> = vec![(0, 0, 1.0), (0, 3, 0.0), (1, 1, 1.0), (1, 4, 0.0)];
        let first = m.train_batch(&batch);
        let mut last = first;
        for _ in 0..250 {
            last = m.train_batch(&batch);
        }
        assert!(last < first * 0.5, "loss did not shrink: {first} → {last}");
        let s = m.score(0, &[0, 3]);
        assert!(s[0] > s[1], "positive not ranked above negative: {s:?}");
    }

    #[test]
    fn graph_rebuild_changes_scores() {
        let mut m = tiny();
        let before = m.score(1, &[0])[0];
        m.set_graph(&[(1, 0, 1.0), (0, 0, 1.0)]);
        let after = m.score(1, &[0])[0];
        assert_ne!(before, after);
    }

    #[test]
    fn soft_edges_are_usable() {
        let mut m = tiny();
        // server-style soft weights must produce a valid propagation
        m.set_graph(&[(0, 0, 0.93), (1, 0, 0.71), (2, 3, 0.88)]);
        let s = m.score(0, &[0, 3]);
        assert!(s.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = ModelHyper::default();
        let a = Ngcf::new_scoped(3, &cfg, ScopeView::Full(4), 11);
        let b = Ngcf::new_scoped(3, &cfg, ScopeView::Full(4), 11);
        assert_eq!(a.score(0, &[0, 1]), b.score(0, &[0, 1]));
    }

    #[test]
    #[should_panic(expected = "item 6 was not prepared")]
    fn training_an_unprepared_item_panics_naming_it() {
        let mut m = Ngcf::new_scoped(2, &cfg(8, 1, 0.0), scope(true), 3);
        m.set_graph(&[(0, 2, 1.0)]);
        m.train_batch(&[(0, 5, 1.0), (1, 6, 0.0)]);
    }
}
