//! LightGCN — simplified graph convolution (He et al., SIGIR 2020).
//!
//! One embedding table over the joint user+item node space; each layer is
//! a pure normalized-adjacency propagation `E^{(l+1)} = Ã E^{(l)}`; the
//! final representation is the layer mean `E = mean(E^{(0)}, …, E^{(L)})`
//! and the score of `(u, i)` is `σ(⟨e_u, e_i⟩)`.
//!
//! # The training step, by hand
//!
//! LightGCN is NGCF without weights, nonlinearity or dropout, and its step
//! is written out the same way (the tape build in the dev-only `ptf-tape`
//! crate is the test oracle). With `s = 1/(L+1)`, `F = s·(E₀ + … + E_L)`,
//! logits `xₖ = ⟨F[uₖ], F[vₖ]⟩`, the batch-mean BCE and
//! `dxₖ = (σ(xₖ) − tₖ)/B`, let `dF` be the gradient with respect to `F`
//! (`dxₖ·F[vₖ]` at `uₖ`, symmetrically at `vₖ`). Every layer reads `s·dF`
//! through the mean, and `Ãᵀ = Ã`, so with `Gₗ` the whole gradient with
//! respect to `Eₗ`,
//!
//! ```text
//! G_L   = s·dF
//! Gₗ₋₁  = s·dF + Ã·Gₗ
//! ```
//!
//! down to `G₀`, the embedding table's gradient. `F` — hence `dF` and
//! `G_L` — is read only at the batch's users and items, so the top layer
//! `E_L = Ã·E_{L−1}` is computed over `R`, the sorted unique batch nodes,
//! alone (`Csr::spmm_acc_at`); every lower layer covers all nodes. Each
//! layer keeps its own block and `F` is summed layer by layer at `R`, in
//! the order the scoring cache sums it over every node. Gradients go
//! through the Adam step of `ScopedParams`; the working buffers are
//! scratch, not state.

use crate::backbone::{add_pair_grads, bce_grads, joint_table, BatchNodes, GraphBackbone};
use crate::registry::ModelHyper;
use crate::scoped;
use crate::traits::Recommender;
use ptf_tensor::packed::{Reader, Writer};
use ptf_tensor::prelude::*;
use ptf_tensor::{kernels, Params, ScopeView};
use std::sync::Mutex;

/// The LightGCN model: the shared graph backbone with a parameter-free
/// propagation rule.
pub struct LightGcn {
    base: GraphBackbone,
    layers: usize,
    /// The working buffers of `train_batch` (taken out for the step's
    /// duration) and of the cache build, which runs under `&self`.
    work: Mutex<Workspace>,
}

/// Everything a training step writes besides the parameters. All of it is
/// overwritten per batch; the buffers grow to the largest batch seen.
#[derive(Default)]
struct Workspace {
    at: BatchNodes,
    /// `E₁ … E_L`: every node below the top layer, `R` at the top.
    layers: Vec<Vec<f32>>,
    /// `F` at `R`, then `s·dF` there.
    f: Vec<f32>,
    df: Vec<f32>,
    /// The logits, then `∂loss/∂logit` in place.
    logits: Vec<f32>,
    /// `s·dF` spread over every node, and the running `Gₗ` (two buffers).
    spread: Vec<f32>,
    g: Vec<f32>,
    g_next: Vec<f32>,
    grads: Option<Grads>,
}

impl LightGcn {
    #[cfg(test)]
    pub(crate) fn store(&self) -> &crate::scoped::ScopedParams {
        self.base.store()
    }

    /// An item-scoped LightGCN: the item block of the joint node table
    /// materializes only `scope` (plus whatever
    /// [`Recommender::prepare_items`] adds later), every row initialized
    /// from its `(seed, id)`-derived stream; user rows draw from a
    /// scope-independent stream. Reads `dim`, `gcn_layers` and `lr`.
    pub fn new_scoped(num_users: usize, cfg: &ModelHyper, scope: ScopeView<'_>, seed: u64) -> Self {
        assert!(cfg.gcn_layers > 0, "LightGCN needs at least one propagation layer");
        let mut rng = scoped::dense_rng(seed);
        let mut params = Params::new();
        let emb = params.push("emb", joint_table(num_users, cfg.dim, scope, seed, &mut rng));
        Self {
            base: GraphBackbone::new(num_users, params, emb, scope, seed, cfg.lr),
            layers: cfg.gcn_layers,
            work: Mutex::default(),
        }
    }

    fn dim(&self) -> usize {
        self.base.store().dim()
    }

    /// The layer-mean weight `s = 1/(L+1)`.
    fn mean_scale(&self) -> f32 {
        1.0 / (self.layers + 1) as f32
    }

    /// `E₁ … E_L` into `layers`: every node below the top layer, `top`
    /// (all nodes if `None`) at it.
    fn forward(&self, top: Option<&[u32]>, layers: &mut [Vec<f32>]) {
        let (a, d) = (self.base.prop(), self.dim());
        for l in 0..layers.len() {
            let (below, rest) = layers.split_at_mut(l);
            let e = if l == 0 { self.base.emb() } else { &below[l - 1] };
            let out = &mut rest[0];
            let rows = if l + 1 == self.layers { top } else { None };
            out.clear();
            out.resize(rows.map_or(a.rows(), <[u32]>::len) * d, 0.0);
            match rows {
                Some(rows) => a.spmm_acc_at(rows, e, d, out),
                None => a.spmm_acc(e, d, out),
            }
        }
    }

    /// `F = s·(E₀ + E₁ + … + E_L)` into `out`, summed layer by layer, at
    /// the top layer's rows `top` (all nodes if `None`).
    fn mean_into(&self, layers: &[Vec<f32>], top: Option<&[u32]>, out: &mut [f32]) {
        let (d, s) = (self.dim(), self.mean_scale());
        let (lower, top_rows) = layers.split_at(self.layers - 1);
        for (k, (f, e_top)) in out.chunks_exact_mut(d).zip(top_rows[0].chunks_exact(d)).enumerate()
        {
            let node = top.map_or(k, |rows| rows[k] as usize) * d;
            f.copy_from_slice(&self.base.emb()[node..node + d]);
            for e in lower {
                kernels::add_assign(f, &e[node..node + d]);
            }
            kernels::add_assign(f, e_top);
            f.iter_mut().for_each(|x| *x *= s);
        }
    }

    /// The backward pass of the batch whose forward pass is in `work`,
    /// with `∂loss/∂logit` per row in place of the logits. Overwrites
    /// `grads`.
    fn backward(&self, work: &mut Workspace, grads: &mut Grads) {
        let Workspace { at, f, df, logits: dl, spread, g, g_next, .. } = work;
        let (a, d, s) = (self.base.prop(), self.dim(), self.mean_scale());
        df.clear();
        df.resize(f.len(), 0.0);
        add_pair_grads(df, f, d, &at.user_at, &at.item_at, dl, 0.0);
        spread.clear();
        spread.resize(a.rows() * d, 0.0);
        for (&node, df) in at.nodes.iter().zip(df.chunks_exact(d)) {
            let node = node as usize * d;
            for (x, &df) in spread[node..node + d].iter_mut().zip(df) {
                *x = s * df;
            }
        }
        // G_L, spread over every node (zero outside R), then down the layers
        g.clone_from(spread);
        for _ in 0..self.layers {
            g_next.clone_from(spread);
            a.spmm_acc(g, d, g_next);
            std::mem::swap(g, g_next);
        }
        self.base.emb_grad(grads).copy_from_slice(g);
    }

    /// The scoring cache: `F` over every node.
    fn build_cache(&self, out: &mut Matrix) {
        let layers = &mut self.work.lock().expect("workspace lock poisoned").layers;
        layers.resize_with(self.layers, Default::default);
        self.forward(None, layers);
        out.reset_to(self.base.prop().rows(), self.dim());
        self.mean_into(layers, None, out.as_mut_slice());
    }
}

impl Recommender for LightGcn {
    fn name(&self) -> &'static str {
        "LightGCN"
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
        // a cold item's final embedding is its derived init scaled by the
        // layer mean (it receives no messages); scaling before the dot
        // reduces in the same kernel order as the materialized path
        let s = self.mean_scale();
        self.base.logits_into(
            user,
            items,
            out,
            |f| self.build_cache(f),
            |i, cold| {
                self.base.store().rows().cold_row(i, cold);
                cold.iter_mut().for_each(|x| *x *= s);
            },
        );
    }

    fn train_batch(&mut self, batch: &[(u32, u32, f32)]) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        let mut work = std::mem::take(self.work.get_mut().expect("workspace lock poisoned"));
        self.base.begin_batch(batch, &mut work.at);
        let mut grads = work.grads.take().unwrap_or_else(|| self.base.new_grads());
        work.layers.resize_with(self.layers, Default::default);
        self.forward(Some(&work.at.nodes), &mut work.layers);
        work.f.clear();
        work.f.resize(work.at.nodes.len() * self.dim(), 0.0);
        self.mean_into(&work.layers, Some(&work.at.nodes), &mut work.f);
        let d = self.dim();
        work.logits.clear();
        work.logits.extend(work.at.user_at.iter().zip(&work.at.item_at).map(|(&u, &v)| {
            let (u, v) = (u as usize * d, v as usize * d);
            kernels::dot(&work.f[u..u + d], &work.f[v..v + d])
        }));
        let loss = bce_grads(&mut work.logits, batch);
        self.backward(&mut work, &mut grads);
        self.base.step(&grads);
        work.grads = Some(grads);
        *self.work.get_mut().expect("workspace lock poisoned") = work;
        loss
    }

    fn set_graph(&mut self, edges: &[(u32, u32, f32)]) {
        self.base.set_graph(edges);
    }

    fn uses_graph(&self) -> bool {
        true
    }

    fn write_full_state(&self, w: &mut Writer<'_>) -> bool {
        // LightGCN draws no randomness after init, so the envelope
        // carries no RNG stream
        self.base.store().write(w, "LightGCN", None);
        true
    }

    fn read_full_state(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        self.base.read(r, "LightGCN").map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::prepare_batch;
    use proptest::prelude::*;
    use ptf_tape::{Graph, Var};
    use rand::Rng;

    /// The oracle: the same model built on the autograd tape, which is
    /// how LightGCN trained and scored before its step was written by
    /// hand.
    impl LightGcn {
        fn tape_final(&self, g: &mut Graph<'_>) -> Var {
            let e0 = g.param(self.base.store().emb());
            let (mut acc, mut e) = (e0, e0);
            for _ in 0..self.layers {
                e = g.spmm(self.base.prop(), e);
                acc = g.add(acc, e);
            }
            g.scale(acc, self.mean_scale())
        }

        fn tape_train_batch(&mut self, batch: &[(u32, u32, f32)]) -> f32 {
            let mut at = BatchNodes::default();
            self.base.begin_batch(batch, &mut at);
            let labels: Vec<f32> = batch.iter().map(|&(_, _, l)| l).collect();
            let (grads, loss) = {
                let mut g = Graph::new(self.base.store().params());
                let f = self.tape_final(&mut g);
                let u = g.gather(f, &at.users);
                let v = g.gather(f, &at.items);
                let logits = g.row_dot(u, v);
                let loss = g.bce_with_logits(logits, &labels);
                (g.backward(loss), g.scalar(loss))
            };
            self.base.step(&grads);
            loss
        }

        /// Scores on the tape; a cold item is an isolated node, so its
        /// layer mean is its derived init over `L + 1`.
        fn tape_score(&self, user: u32, items: &[u32]) -> Vec<f32> {
            let mut g = Graph::new(self.base.store().params());
            let f = self.tape_final(&mut g);
            let f = g.value(f);
            let mut cold = vec![0.0; self.dim()];
            items
                .iter()
                .map(|&i| {
                    let fi = match self.base.store().rows().lookup(i) {
                        Some(node) => f.row(node),
                        None => {
                            self.base.store().rows().cold_row(i, &mut cold);
                            let s = self.mean_scale();
                            cold.iter_mut().for_each(|x| *x *= s);
                            &cold
                        }
                    };
                    crate::traits::stable_sigmoid(kernels::dot(f.row(user as usize), fi))
                })
                .collect()
        }
    }

    /// Embedding widths that hit and miss the fixed spmm widths.
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
            // 3 users × 9 items, a soft-weighted graph over some of them,
            // soft labels, dense or growing item rows
            let cfg = ModelHyper { dim: DIMS[dim], gcn_layers: layers, lr: 1e-3, ..ModelHyper::default() };
            let scope = if sparse {
                ScopeView::Rows { num_items: 9, ids: &[2, 5] }
            } else {
                ScopeView::Full(9)
            };
            let mut rng = ptf_tensor::test_rng(seed);
            let edges: Vec<(u32, u32, f32)> = (0..6)
                .map(|_| (rng.gen_range(0..3u32), rng.gen_range(0..7u32), rng.gen_range(0.3f32..1.0)))
                .collect();
            let batch: Vec<(u32, u32, f32)> =
                (0..n).map(|_| (rng.gen_range(0..3u32), rng.gen_range(0..9u32), rng.gen())).collect();

            let mut hand = LightGcn::new_scoped(3, &cfg, scope, seed);
            let mut tape = LightGcn::new_scoped(3, &cfg, scope, seed);
            prepare_batch(&mut hand, &edges);
            prepare_batch(&mut tape, &edges);
            hand.set_graph(&edges);
            tape.set_graph(&edges);
            let all: Vec<u32> = (0..9).collect();
            for step in 0..5 {
                // each step grows the rows its batch brings
                let part = &batch[..(step * 7 + 1).min(n)];
                prepare_batch(&mut hand, part);
                prepare_batch(&mut tape, part);
                let (lh, lt) = (hand.train_batch(part), tape.tape_train_batch(part));
                prop_assert!((lh - lt).abs() <= 1e-6, "step {step}: loss {lh} vs tape {lt}");
            }
            for ((_, name, h), (_, _, t)) in
                hand.base.store().params().iter().zip(tape.base.store().params().iter())
            {
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
        }
    }

    fn tiny() -> LightGcn {
        let cfg = ModelHyper { dim: 8, gcn_layers: 2, lr: 0.02, ..ModelHyper::default() };
        LightGcn::new_scoped(4, &cfg, ScopeView::Full(6), 3)
    }

    #[test]
    fn param_count_is_one_table() {
        let m = tiny();
        assert_eq!(m.num_params(), (4 + 6) * 8);
    }

    #[test]
    fn layer_mean_matches_hand_computation() {
        // 1 user, 1 item, 1 layer: Ã = [[0,1],[1,0]] after normalization.
        let cfg = ModelHyper { dim: 2, gcn_layers: 1, lr: 0.01, ..ModelHyper::default() };
        let mut m = LightGcn::new_scoped(1, &cfg, ScopeView::Full(1), 4);
        m.set_graph(&[(0, 0, 1.0)]);
        let store = m.base.store();
        let e = store.params().get(store.emb());
        m.base.with_final(
            |f| m.build_cache(f),
            |f| {
                // final_u = (e_u + e_i)/2, final_i = (e_i + e_u)/2
                for c in 0..2 {
                    let mean = (e.get(0, c) + e.get(1, c)) / 2.0;
                    assert!((f.get(0, c) - mean).abs() < 1e-6);
                    assert!((f.get(1, c) - mean).abs() < 1e-6);
                }
            },
        );
    }

    #[test]
    fn empty_graph_still_scores() {
        let m = tiny();
        let s = m.score(0, &[0, 1, 2]);
        assert!(s.iter().all(|&p| (0.0..=1.0).contains(&p)));
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
    fn cache_invalidated_by_training() {
        let mut m = tiny();
        let before = m.score(0, &[0])[0];
        for _ in 0..50 {
            m.train_batch(&[(0, 0, 1.0)]);
        }
        let after = m.score(0, &[0])[0];
        assert!(after > before, "training had no visible effect: {before} vs {after}");
    }

    #[test]
    fn cache_invalidated_by_graph_change() {
        let mut m = tiny();
        let before = m.score(0, &[0])[0];
        m.set_graph(&[(0, 0, 1.0), (1, 0, 1.0)]);
        let after = m.score(0, &[0])[0];
        assert_ne!(before, after, "graph change should alter propagation");
    }

    #[test]
    #[should_panic(expected = "item 4 was not prepared")]
    fn a_graph_edge_to_an_unprepared_item_panics_naming_it() {
        let cfg = ModelHyper { dim: 8, gcn_layers: 2, lr: 0.02, ..ModelHyper::default() };
        let mut m = LightGcn::new_scoped(2, &cfg, ScopeView::Rows { num_items: 6, ids: &[1] }, 3);
        m.set_graph(&[(0, 1, 1.0), (1, 4, 1.0)]);
    }

    #[test]
    fn propagation_couples_neighbors() {
        // two users sharing an item should end closer than strangers
        let cfg = ModelHyper { dim: 8, gcn_layers: 2, lr: 0.05, ..ModelHyper::default() };
        let mut m = LightGcn::new_scoped(3, &cfg, ScopeView::Full(3), 5);
        m.set_graph(&[(0, 0, 1.0), (1, 0, 1.0), (2, 2, 1.0)]);
        for _ in 0..150 {
            m.train_batch(&[(0, 0, 1.0), (1, 0, 1.0), (2, 2, 1.0), (0, 1, 0.0), (2, 0, 0.0)]);
        }
        // user 1 never trained on item 0's pair but propagation links them
        let s_linked = m.score(1, &[0])[0];
        let s_unlinked = m.score(2, &[0])[0];
        assert!(
            s_linked > s_unlinked,
            "graph propagation did not transfer preference: {s_linked} vs {s_unlinked}"
        );
    }
}
