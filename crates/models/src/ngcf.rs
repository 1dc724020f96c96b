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
//! element-wise affinity term. The final representation concatenates every
//! layer, `[E^{(0)} | … | E^{(L)}]`, and scores are sigmoid dot products.

use crate::backbone::{joint_table, GraphBackbone};
use crate::scoped;
use crate::traits::{Recommender, ScopeView};
use ptf_tensor::kernels;
use ptf_tensor::prelude::*;
use ptf_tensor::{init, ItemScope, ParamId, Params};
use rand::Rng;

/// NGCF hyperparameters (defaults follow §IV-D: dim 32, 3 GCN layers,
/// propagation weights sized like the embeddings).
#[derive(Clone, Debug)]
pub struct NgcfConfig {
    pub dim: usize,
    pub layers: usize,
    pub lr: f32,
    /// Negative slope of the LeakyReLU (reference implementation: 0.2).
    pub leaky_slope: f32,
    /// L2 penalty on batch embeddings and propagation weights — the
    /// reference NGCF's weight decay; without it the extra W₁/W₂
    /// parameters overfit sparse interaction data badly.
    pub reg: f32,
    /// Message dropout rate applied to each layer's output during
    /// training (reference NGCF: 0.1). Inference never drops.
    pub message_dropout: f32,
}

impl Default for NgcfConfig {
    fn default() -> Self {
        Self { dim: 32, layers: 3, lr: 1e-3, leaky_slope: 0.2, reg: 1e-3, message_dropout: 0.1 }
    }
}

/// The NGCF model: the shared graph backbone plus per-layer propagation
/// weights and a dropout stream.
pub struct Ngcf {
    base: GraphBackbone,
    leaky_slope: f32,
    reg: f32,
    message_dropout: f32,
    /// `W₁⁽ˡ⁾`/`W₂⁽ˡ⁾`, one pair per propagation layer.
    w1: Vec<ParamId>,
    w2: Vec<ParamId>,
    /// Model-owned RNG for training-time dropout masks.
    dropout_rng: rand::rngs::StdRng,
}

impl Ngcf {
    /// An item-scoped NGCF: the item block of the joint node table
    /// materializes only `scope` (plus whatever later training or graph
    /// edges touch), every row initialized from its `(seed, id)`-derived
    /// stream; user rows and propagation weights draw from a
    /// scope-independent stream. With `message_dropout = 0`, a `Rows`
    /// model is bit-identical to a `Full` model of the same seed on every
    /// shared row (dropout masks cover the whole node space, so their
    /// draw counts differ under scoping).
    pub fn new_scoped(num_users: usize, cfg: &NgcfConfig, scope: &ItemScope, seed: u64) -> Self {
        assert!(cfg.layers > 0, "NGCF needs at least one propagation layer");
        let mut rng = scoped::dense_rng(seed);
        let mut params = Params::new();
        let emb = params.push("emb", joint_table(num_users, cfg.dim, scope, seed, &mut rng));
        let mut w1 = Vec::with_capacity(cfg.layers);
        let mut w2 = Vec::with_capacity(cfg.layers);
        let dim = cfg.dim;
        for l in 0..cfg.layers {
            w1.push(params.push(format!("w1_{l}"), init::xavier_uniform(dim, dim, &mut rng)));
            w2.push(params.push(format!("w2_{l}"), init::xavier_uniform(dim, dim, &mut rng)));
        }
        use rand::SeedableRng as _;
        let dropout_rng = rand::rngs::StdRng::seed_from_u64(rng.gen());
        Self {
            base: GraphBackbone::new(num_users, params, emb, scope, seed, cfg.lr),
            leaky_slope: cfg.leaky_slope,
            reg: cfg.reg,
            message_dropout: cfg.message_dropout,
            w1,
            w2,
            dropout_rng,
        }
    }

    /// The final concatenated representation an *unmaterialized* (hence
    /// isolated) item would get: zero messages and zero affinity leave
    /// only the self path, `e ← LeakyReLU(e W₁⁽ˡ⁾)`, layer by layer —
    /// computed in the same accumulation order as the autograd matmul so
    /// the value matches a full model's edgeless item bit for bit.
    fn cold_item_final(&self, id: u32, out: &mut Vec<f32>) {
        let store = self.base.store();
        let mut e = vec![0.0f32; store.dim()];
        store.cold_row(id, &mut e);
        out.clear();
        out.extend_from_slice(&e);
        let mut next = vec![0.0f32; store.dim()];
        for &w1 in &self.w1 {
            let w1 = store.params().get(w1);
            next.iter_mut().for_each(|x| *x = 0.0);
            for (k, &a) in e.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                kernels::axpy(a, w1.row(k), &mut next);
            }
            for (ek, &nk) in e.iter_mut().zip(&next) {
                *ek = if nk > 0.0 { nk } else { self.leaky_slope * nk };
            }
            out.extend_from_slice(&e);
        }
    }

    /// Builds the concatenated multi-layer node embeddings. `dropout_rng`
    /// enables training-time message dropout; `None` builds the clean
    /// inference graph.
    fn build_final(
        &self,
        g: &mut Graph<'_>,
        mut dropout_rng: Option<&mut rand::rngs::StdRng>,
    ) -> Var {
        let e0 = g.param(self.base.store().emb());
        let mut e = e0;
        let mut out = e0;
        for (&w1, &w2) in self.w1.iter().zip(&self.w2) {
            let msg = g.spmm(self.base.prop(), e);
            let with_self = g.add(msg, e);
            let w1 = g.param(w1);
            let term1 = g.matmul(with_self, w1);
            let affinity = g.mul(msg, e);
            let w2 = g.param(w2);
            let term2 = g.matmul(affinity, w2);
            let summed = g.add(term1, term2);
            e = g.leaky_relu(summed, self.leaky_slope);
            if let Some(rng) = dropout_rng.as_deref_mut() {
                e = g.dropout(e, self.message_dropout, rng);
            }
            out = g.concat_cols(out, e);
        }
        out
    }
}

impl Recommender for Ngcf {
    fn name(&self) -> &'static str {
        "NGCF"
    }

    fn num_users(&self) -> usize {
        self.base.num_users()
    }

    fn num_items(&self) -> usize {
        self.base.store().num_items()
    }

    fn num_params(&self) -> usize {
        self.base.store().params().num_scalars()
    }

    fn item_scope(&self) -> ScopeView<'_> {
        self.base.store().view()
    }

    fn prepare_items(&mut self, sorted_ids: &[u32]) {
        self.base.ensure_items(sorted_ids.iter().copied());
    }

    fn evict_items(&mut self, keep_sorted: &[u32]) -> usize {
        self.base.evict_items(keep_sorted)
    }

    fn score(&self, user: u32, items: &[u32]) -> Vec<f32> {
        self.base.score(
            user,
            items,
            |g| self.build_final(g, None),
            |i, cold| self.cold_item_final(i, cold),
        )
    }

    fn train_batch(&mut self, batch: &[(u32, u32, f32)]) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        let mut scratch = self.base.stage_batch(batch);
        // lint: allow(alloc-discipline) — StdRng clone is a 32-byte inline state copy, no heap
        let mut dropout_rng = self.dropout_rng.clone();
        let (grads, loss) = {
            let mut g = Graph::with_arena(self.base.store().params(), &mut scratch.arena);
            let f = self.build_final(&mut g, Some(&mut dropout_rng));
            let u = g.gather(f, &scratch.users);
            let v = g.gather(f, &scratch.rows);
            let logits = g.row_dot(u, v);
            let data_loss = g.bce_with_logits(logits, &scratch.labels);
            // L2 over the batch's final embeddings and the propagation
            // weights (reference NGCF's decay term)
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
        self.base.apply(scratch, grads);
        self.dropout_rng = dropout_rng;
        loss
    }

    fn set_graph(&mut self, edges: &[(u32, u32, f32)]) {
        self.base.set_graph(edges);
    }

    fn uses_graph(&self) -> bool {
        true
    }

    fn export_full_state(&self) -> Option<String> {
        self.base.store().export("NGCF", Some(&self.dropout_rng))
    }

    fn import_full_state(&mut self, json: &str) -> Result<(), String> {
        // the dropout stream is part of the training state: without it a
        // resumed model would draw different masks than the original
        self.dropout_rng = self
            .base
            .import("NGCF", json)?
            .ok_or_else(|| "NGCF checkpoint is missing the dropout RNG state".to_string())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Ngcf {
        let cfg = NgcfConfig {
            dim: 8,
            layers: 2,
            lr: 0.02,
            leaky_slope: 0.2,
            reg: 1e-3,
            message_dropout: 0.1,
        };
        Ngcf::new_scoped(4, &cfg, &ItemScope::Full(6), 7)
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
        assert_eq!(m.base.with_final(|g| m.build_final(g, None), Matrix::cols), 24);
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
        let cfg = NgcfConfig::default();
        let a = Ngcf::new_scoped(3, &cfg, &ItemScope::Full(4), 11);
        let b = Ngcf::new_scoped(3, &cfg, &ItemScope::Full(4), 11);
        assert_eq!(a.score(0, &[0, 1]), b.score(0, &[0, 1]));
    }
}
