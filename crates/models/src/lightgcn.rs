//! LightGCN — simplified graph convolution (He et al., SIGIR 2020).
//!
//! One embedding table over the joint user+item node space; each layer is
//! a pure normalized-adjacency propagation `E^{(l+1)} = Ã E^{(l)}`; the
//! final representation is the layer mean `E = mean(E^{(0)}, …, E^{(L)})`
//! and the score of `(u, i)` is `σ(⟨e_u, e_i⟩)`.

use crate::backbone::{joint_table, GraphBackbone};
use crate::scoped;
use crate::traits::{Recommender, ScopeView};
use ptf_tensor::prelude::*;
use ptf_tensor::{ItemScope, Params};

/// LightGCN hyperparameters (defaults follow §IV-D: dim 32, 3 layers).
#[derive(Clone, Debug)]
pub struct LightGcnConfig {
    pub dim: usize,
    pub layers: usize,
    pub lr: f32,
}

impl Default for LightGcnConfig {
    fn default() -> Self {
        Self { dim: 32, layers: 3, lr: 1e-3 }
    }
}

/// The LightGCN model: the shared graph backbone with a parameter-free
/// propagation rule.
pub struct LightGcn {
    base: GraphBackbone,
    layers: usize,
}

impl LightGcn {
    /// An item-scoped LightGCN: the item block of the joint node table
    /// materializes only `scope` (plus whatever later training or graph
    /// edges touch), every row initialized from its `(seed, id)`-derived
    /// stream; user rows draw from a scope-independent stream.
    pub fn new_scoped(
        num_users: usize,
        cfg: &LightGcnConfig,
        scope: &ItemScope,
        seed: u64,
    ) -> Self {
        assert!(cfg.layers > 0, "LightGCN needs at least one propagation layer");
        let mut rng = scoped::dense_rng(seed);
        let mut params = Params::new();
        let emb = params.push("emb", joint_table(num_users, cfg.dim, scope, seed, &mut rng));
        Self {
            base: GraphBackbone::new(num_users, params, emb, scope, seed, cfg.lr),
            layers: cfg.layers,
        }
    }

    /// Builds the layer-mean node embeddings in the autograd graph.
    fn build_final(&self, g: &mut Graph<'_>) -> Var {
        let e0 = g.param(self.base.store().emb());
        let mut acc = e0;
        let mut e = e0;
        for _ in 0..self.layers {
            e = g.spmm(self.base.prop(), e);
            acc = g.add(acc, e);
        }
        g.scale(acc, 1.0 / (self.layers + 1) as f32)
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
        // a cold item's final embedding is its derived init scaled by the
        // layer mean (it receives no messages); scaling before the dot
        // reduces in the same kernel order as the materialized path
        let mean_scale = 1.0 / (self.layers + 1) as f32;
        self.base.score(
            user,
            items,
            |g| self.build_final(g),
            |i, cold| {
                cold.clear();
                cold.resize(self.base.store().dim(), 0.0);
                self.base.store().cold_row(i, cold);
                cold.iter_mut().for_each(|b| *b *= mean_scale);
            },
        )
    }

    fn train_batch(&mut self, batch: &[(u32, u32, f32)]) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        let mut scratch = self.base.stage_batch(batch);
        let (grads, loss) = {
            let mut g = Graph::with_arena(self.base.store().params(), &mut scratch.arena);
            let f = self.build_final(&mut g);
            let u = g.gather(f, &scratch.users);
            let v = g.gather(f, &scratch.rows);
            let logits = g.row_dot(u, v);
            let loss = g.bce_with_logits(logits, &scratch.labels);
            (g.backward(loss), g.scalar(loss))
        };
        self.base.apply(scratch, grads);
        loss
    }

    fn set_graph(&mut self, edges: &[(u32, u32, f32)]) {
        self.base.set_graph(edges);
    }

    fn uses_graph(&self) -> bool {
        true
    }

    fn export_full_state(&self) -> Option<String> {
        // LightGCN draws no randomness after init, so the envelope
        // carries no RNG stream
        self.base.store().export("LightGCN", None)
    }

    fn import_full_state(&mut self, json: &str) -> Result<(), String> {
        self.base.import("LightGCN", json).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LightGcn {
        let cfg = LightGcnConfig { dim: 8, layers: 2, lr: 0.02 };
        LightGcn::new_scoped(4, &cfg, &ItemScope::Full(6), 3)
    }

    #[test]
    fn param_count_is_one_table() {
        let m = tiny();
        assert_eq!(m.num_params(), (4 + 6) * 8);
    }

    #[test]
    fn layer_mean_matches_hand_computation() {
        // 1 user, 1 item, 1 layer: Ã = [[0,1],[1,0]] after normalization.
        let cfg = LightGcnConfig { dim: 2, layers: 1, lr: 0.01 };
        let mut m = LightGcn::new_scoped(1, &cfg, &ItemScope::Full(1), 4);
        m.set_graph(&[(0, 0, 1.0)]);
        let store = m.base.store();
        let e = store.params().get(store.emb());
        m.base.with_final(
            |g| m.build_final(g),
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
    fn propagation_couples_neighbors() {
        // two users sharing an item should end closer than strangers
        let cfg = LightGcnConfig { dim: 8, layers: 2, lr: 0.05 };
        let mut m = LightGcn::new_scoped(3, &cfg, &ItemScope::Full(3), 5);
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
