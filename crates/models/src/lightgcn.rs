//! LightGCN — simplified graph convolution (He et al., SIGIR 2020).
//!
//! One embedding table over the joint user+item node space; each layer is
//! a pure normalized-adjacency propagation `E^{(l+1)} = Ã E^{(l)}`; the
//! final representation is the layer mean `E = mean(E^{(0)}, …, E^{(L)})`
//! and the score of `(u, i)` is `σ(⟨e_u, e_i⟩)`.

use crate::graph::{empty_propagation, normalized_bipartite};
use crate::scoped;
use crate::scratch::BatchScratch;
use crate::traits::{Recommender, ScopeView};
use ptf_tensor::kernels;
use ptf_tensor::prelude::*;
use ptf_tensor::{init, ItemScope, ParamId, ScopeIndex};
use rand::Rng;
use std::sync::RwLock;

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

/// The LightGCN model.
pub struct LightGcn {
    num_users: usize,
    num_items: usize,
    layers: usize,
    params: Params,
    emb: ParamId,
    prop: PropagationMatrix,
    adam: Adam,
    /// Final propagated embeddings, invalidated on training/graph changes.
    /// An `RwLock` (not `RefCell`) so concurrent evaluation threads can
    /// score through one shared model.
    cache: RwLock<Option<Matrix>>,
    /// Which global item id backs which item block row of `emb` (rows
    /// `num_users..` of the joint table); dense identity for full models.
    scope: ScopeIndex,
    /// Per-row derived init seed for lazily materialized item rows.
    item_seed: u64,
    /// The last `set_graph` edge list in *global* ids — a scoped model
    /// re-derives its propagation operator from it whenever lazy
    /// materialization shifts node indices. Unused (empty) when dense.
    graph_edges: Vec<(u32, u32, f32)>,
    /// Reused batch-staging vectors + autograd arena (steady-state
    /// training is allocation-free after the first batch).
    scratch: BatchScratch,
}

impl LightGcn {
    pub fn new(
        num_users: usize,
        num_items: usize,
        cfg: &LightGcnConfig,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(num_users > 0 && num_items > 0, "empty model");
        assert!(cfg.layers > 0, "LightGCN needs at least one propagation layer");
        let mut params = Params::new();
        let emb = params.push("emb", Matrix::randn(num_users + num_items, cfg.dim, 0.1, rng));
        let adam = Adam::with_defaults(&params, cfg.lr);
        Self {
            num_users,
            num_items,
            layers: cfg.layers,
            params,
            emb,
            prop: empty_propagation(num_users, num_items),
            adam,
            cache: RwLock::new(None),
            scope: ScopeIndex::dense(num_items),
            item_seed: 0,
            graph_edges: Vec::new(),
            scratch: BatchScratch::default(),
        }
    }

    /// An item-scoped LightGCN: the item block of the joint node table
    /// materializes only `scope` (plus whatever later training or graph
    /// edges touch), every row initialized from its `(seed, id)`-derived
    /// stream; user rows draw from a scope-independent stream. Node order
    /// stays monotone in global item id, so propagation sums in the same
    /// order as a full model's and shared rows stay bit-identical.
    pub fn new_scoped(
        num_users: usize,
        cfg: &LightGcnConfig,
        scope: &ItemScope,
        seed: u64,
    ) -> Self {
        assert!(num_users > 0 && scope.num_items() > 0, "empty model");
        assert!(cfg.layers > 0, "LightGCN needs at least one propagation layer");
        let item_seed = scoped::item_seed(seed);
        let mut rng = scoped::dense_rng(seed);
        let user_rows = Matrix::randn(num_users, cfg.dim, 0.1, &mut rng);
        let item_rows = scoped::scoped_item_rows(scope, cfg.dim, 0.1, item_seed);
        let index = ScopeIndex::from_scope(scope);
        let mut joint = Matrix::zeros(num_users + index.len(), cfg.dim);
        for r in 0..num_users {
            joint.row_mut(r).copy_from_slice(user_rows.row(r));
        }
        for r in 0..index.len() {
            joint.row_mut(num_users + r).copy_from_slice(item_rows.row(r));
        }
        let mut params = Params::new();
        let emb = params.push("emb", joint);
        let adam = Adam::with_defaults(&params, cfg.lr);
        let prop = empty_propagation(num_users, index.len());
        Self {
            num_users,
            num_items: scope.num_items(),
            layers: cfg.layers,
            params,
            emb,
            prop,
            adam,
            cache: RwLock::new(None),
            scope: index,
            item_seed,
            graph_edges: Vec::new(),
            scratch: BatchScratch::default(),
        }
    }

    fn dim(&self) -> usize {
        self.params.get(self.emb).cols()
    }

    /// Node index of a *materialized* item in the joint table.
    fn node_of(&self, i: u32) -> Option<u32> {
        self.scope.lookup(i).map(|r| (self.num_users + r) as u32)
    }

    /// Re-derives the propagation operator from the stored global edge
    /// list under the current (possibly grown) scope mapping.
    fn rebuild_scoped_prop(&mut self) {
        debug_assert!(!self.scope.is_dense());
        let remapped: Vec<(u32, u32, f32)> = self
            .graph_edges
            .iter()
            .map(|&(u, i, w)| (u, self.scope.lookup(i).expect("edge item materialized") as u32, w))
            .collect();
        self.prop = normalized_bipartite(self.num_users, self.scope.len(), &remapped);
    }

    /// Materializes `ids` (embedding + optimizer rows); rebuilds the
    /// propagation operator if node indices shifted.
    fn ensure_items(&mut self, ids: impl Iterator<Item = u32>) {
        if self.scope.is_dense() {
            return;
        }
        let grew = scoped::ensure_item_rows(
            &mut self.scope,
            &mut self.params,
            &mut self.adam,
            self.emb,
            self.num_users,
            self.item_seed,
            0.1,
            ids,
        );
        if grew {
            self.rebuild_scoped_prop();
            self.invalidate();
        }
    }

    /// Builds the layer-mean node embeddings in the autograd graph.
    fn build_final(&self, g: &mut Graph<'_>) -> Var {
        let e0 = g.param(self.emb);
        let mut acc = e0;
        let mut e = e0;
        for _ in 0..self.layers {
            e = g.spmm(&self.prop, e);
            acc = g.add(acc, e);
        }
        g.scale(acc, 1.0 / (self.layers + 1) as f32)
    }

    fn ensure_cache(&self) {
        if self.cache.read().expect("cache lock poisoned").is_some() {
            return;
        }
        let mut g = Graph::new(&self.params);
        let f = self.build_final(&mut g);
        let fresh = g.value(f).clone();
        // racing evaluators compute the same matrix; last write wins
        *self.cache.write().expect("cache lock poisoned") = Some(fresh);
    }

    fn invalidate(&mut self) {
        *self.cache.get_mut().expect("cache lock poisoned") = None;
    }

    /// One optimizer step of the *pairwise* BPR objective the original
    /// LightGCN paper trains with: for each `(user, pos_item, neg_item)`
    /// triple, push `⟨e_u, e_pos⟩` above `⟨e_u, e_neg⟩`. Returns the mean
    /// BPR loss. (The federated protocols use the pointwise
    /// [`Recommender::train_batch`] because soft labels cross the wire;
    /// this method serves centralized/ablation use.)
    pub fn train_bpr_batch(&mut self, batch: &[(u32, u32, u32)]) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        self.ensure_items(batch.iter().flat_map(|&(_, i, j)| [i, j]));
        self.invalidate();
        let users: Vec<u32> = batch.iter().map(|&(u, _, _)| u).collect();
        let pos: Vec<u32> =
            batch.iter().map(|&(_, i, _)| self.node_of(i).expect("ensured above")).collect();
        let neg: Vec<u32> =
            batch.iter().map(|&(_, _, j)| self.node_of(j).expect("ensured above")).collect();
        let (grads, loss) = {
            let mut g = Graph::new(&self.params);
            let f = self.build_final(&mut g);
            let u = g.gather(f, &users);
            let p = g.gather(f, &pos);
            let n = g.gather(f, &neg);
            let pos_logits = g.row_dot(u, p);
            let neg_logits = g.row_dot(u, n);
            let loss = g.bpr_loss(pos_logits, neg_logits);
            (g.backward(loss), g.scalar(loss))
        };
        self.adam.step(&mut self.params, &grads);
        loss
    }
}

impl Recommender for LightGcn {
    fn name(&self) -> &'static str {
        "LightGCN"
    }

    fn num_users(&self) -> usize {
        self.num_users
    }

    fn num_items(&self) -> usize {
        self.num_items
    }

    fn num_params(&self) -> usize {
        self.params.num_scalars()
    }

    fn item_scope(&self) -> ScopeView<'_> {
        match self.scope.ids() {
            None => ScopeView::Full(self.num_items),
            Some(ids) => ScopeView::Rows(ids),
        }
    }

    fn prepare_items(&mut self, sorted_ids: &[u32]) {
        self.ensure_items(sorted_ids.iter().copied());
    }

    fn evict_items(&mut self, keep_sorted: &[u32]) -> usize {
        // the keep set must cover every current graph-edge item (the
        // protocol's keep set always does: edges come from positives and
        // dispersed items) — an evicted edge item would leave the stored
        // edge list pointing at a dropped node
        debug_assert!(
            self.scope.is_dense()
                || self.graph_edges.iter().all(|&(_, i, _)| keep_sorted.binary_search(&i).is_ok()),
            "keep set must cover all graph-edge items"
        );
        let evicted = scoped::evict_item_rows(
            &mut self.scope,
            &mut self.params,
            &mut self.adam,
            self.emb,
            self.num_users,
            self.item_seed,
            0.1,
            keep_sorted,
        );
        if evicted > 0 {
            if !self.scope.is_dense() {
                // node indices shifted: re-derive the operator (the dense
                // case keeps its node space, so only the cache is stale)
                self.rebuild_scoped_prop();
            }
            self.invalidate();
        }
        evicted
    }

    fn score(&self, user: u32, items: &[u32]) -> Vec<f32> {
        debug_assert!((user as usize) < self.num_users, "user id out of range");
        self.ensure_cache();
        let cache = self.cache.read().expect("cache lock poisoned");
        let emb = cache.as_ref().expect("cache ensured above");
        let u = emb.row(user as usize);
        // cold rows: an unmaterialized item is necessarily isolated, so
        // its final embedding is its derived init scaled by the layer
        // mean — exactly what a full model computes for an edgeless item
        let mut cold: Vec<f32> = Vec::new();
        let mean_scale = 1.0 / (self.layers + 1) as f32;
        items
            .iter()
            .map(|&i| {
                debug_assert!((i as usize) < self.num_items, "item id out of range");
                let dot: f32 = match self.node_of(i) {
                    Some(node) => kernels::dot(u, emb.row(node as usize)),
                    None => {
                        cold.clear();
                        cold.resize(self.dim(), 0.0);
                        init::derived_normal_row(self.item_seed, i, 0.1, &mut cold);
                        // scale first so the dot reduces in the same
                        // kernel order as the materialized path
                        cold.iter_mut().for_each(|b| *b *= mean_scale);
                        kernels::dot(u, &cold)
                    }
                };
                stable_sigmoid(dot)
            })
            .collect()
    }

    fn train_batch(&mut self, batch: &[(u32, u32, f32)]) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        self.ensure_items(batch.iter().map(|&(_, i, _)| i));
        self.invalidate();
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.users.clear();
        scratch.users.extend(batch.iter().map(|&(u, _, _)| u));
        scratch.items.clear();
        scratch
            .items
            .extend(batch.iter().map(|&(_, i, _)| self.node_of(i).expect("ensured above")));
        scratch.labels.clear();
        scratch.labels.extend(batch.iter().map(|&(_, _, l)| l));
        let (grads, loss) = {
            let mut g = Graph::with_arena(&self.params, &mut scratch.arena);
            let f = self.build_final(&mut g);
            let u = g.gather(f, &scratch.users);
            let v = g.gather(f, &scratch.items);
            let logits = g.row_dot(u, v);
            let loss = g.bce_with_logits(logits, &scratch.labels);
            (g.backward(loss), g.scalar(loss))
        };
        self.adam.step(&mut self.params, &grads);
        scratch.arena.recycle(grads);
        self.scratch = scratch;
        loss
    }

    fn set_graph(&mut self, edges: &[(u32, u32, f32)]) {
        if self.scope.is_dense() {
            self.prop = normalized_bipartite(self.num_users, self.num_items, edges);
        } else {
            self.graph_edges.clear();
            self.graph_edges.extend_from_slice(edges);
            self.ensure_items(edges.iter().map(|&(_, i, _)| i));
            self.rebuild_scoped_prop();
        }
        self.invalidate();
    }

    fn uses_graph(&self) -> bool {
        true
    }

    fn export_full_state(&self) -> Option<String> {
        // LightGCN draws no randomness after init, so the envelope
        // carries no RNG stream
        scoped::export_full_state(
            "LightGCN",
            &self.scope,
            &self.params,
            self.item_seed,
            &self.adam,
            None,
        )
    }

    fn import_full_state(&mut self, json: &str) -> Result<(), String> {
        scoped::import_full_state(
            "LightGCN",
            &mut self.scope,
            &mut self.params,
            &mut self.adam,
            self.emb,
            self.num_users,
            &mut self.item_seed,
            json,
        )?;
        // the graph is not part of the envelope; callers re-set it
        self.graph_edges.clear();
        self.prop = empty_propagation(self.num_users, self.scope.len());
        self.invalidate();
        Ok(())
    }
}

#[inline]
pub(crate) fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptf_tensor::test_rng;

    fn tiny() -> LightGcn {
        let cfg = LightGcnConfig { dim: 8, layers: 2, lr: 0.02 };
        LightGcn::new(4, 6, &cfg, &mut test_rng(3))
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
        let mut m = LightGcn::new(1, 1, &cfg, &mut test_rng(4));
        m.set_graph(&[(0, 0, 1.0)]);
        let e = m.params.get(m.emb).clone();
        m.ensure_cache();
        let cache = m.cache.read().unwrap();
        let f = cache.as_ref().unwrap();
        // final_u = (e_u + e_i)/2, final_i = (e_i + e_u)/2
        for c in 0..2 {
            let mean = (e.get(0, c) + e.get(1, c)) / 2.0;
            assert!((f.get(0, c) - mean).abs() < 1e-6);
            assert!((f.get(1, c) - mean).abs() < 1e-6);
        }
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
        let mut m = LightGcn::new(3, 3, &cfg, &mut test_rng(5));
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

#[cfg(test)]
mod bpr_tests {
    use super::*;
    use crate::traits::Recommender;
    use ptf_tensor::test_rng;

    #[test]
    fn bpr_training_ranks_positives_above_negatives() {
        let cfg = LightGcnConfig { dim: 8, layers: 2, lr: 0.05 };
        let mut m = LightGcn::new(3, 6, &cfg, &mut test_rng(11));
        m.set_graph(&[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        let batch: Vec<(u32, u32, u32)> = vec![(0, 0, 3), (0, 0, 4), (1, 1, 5), (2, 2, 3)];
        let first = m.train_bpr_batch(&batch);
        let mut last = first;
        for _ in 0..150 {
            last = m.train_bpr_batch(&batch);
        }
        assert!(last < first, "BPR loss did not improve: {first} → {last}");
        let s = m.score(0, &[0, 3]);
        assert!(s[0] > s[1], "BPR failed to rank positive first: {s:?}");
    }

    #[test]
    fn bpr_empty_batch_is_noop() {
        let cfg = LightGcnConfig { dim: 4, layers: 1, lr: 0.05 };
        let mut m = LightGcn::new(2, 3, &cfg, &mut test_rng(12));
        let before = m.score(0, &[0]);
        assert_eq!(m.train_bpr_batch(&[]), 0.0);
        assert_eq!(m.score(0, &[0]), before);
    }
}
