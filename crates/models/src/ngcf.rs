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

use crate::graph::{empty_propagation, normalized_bipartite};
use crate::lightgcn::stable_sigmoid;
use crate::scoped;
use crate::scratch::BatchScratch;
use crate::traits::{Recommender, ScopeView};
use ptf_tensor::kernels;
use ptf_tensor::prelude::*;
use ptf_tensor::{init, ItemScope, ParamId, ScopeIndex};
use rand::Rng;
use std::sync::RwLock;

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

/// The NGCF model.
pub struct Ngcf {
    num_users: usize,
    num_items: usize,
    layers: usize,
    leaky_slope: f32,
    reg: f32,
    message_dropout: f32,
    params: Params,
    emb: ParamId,
    w1: Vec<ParamId>,
    w2: Vec<ParamId>,
    prop: PropagationMatrix,
    adam: Adam,
    /// Model-owned RNG for training-time dropout masks.
    dropout_rng: rand::rngs::StdRng,
    /// Clean inference embeddings; `RwLock` so concurrent evaluation
    /// threads can score through one shared model.
    cache: RwLock<Option<Matrix>>,
    /// Which global item id backs which item block row of `emb` (rows
    /// `num_users..` of the joint table); dense identity for full models.
    scope: ScopeIndex,
    /// Per-row derived init seed for lazily materialized item rows.
    item_seed: u64,
    /// Last `set_graph` edge list in global ids (scoped models re-derive
    /// the propagation operator from it when node indices shift).
    graph_edges: Vec<(u32, u32, f32)>,
    /// Reused batch-staging vectors + autograd arena (steady-state
    /// training is allocation-free after the first batch).
    scratch: BatchScratch,
}

impl Ngcf {
    pub fn new(num_users: usize, num_items: usize, cfg: &NgcfConfig, rng: &mut impl Rng) -> Self {
        assert!(num_users > 0 && num_items > 0, "empty model");
        let joint = Matrix::randn(num_users + num_items, cfg.dim, 0.1, rng);
        Self::assemble(num_users, num_items, cfg, joint, ScopeIndex::dense(num_items), 0, rng)
    }

    /// An item-scoped NGCF: the item block of the joint node table
    /// materializes only `scope` (plus whatever later training or graph
    /// edges touch), every row initialized from its `(seed, id)`-derived
    /// stream; user rows and propagation weights draw from a
    /// scope-independent stream. With `message_dropout = 0`, a `Rows`
    /// model is bit-identical to a `Full` model of the same seed on every
    /// shared row (dropout masks cover the whole node space, so their
    /// draw counts differ under scoping).
    pub fn new_scoped(num_users: usize, cfg: &NgcfConfig, scope: &ItemScope, seed: u64) -> Self {
        assert!(num_users > 0 && scope.num_items() > 0, "empty model");
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
        Self::assemble(num_users, scope.num_items(), cfg, joint, index, item_seed, &mut rng)
    }

    fn assemble(
        num_users: usize,
        num_items: usize,
        cfg: &NgcfConfig,
        joint: Matrix,
        scope: ScopeIndex,
        item_seed: u64,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(cfg.layers > 0, "NGCF needs at least one propagation layer");
        let item_rows = scope.len();
        let mut params = Params::new();
        let emb = params.push("emb", joint);
        let mut w1 = Vec::with_capacity(cfg.layers);
        let mut w2 = Vec::with_capacity(cfg.layers);
        for l in 0..cfg.layers {
            w1.push(params.push(format!("w1_{l}"), init::xavier_uniform(cfg.dim, cfg.dim, rng)));
            w2.push(params.push(format!("w2_{l}"), init::xavier_uniform(cfg.dim, cfg.dim, rng)));
        }
        let adam = Adam::with_defaults(&params, cfg.lr);
        use rand::SeedableRng as _;
        let dropout_rng = rand::rngs::StdRng::seed_from_u64(rng.gen());
        Self {
            num_users,
            num_items,
            layers: cfg.layers,
            leaky_slope: cfg.leaky_slope,
            reg: cfg.reg,
            message_dropout: cfg.message_dropout,
            params,
            emb,
            w1,
            w2,
            prop: empty_propagation(num_users, item_rows),
            adam,
            dropout_rng,
            cache: RwLock::new(None),
            scope,
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

    /// Materializes `ids`; rebuilds the propagation operator if node
    /// indices shifted.
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

    /// The final concatenated representation an *unmaterialized* (hence
    /// isolated) item would get: zero messages and zero affinity leave
    /// only the self path, `e ← LeakyReLU(e W₁⁽ˡ⁾)`, layer by layer —
    /// computed in the same accumulation order as the autograd matmul so
    /// the value matches a full model's edgeless item bit for bit.
    fn cold_item_final(&self, id: u32, out: &mut Vec<f32>) {
        let dim = self.dim();
        let mut e = vec![0.0f32; dim];
        init::derived_normal_row(self.item_seed, id, 0.1, &mut e);
        out.clear();
        out.extend_from_slice(&e);
        let mut next = vec![0.0f32; dim];
        for l in 0..self.layers {
            let w1 = self.params.get(self.w1[l]);
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
        let e0 = g.param(self.emb);
        let mut e = e0;
        let mut out = e0;
        for l in 0..self.layers {
            let msg = g.spmm(&self.prop, e);
            let with_self = g.add(msg, e);
            let w1 = g.param(self.w1[l]);
            let term1 = g.matmul(with_self, w1);
            let affinity = g.mul(msg, e);
            let w2 = g.param(self.w2[l]);
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

    fn ensure_cache(&self) {
        if self.cache.read().expect("cache lock poisoned").is_some() {
            return;
        }
        let mut g = Graph::new(&self.params);
        let f = self.build_final(&mut g, None);
        let fresh = g.value(f).clone();
        // racing evaluators compute the same matrix; last write wins
        *self.cache.write().expect("cache lock poisoned") = Some(fresh);
    }

    fn invalidate(&mut self) {
        *self.cache.get_mut().expect("cache lock poisoned") = None;
    }
}

impl Recommender for Ngcf {
    fn name(&self) -> &'static str {
        "NGCF"
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
        // see LightGcn::evict_items: the keep set must cover the current
        // graph-edge items so the stored edge list stays resolvable
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
        let mut cold: Vec<f32> = Vec::new();
        items
            .iter()
            .map(|&i| {
                debug_assert!((i as usize) < self.num_items, "item id out of range");
                let dot: f32 = match self.node_of(i) {
                    Some(node) => kernels::dot(u, emb.row(node as usize)),
                    None => {
                        self.cold_item_final(i, &mut cold);
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
        // lint: allow(alloc-discipline) — StdRng clone is a 32-byte inline state copy, no heap
        let mut dropout_rng = self.dropout_rng.clone();
        let (grads, loss) = {
            let mut g = Graph::with_arena(&self.params, &mut scratch.arena);
            let f = self.build_final(&mut g, Some(&mut dropout_rng));
            let u = g.gather(f, &scratch.users);
            let v = g.gather(f, &scratch.items);
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
        self.adam.step(&mut self.params, &grads);
        scratch.arena.recycle(grads);
        self.scratch = scratch;
        self.dropout_rng = dropout_rng;
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
        scoped::export_full_state(
            "NGCF",
            &self.scope,
            &self.params,
            self.item_seed,
            &self.adam,
            Some(&self.dropout_rng),
        )
    }

    fn import_full_state(&mut self, json: &str) -> Result<(), String> {
        let rng = scoped::import_full_state(
            "NGCF",
            &mut self.scope,
            &mut self.params,
            &mut self.adam,
            self.emb,
            self.num_users,
            &mut self.item_seed,
            json,
        )?;
        // the dropout stream is part of the training state: without it a
        // resumed model would draw different masks than the original
        self.dropout_rng =
            rng.ok_or_else(|| "NGCF checkpoint is missing the dropout RNG state".to_string())?;
        // the graph is not part of the envelope; callers re-set it
        self.graph_edges.clear();
        self.prop = empty_propagation(self.num_users, self.scope.len());
        self.invalidate();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptf_tensor::test_rng;

    fn tiny() -> Ngcf {
        let cfg = NgcfConfig {
            dim: 8,
            layers: 2,
            lr: 0.02,
            leaky_slope: 0.2,
            reg: 1e-3,
            message_dropout: 0.1,
        };
        Ngcf::new(4, 6, &cfg, &mut test_rng(7))
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
        m.ensure_cache();
        let cache = m.cache.read().unwrap();
        // dim 8 × (1 original + 2 layers)
        assert_eq!(cache.as_ref().unwrap().cols(), 24);
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
        let a = Ngcf::new(3, 4, &cfg, &mut test_rng(11));
        let b = Ngcf::new(3, 4, &cfg, &mut test_rng(11));
        assert_eq!(a.score(0, &[0, 1]), b.score(0, &[0, 1]));
    }
}
