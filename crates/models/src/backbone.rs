//! The graph backbone shared by NGCF and LightGCN.
//!
//! Both architectures keep one embedding table over the joint user+item
//! node space (`user u → node u`, materialized item row `r → node
//! num_users + r`), propagate it over the normalized interaction graph,
//! and score sigmoid dot products of cached final embeddings. Everything
//! but the propagation rule itself lives here: the [`ScopedParams`] store
//! of the joint table, the propagation operator and the global edge list
//! it is re-derived from when lazy materialization shifts node indices,
//! and the final-embedding cache. An architecture supplies its forward
//! pass (`build_final`), the final embedding of a cold item, and its loss.

use crate::graph::{empty_propagation, normalized_bipartite};
use crate::scoped::{self, ScopedParams, EMB_STD};
use crate::scratch::BatchScratch;
use crate::traits::stable_sigmoid;
use ptf_tensor::kernels;
use ptf_tensor::prelude::*;
use ptf_tensor::{Grads, ItemScope, ParamId};
use std::sync::RwLock;

/// The joint node table of a graph model built from `seed`: `num_users`
/// rows from the scope-independent `rng` stream, then the derived item
/// block of `scope`. Node order stays monotone in global item id, so
/// propagation sums in the same order as a full model's and shared rows
/// stay bit-identical.
pub(crate) fn joint_table(
    num_users: usize,
    dim: usize,
    scope: &ItemScope,
    seed: u64,
    rng: &mut impl rand::Rng,
) -> Matrix {
    let mut data = Matrix::randn(num_users, dim, EMB_STD, rng).into_vec();
    data.extend_from_slice(scoped::item_block(scope, dim, seed).as_slice());
    Matrix::from_vec(num_users + scope.initial_rows(), dim, data)
}

pub(crate) struct GraphBackbone {
    num_users: usize,
    store: ScopedParams,
    prop: PropagationMatrix,
    /// The last `set_graph` edge list in *global* ids — a scoped model
    /// re-derives its propagation operator from it whenever node indices
    /// shift. Unused (empty) when dense.
    graph_edges: Vec<(u32, u32, f32)>,
    /// Final propagated embeddings, invalidated on training/graph changes.
    /// An `RwLock` (not `RefCell`) so concurrent evaluation threads can
    /// score through one shared model.
    cache: RwLock<Option<Matrix>>,
}

impl GraphBackbone {
    /// `params` holds the [`joint_table`] of `(num_users, scope, seed)` as
    /// `emb`, plus whatever else the architecture trains.
    pub fn new(
        num_users: usize,
        params: Params,
        emb: ParamId,
        scope: &ItemScope,
        seed: u64,
        lr: f32,
    ) -> Self {
        assert!(num_users > 0 && scope.num_items() > 0, "empty model");
        Self {
            num_users,
            store: ScopedParams::new(params, emb, num_users, scope, seed, lr),
            prop: empty_propagation(num_users, scope.initial_rows()),
            graph_edges: Vec::new(),
            cache: RwLock::new(None),
        }
    }

    pub fn num_users(&self) -> usize {
        self.num_users
    }

    pub fn store(&self) -> &ScopedParams {
        &self.store
    }

    pub fn prop(&self) -> &PropagationMatrix {
        &self.prop
    }

    /// Node index of a *materialized* item in the joint table.
    fn node_of(&self, i: u32) -> Option<u32> {
        self.store.lookup(i).map(|r| r as u32)
    }

    /// Re-derives the propagation operator from the stored global edge
    /// list under the current (possibly grown) scope mapping.
    fn rebuild_scoped_prop(&mut self) {
        debug_assert!(!self.store.is_dense());
        let first_item = self.num_users as u32;
        let remapped: Vec<(u32, u32, f32)> = self
            .graph_edges
            .iter()
            .map(|&(u, i, w)| (u, self.node_of(i).expect("edge item materialized") - first_item, w))
            .collect();
        self.prop = normalized_bipartite(self.num_users, self.store.view().len(), &remapped);
    }

    /// Materializes `ids` (embedding + optimizer rows); rebuilds the
    /// propagation operator if node indices shifted.
    pub fn ensure_items(&mut self, ids: impl Iterator<Item = u32>) {
        if self.store.ensure(ids) {
            self.rebuild_scoped_prop();
            self.invalidate();
        }
    }

    /// Evicts every materialized item outside `keep_sorted`, which must
    /// cover every current graph-edge item (the protocol's keep set
    /// always does: edges come from positives and dispersed items) — an
    /// evicted edge item would leave the stored edge list pointing at a
    /// dropped node.
    pub fn evict_items(&mut self, keep_sorted: &[u32]) -> usize {
        debug_assert!(
            self.graph_edges.iter().all(|&(_, i, _)| keep_sorted.binary_search(&i).is_ok()),
            "keep set must cover all graph-edge items"
        );
        let evicted = self.store.evict(keep_sorted);
        if evicted > 0 {
            if !self.store.is_dense() {
                // node indices shifted: re-derive the operator (the dense
                // case keeps its node space, so only the cache is stale)
                self.rebuild_scoped_prop();
            }
            self.invalidate();
        }
        evicted
    }

    pub fn set_graph(&mut self, edges: &[(u32, u32, f32)]) {
        if self.store.is_dense() {
            self.prop = normalized_bipartite(self.num_users, self.store.num_items(), edges);
        } else {
            self.graph_edges.clear();
            self.graph_edges.extend_from_slice(edges);
            self.store.ensure(edges.iter().map(|&(_, i, _)| i));
            self.rebuild_scoped_prop();
        }
        self.invalidate();
    }

    fn ensure_cache(&self, build_final: impl FnOnce(&mut Graph<'_>) -> Var) {
        if self.cache.read().expect("cache lock poisoned").is_some() {
            return;
        }
        let mut g = Graph::new(self.store.params());
        let f = build_final(&mut g);
        let fresh = g.value(f).clone();
        // racing evaluators compute the same matrix; last write wins
        *self.cache.write().expect("cache lock poisoned") = Some(fresh);
    }

    fn invalidate(&mut self) {
        *self.cache.get_mut().expect("cache lock poisoned") = None;
    }

    /// Runs `f` on the final node embeddings, building them with the
    /// architecture's clean (inference) forward pass if the cache is stale.
    pub fn with_final<R>(
        &self,
        build_final: impl FnOnce(&mut Graph<'_>) -> Var,
        f: impl FnOnce(&Matrix) -> R,
    ) -> R {
        self.ensure_cache(build_final);
        let cache = self.cache.read().expect("cache lock poisoned");
        f(cache.as_ref().expect("cache ensured above"))
    }

    /// Sigmoid dot products of `user`'s final embedding with each item's.
    /// An unmaterialized item is necessarily isolated; `cold_final` writes
    /// the final embedding a full model computes for such an edgeless item.
    pub fn score(
        &self,
        user: u32,
        items: &[u32],
        build_final: impl FnOnce(&mut Graph<'_>) -> Var,
        mut cold_final: impl FnMut(u32, &mut Vec<f32>),
    ) -> Vec<f32> {
        debug_assert!((user as usize) < self.num_users, "user id out of range");
        self.with_final(build_final, |emb| {
            let u = emb.row(user as usize);
            let mut cold: Vec<f32> = Vec::new();
            items
                .iter()
                .map(|&i| {
                    debug_assert!((i as usize) < self.store.num_items(), "item id out of range");
                    let dot = match self.node_of(i) {
                        Some(node) => kernels::dot(u, emb.row(node as usize)),
                        None => {
                            cold_final(i, &mut cold);
                            kernels::dot(u, &cold)
                        }
                    };
                    stable_sigmoid(dot)
                })
                .collect()
        })
    }

    /// Materializes the batch's items and stages its user/node/label
    /// columns (see [`ScopedParams::stage`]); the cache goes stale because
    /// the caller is about to train.
    pub fn stage_batch(&mut self, batch: &[(u32, u32, f32)]) -> BatchScratch {
        self.ensure_items(batch.iter().map(|&(_, i, _)| i));
        self.invalidate();
        self.store.stage(batch)
    }

    /// See [`ScopedParams::apply`].
    pub fn apply(&mut self, scratch: BatchScratch, grads: Grads) {
        self.store.apply(scratch, grads);
    }

    /// Restores a full-state envelope (see [`ScopedParams::import`]). The
    /// graph is not part of the envelope; callers re-set it.
    pub fn import(&mut self, arch: &str, json: &str) -> Result<Option<rand::rngs::StdRng>, String> {
        let rng = self.store.import(arch, json)?;
        self.graph_edges.clear();
        self.prop = empty_propagation(self.num_users, self.store.view().len());
        self.invalidate();
        Ok(rng)
    }
}
