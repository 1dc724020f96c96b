//! The graph backbone shared by NGCF and LightGCN.
//!
//! Both architectures keep one embedding table over the joint user+item
//! node space (`user u → node u`, materialized item row `r → node
//! num_users + r`), propagate it over the normalized interaction graph,
//! and score dot products (logits) of cached final embeddings. Everything
//! but the propagation rule itself lives here: the [`ScopedParams`] store
//! of the joint table, the propagation operator and the global edge list
//! it is re-derived from when row growth or eviction shifts node indices,
//! the final-embedding cache and the scoring loop over it, where a batch's
//! rows sit in the node space ([`BatchNodes`]), and the pieces of the loss
//! both hand-derived steps share. An architecture supplies its forward and
//! backward pass, the final embedding of a cold item, and its cache build.

use crate::graph::{empty_propagation, normalized_bipartite};
use crate::mf::sigmoid_and_bce;
use crate::scoped::{self, ScopedParams, EMB_STD};
use ptf_tensor::kernels;
use ptf_tensor::packed::Reader;
use ptf_tensor::prelude::*;
use ptf_tensor::{ParamId, ScopeView};
use std::cell::RefCell;
use std::sync::RwLock;

/// The joint node table of a graph model built from `seed`: `num_users`
/// rows from the scope-independent `rng` stream, then the derived item
/// block of `scope`. Node order stays monotone in global item id, so
/// propagation sums in the same order as a full model's and shared rows
/// stay bit-identical.
pub(crate) fn joint_table(
    num_users: usize,
    dim: usize,
    scope: ScopeView<'_>,
    seed: u64,
    rng: &mut impl rand::Rng,
) -> Matrix {
    let mut data = Matrix::randn(num_users, dim, EMB_STD, rng).into_vec();
    data.reserve_exact(scope.len() * dim);
    data.extend_from_slice(scoped::item_block(scope, dim, seed).as_slice());
    Matrix::from_vec(num_users + scope.len(), dim, data)
}

/// Where a batch's rows sit in the node space. The loss reads the final
/// embeddings of `nodes` only — the sorted unique users and items of the
/// batch, `R` in the models' derivations — so their top layer is computed
/// over `R` alone.
#[derive(Default)]
pub(crate) struct BatchNodes {
    /// The node of each row's user and item.
    pub users: Vec<u32>,
    pub items: Vec<u32>,
    /// `R`, ascending.
    pub nodes: Vec<u32>,
    /// The position in `nodes` of each row's user and item.
    pub user_at: Vec<u32>,
    pub item_at: Vec<u32>,
    /// Node → position in `nodes` (`u32::MAX` off `R`).
    position: Vec<u32>,
}

std::thread_local! {
    /// The final embedding of a cold item while it is scored; see
    /// [`GraphBackbone::logits_into`].
    static COLD_FINAL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

pub(crate) struct GraphBackbone {
    num_users: usize,
    store: ScopedParams,
    prop: PropagationMatrix,
    /// The last `set_graph` edge list in *global* ids — the operator is
    /// re-derived from it whenever node indices shift, and when row
    /// growth turns the store dense.
    graph_edges: Vec<(u32, u32, f32)>,
    /// Final propagated embeddings, invalidated on training/graph changes.
    /// An `RwLock` (not `RefCell`) so concurrent evaluation threads can
    /// score through one shared model.
    cache: RwLock<Cache>,
}

/// The final-embedding cache. A stale cache keeps its buffer, so the
/// rebuild after every round of training writes into memory it already
/// holds.
#[derive(Default)]
struct Cache {
    fresh: bool,
    rows: Matrix,
}

impl GraphBackbone {
    /// `params` holds the [`joint_table`] of `(num_users, scope, seed)` as
    /// `emb`, plus whatever else the architecture trains.
    pub fn new(
        num_users: usize,
        params: Params,
        emb: ParamId,
        scope: ScopeView<'_>,
        seed: u64,
        lr: f32,
    ) -> Self {
        assert!(num_users > 0 && scope.num_items() > 0, "empty model");
        Self {
            num_users,
            store: ScopedParams::new(params, emb, num_users, scope, seed, lr),
            prop: empty_propagation(num_users, scope.len()),
            graph_edges: Vec::new(),
            cache: RwLock::default(),
        }
    }

    pub fn num_users(&self) -> usize {
        self.num_users
    }

    pub fn store(&self) -> &ScopedParams {
        &self.store
    }

    /// `Ã`, symmetric: it propagates forward and backward alike.
    pub fn prop(&self) -> &Csr {
        self.prop.csr()
    }

    /// The embedding parameter's rows, `nodes × dim`: `E₀`.
    pub fn emb(&self) -> &[f32] {
        self.store.params().get(self.store.emb()).as_slice()
    }

    /// Node index of a *materialized* item in the joint table.
    fn node_of(&self, i: u32) -> Option<u32> {
        self.store.rows().lookup(i).map(|r| r as u32)
    }

    /// The global id of node `node`, whatever the layout: a user is its
    /// own id, and the item of a materialized row follows every user.
    #[inline(always)]
    pub fn global_node(&self, node: u32) -> u64 {
        let items = self.store.rows().index();
        let users = self.num_users as u64;
        (node as u64)
            .checked_sub(users)
            .map_or(node as u64, |r| users + items.id_of(r as usize) as u64)
    }

    /// Re-derives the propagation operator from the stored global edge
    /// list under the current (possibly grown, possibly dense) scope
    /// mapping; on a dense store the mapping is the identity.
    fn rebuild_prop(&mut self) {
        let first_item = self.num_users as u32;
        let remapped: Vec<(u32, u32, f32)> = self
            .graph_edges
            .iter()
            .map(|&(u, i, w)| (u, self.store.rows().row_of(i) as u32 - first_item, w))
            .collect();
        self.prop =
            normalized_bipartite(self.num_users, self.store.rows().index().len(), &remapped);
    }

    /// Materializes a sorted, unique batch of items (embedding + optimizer
    /// rows) in one pass ([`ScopedParams::ensure_many`]); the operator is
    /// rebuilt once if node indices shifted — over the whole catalogue
    /// when the growth turned the store dense.
    pub fn prepare_items(&mut self, sorted_ids: &[u32]) {
        if self.store.ensure_many(sorted_ids) {
            self.rebuild_prop();
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
            if !self.store.rows().index().is_dense() {
                // node indices shifted: re-derive the operator (the dense
                // case keeps its node space, so only the cache is stale)
                self.rebuild_prop();
            }
            self.invalidate();
        }
        evicted
    }

    pub fn set_graph(&mut self, edges: &[(u32, u32, f32)]) {
        self.graph_edges.clear();
        self.graph_edges.extend_from_slice(edges);
        self.rebuild_prop();
        self.invalidate();
    }

    fn invalidate(&mut self) {
        self.cache.get_mut().expect("cache lock poisoned").fresh = false;
    }

    /// Runs `f` on the final node embeddings, building them with the
    /// architecture's clean (inference) forward pass if the cache is
    /// stale: `build` fills a `nodes × width` matrix.
    pub fn with_final<R>(
        &self,
        build: impl FnOnce(&mut Matrix),
        f: impl FnOnce(&Matrix) -> R,
    ) -> R {
        if !self.cache.read().expect("cache lock poisoned").fresh {
            let mut cache = self.cache.write().expect("cache lock poisoned");
            // racing evaluators wait here; the first one builds
            if !cache.fresh {
                build(&mut cache.rows);
                cache.fresh = true;
            }
        }
        f(&self.cache.read().expect("cache lock poisoned").rows)
    }

    /// Dot products of `user`'s final embedding with each item's — the
    /// logits — into `out` (cleared first). An unmaterialized item is
    /// necessarily isolated; `cold_final` writes the final embedding a
    /// full model computes for such an edgeless item into a thread-local
    /// buffer, so scoring allocates nothing once the cache is built and
    /// `out` has grown.
    pub fn logits_into(
        &self,
        user: u32,
        items: &[u32],
        out: &mut Vec<f32>,
        build: impl FnOnce(&mut Matrix),
        cold_final: impl Fn(u32, &mut [f32]),
    ) {
        debug_assert!((user as usize) < self.num_users, "user id out of range");
        out.clear();
        self.with_final(build, |emb| {
            let u = emb.row(user as usize);
            COLD_FINAL.with(|cell| {
                let mut cold = cell.borrow_mut();
                cold.resize(emb.cols(), 0.0);
                out.extend(items.iter().map(|&i| {
                    debug_assert!(
                        (i as usize) < self.store.rows().index().num_items(),
                        "item id out of range"
                    );
                    match self.node_of(i) {
                        Some(node) => kernels::dot(u, emb.row(node as usize)),
                        None => {
                            cold_final(i, &mut cold);
                            kernels::dot(u, &cold)
                        }
                    }
                }));
            });
        });
    }

    /// Records where the batch's rows sit in the node space; the cache
    /// goes stale because the caller is about to train.
    pub fn begin_batch(&mut self, batch: &[(u32, u32, f32)], at: &mut BatchNodes) {
        self.invalidate();
        at.users.clear();
        at.items.clear();
        for &(u, i, _) in batch {
            debug_assert!((u as usize) < self.num_users, "user id out of range");
            at.users.push(u);
            at.items.push(self.store.rows().row_of(i) as u32);
        }
        // mark R, then number it in node order
        at.position.clear();
        at.position.resize(self.prop.nodes(), u32::MAX);
        for &node in at.users.iter().chain(&at.items) {
            at.position[node as usize] = 0;
        }
        at.nodes.clear();
        for (node, position) in at.position.iter_mut().enumerate() {
            if *position == 0 {
                *position = at.nodes.len() as u32;
                at.nodes.push(node as u32);
            }
        }
        let position = |&node: &u32| at.position[node as usize];
        at.user_at.clear();
        at.user_at.extend(at.users.iter().map(position));
        at.item_at.clear();
        at.item_at.extend(at.items.iter().map(position));
    }

    /// The reused gradient store: every parameter of a graph model,
    /// the joint table included, takes a dense gradient (propagation
    /// spreads a batch's gradient over its neighbours).
    pub fn new_grads(&self) -> Grads {
        let p = self.store.params();
        let mut grads = Grads::new_for(p);
        for (id, _, m) in p.iter() {
            *grads.slot_mut(id) = Some(GradBuf::Dense(Matrix::zeros_like(m)));
        }
        grads
    }

    /// The dense gradient of the joint table, reshaped to the current
    /// node count and zeroed.
    pub fn emb_grad<'g>(&self, grads: &'g mut Grads) -> &'g mut [f32] {
        let (rows, cols) = self.store.params().get(self.store.emb()).shape();
        match grads.slot_mut(self.store.emb()) {
            Some(GradBuf::Dense(m)) => {
                m.reset_to(rows, cols);
                m.as_mut_slice()
            }
            _ => unreachable!("the joint table takes a dense gradient"),
        }
    }

    /// One Adam step on `grads`.
    #[inline(always)]
    pub fn step(&mut self, grads: &Grads) {
        self.store.step(grads);
    }

    /// Reads a full-state envelope (see [`ScopedParams::read`]). The
    /// graph is not part of the envelope; callers re-set it.
    pub fn read(
        &mut self,
        r: &mut Reader<'_>,
        arch: &str,
    ) -> Result<Option<rand::rngs::StdRng>, String> {
        let rng = self.store.read(r, arch)?;
        self.graph_edges.clear();
        self.prop = empty_propagation(self.num_users, self.store.rows().index().len());
        self.invalidate();
        Ok(rng)
    }
}

/// Turns each logit into `∂loss/∂logit` of the batch-mean BCE in place
/// and returns the mean loss.
#[inline(always)]
pub(crate) fn bce_grads(logits: &mut [f32], batch: &[(u32, u32, f32)]) -> f32 {
    let mut total = 0.0f64;
    for (x, &(_, _, t)) in logits.iter_mut().zip(batch) {
        debug_assert!((0.0..=1.0).contains(&t), "target {t} outside [0,1]");
        let (sigmoid, loss) = sigmoid_and_bce(*x, t);
        total += loss as f64;
        *x = (sigmoid - t) / batch.len() as f32;
    }
    (total / batch.len() as f64) as f32
}

/// Adds the batch loss's gradient with respect to one block of `d`-wide
/// rows `e` into `g` (same layout): row `k` of the batch, with its user
/// at row `users[k]` and its item at row `items[k]`, read `⟨e_u, e_v⟩`
/// with weight `dl[k]` and, for an L2 penalty `c2/2·(‖e_u‖² + ‖e_v‖²)`,
/// contributes `∂/∂e_u = dl·e_v + c2·e_u` and symmetrically.
#[inline(always)]
pub(crate) fn add_pair_grads(
    g: &mut [f32],
    e: &[f32],
    d: usize,
    users: &[u32],
    items: &[u32],
    dl: &[f32],
    c2: f32,
) {
    for ((&u, &v), &dl) in users.iter().zip(items).zip(dl) {
        let (u, v) = (u as usize * d, v as usize * d);
        // users come first in the node space, hence in R
        debug_assert!(u < v, "a user row below its item row");
        let (below, above) = g.split_at_mut(v);
        let rows = below[u..u + d].iter_mut().zip(&mut above[..d]);
        for ((gu, gv), (&eu, &ev)) in rows.zip(e[u..u + d].iter().zip(&e[v..v + d])) {
            *gu += dl * ev + c2 * eu;
            *gv += dl * eu + c2 * ev;
        }
    }
}
