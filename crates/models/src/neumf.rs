//! NeuMF — the paper's "simple and straightforward" client model.
//!
//! As specified in the paper (Eq. 1 and §IV-D): user and item embeddings
//! are concatenated and pushed through an MLP (`64 → 32 → 16` on top of
//! 32-dim embeddings), then a trainable head `h` produces the logit:
//! `r̂_ij = σ(hᵀ MLP([u_i, v_j]))`.

use crate::scoped;
use crate::scratch::BatchScratch;
use crate::traits::{Recommender, ScopeView};
use ptf_tensor::prelude::*;
use ptf_tensor::{init, ItemScope, ParamId, ScopeIndex};
use rand::Rng;

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
    num_items: usize,
    params: Params,
    user_emb: ParamId,
    item_emb: ParamId,
    /// `(weight, bias)` per MLP layer, then the scoring head.
    layers: Vec<(ParamId, ParamId)>,
    head: (ParamId, ParamId),
    adam: Adam,
    /// Which global item id backs which `item_emb` row (dense identity
    /// for full models; sorted + lazily growing for scoped clients).
    scope: ScopeIndex,
    /// Per-row derived init seed for lazily materialized item rows.
    item_seed: u64,
    /// Reused batch-staging vectors + autograd arena (steady-state
    /// training is allocation-free after the first batch).
    scratch: BatchScratch,
}

impl NeuMf {
    pub fn new(num_users: usize, num_items: usize, cfg: &NeuMfConfig, rng: &mut impl Rng) -> Self {
        assert!(num_users > 0 && num_items > 0, "empty model");
        // legacy draw order: user table, then item table, then layers
        let user_emb = Matrix::randn(num_users, cfg.dim, 0.1, rng);
        let item_emb = Matrix::randn(num_items, cfg.dim, 0.1, rng);
        Self::assemble(num_items, cfg, user_emb, item_emb, ScopeIndex::dense(num_items), 0, rng)
    }

    /// An item-scoped NeuMF: the item table materializes only `scope`
    /// (plus whatever later training touches), every row initialized from
    /// its `(seed, id)`-derived stream; all other parameters draw from a
    /// scope-independent derived stream, so `Full`- and `Rows`-scoped
    /// models with the same seed are bit-identical on shared rows.
    pub fn new_scoped(num_users: usize, cfg: &NeuMfConfig, scope: &ItemScope, seed: u64) -> Self {
        assert!(num_users > 0 && scope.num_items() > 0, "empty model");
        let item_seed = scoped::item_seed(seed);
        let item_emb = scoped::scoped_item_rows(scope, cfg.dim, 0.1, item_seed);
        let mut rng = scoped::dense_rng(seed);
        let user_emb = Matrix::randn(num_users, cfg.dim, 0.1, &mut rng);
        Self::assemble(
            scope.num_items(),
            cfg,
            user_emb,
            item_emb,
            ScopeIndex::from_scope(scope),
            item_seed,
            &mut rng,
        )
    }

    fn assemble(
        num_items: usize,
        cfg: &NeuMfConfig,
        user_rows: Matrix,
        item_rows: Matrix,
        scope: ScopeIndex,
        item_seed: u64,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(!cfg.layers.is_empty(), "NeuMF needs at least one MLP layer");
        let num_users = user_rows.rows();
        let mut params = Params::new();
        let user_emb = params.push("user_emb", user_rows);
        let item_emb = params.push("item_emb", item_rows);
        let mut layers = Vec::with_capacity(cfg.layers.len());
        let mut fan_in = 2 * cfg.dim;
        for (l, &width) in cfg.layers.iter().enumerate() {
            let w = params.push(format!("w{l}"), init::xavier_uniform(fan_in, width, rng));
            let b = params.push(format!("b{l}"), Matrix::zeros(1, width));
            layers.push((w, b));
            fan_in = width;
        }
        let head_w = params.push("head_w", init::xavier_uniform(fan_in, 1, rng));
        let head_b = params.push("head_b", Matrix::zeros(1, 1));
        let adam = Adam::with_defaults(&params, cfg.lr);
        Self {
            num_users,
            num_items,
            params,
            user_emb,
            item_emb,
            layers,
            head: (head_w, head_b),
            adam,
            scope,
            item_seed,
            scratch: BatchScratch::default(),
        }
    }

    fn dim(&self) -> usize {
        self.params.get(self.user_emb).cols()
    }

    /// Runs the MLP + head on top of the gathered user/item embeddings.
    fn build_logits_from(&self, g: &mut Graph<'_>, u: Var, v: Var) -> Var {
        let mut h = g.concat_cols(u, v);
        for &(w, b) in &self.layers {
            let wv = g.param(w);
            let bv = g.param(b);
            let lin = g.matmul(h, wv);
            let lin = g.add_row(lin, bv);
            h = g.relu(lin);
        }
        let (hw, hb) = self.head;
        let hwv = g.param(hw);
        let hbv = g.param(hb);
        let out = g.matmul(h, hwv);
        g.add_row(out, hbv)
    }

    /// Builds the logit column for `(users[k], items[k])` pairs; item ids
    /// must already be mapped to `item_emb` rows.
    fn build_logits(&self, g: &mut Graph<'_>, users: &[u32], item_rows: &[u32]) -> Var {
        let ue = g.param(self.user_emb);
        let ie = g.param(self.item_emb);
        let u = g.gather(ue, users);
        let v = g.gather(ie, item_rows);
        self.build_logits_from(g, u, v)
    }

    /// The gathered item-embedding rows for `items`, including the
    /// derived init of any not-yet-materialized (cold) row — the scoped
    /// `&self` scoring path.
    fn gather_item_rows(&self, items: &[u32]) -> Matrix {
        let dim = self.dim();
        let table = self.params.get(self.item_emb);
        let mut out = Matrix::zeros(items.len(), dim);
        for (r, &i) in items.iter().enumerate() {
            match self.scope.lookup(i) {
                Some(row) => out.row_mut(r).copy_from_slice(table.row(row)),
                None => init::derived_normal_row(self.item_seed, i, 0.1, out.row_mut(r)),
            }
        }
        out
    }

    fn check_ids(&self, users: &[u32], items: &[u32]) {
        debug_assert!(users.iter().all(|&u| (u as usize) < self.num_users), "user id out of range");
        debug_assert!(items.iter().all(|&i| (i as usize) < self.num_items), "item id out of range");
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
        scoped::ensure_item_rows(
            &mut self.scope,
            &mut self.params,
            &mut self.adam,
            self.item_emb,
            0,
            self.item_seed,
            0.1,
            sorted_ids.iter().copied(),
        );
    }

    fn evict_items(&mut self, keep_sorted: &[u32]) -> usize {
        scoped::evict_item_rows(
            &mut self.scope,
            &mut self.params,
            &mut self.adam,
            self.item_emb,
            0,
            self.item_seed,
            0.1,
            keep_sorted,
        )
    }

    fn score(&self, user: u32, items: &[u32]) -> Vec<f32> {
        let users = vec![user; items.len()];
        self.check_ids(&users, items);
        let mut g = Graph::new(&self.params);
        let logits = if self.scope.is_dense() {
            self.build_logits(&mut g, &users, items)
        } else {
            // scoped `&self` path: gather the item rows by hand (cold rows
            // get their derived init) and feed them as a graph leaf
            let ue = g.param(self.user_emb);
            let u = g.gather(ue, &users);
            let v = g.leaf(self.gather_item_rows(items));
            self.build_logits_from(&mut g, u, v)
        };
        let probs = g.sigmoid(logits);
        g.value(probs).as_slice().to_vec()
    }

    fn train_batch(&mut self, batch: &[(u32, u32, f32)]) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.users.clear();
        scratch.users.extend(batch.iter().map(|&(u, _, _)| u));
        scratch.items.clear();
        scratch.items.extend(batch.iter().map(|&(_, i, _)| i));
        scratch.labels.clear();
        scratch.labels.extend(batch.iter().map(|&(_, _, l)| l));
        self.check_ids(&scratch.users, &scratch.items);
        // materialize any first-touched rows, then train against the
        // row-mapped indices (identity when dense)
        scoped::ensure_item_rows(
            &mut self.scope,
            &mut self.params,
            &mut self.adam,
            self.item_emb,
            0,
            self.item_seed,
            0.1,
            scratch.items.iter().copied(),
        );
        scratch.rows.clear();
        for &i in &scratch.items {
            scratch.rows.push(self.scope.lookup(i).expect("ensured above") as u32);
        }
        let (grads, loss) = {
            let mut g = Graph::with_arena(&self.params, &mut scratch.arena);
            let logits = self.build_logits(&mut g, &scratch.users, &scratch.rows);
            let loss = g.bce_with_logits(logits, &scratch.labels);
            (g.backward(loss), g.scalar(loss))
        };
        self.adam.step(&mut self.params, &grads);
        scratch.arena.recycle(grads);
        self.scratch = scratch;
        loss
    }

    fn export_full_state(&self) -> Option<String> {
        scoped::export_full_state(
            "NeuMF",
            &self.scope,
            &self.params,
            self.item_seed,
            &self.adam,
            None,
        )
    }

    fn import_full_state(&mut self, json: &str) -> Result<(), String> {
        scoped::import_full_state(
            "NeuMF",
            &mut self.scope,
            &mut self.params,
            &mut self.adam,
            self.item_emb,
            0,
            &mut self.item_seed,
            json,
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptf_tensor::test_rng;

    fn tiny() -> NeuMf {
        let cfg = NeuMfConfig { dim: 8, layers: vec![16, 8], lr: 0.01 };
        NeuMf::new(5, 12, &cfg, &mut test_rng(1))
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
        let a = NeuMf::new(3, 4, &cfg, &mut test_rng(9));
        let b = NeuMf::new(3, 4, &cfg, &mut test_rng(9));
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
