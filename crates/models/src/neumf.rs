//! NeuMF — the paper's "simple and straightforward" client model.
//!
//! As specified in the paper (Eq. 1 and §IV-D): user and item embeddings
//! are concatenated and pushed through an MLP (`64 → 32 → 16` on top of
//! 32-dim embeddings), then a trainable head `h` produces the logit:
//! `r̂_ij = σ(hᵀ MLP([u_i, v_j]))`.

use crate::scoped::{self, ScopedParams, EMB_STD};
use crate::traits::{Recommender, ScopeView};
use ptf_tensor::prelude::*;
use ptf_tensor::{init, ItemScope, ParamId, Params};

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
}

impl NeuMf {
    /// An item-scoped NeuMF: the item table materializes only `scope`
    /// (plus whatever later training touches), every row initialized from
    /// its `(seed, id)`-derived stream; all other parameters draw from a
    /// scope-independent derived stream, so `Full`- and `Rows`-scoped
    /// models with the same seed are bit-identical on shared rows.
    pub fn new_scoped(num_users: usize, cfg: &NeuMfConfig, scope: &ItemScope, seed: u64) -> Self {
        assert!(num_users > 0 && scope.num_items() > 0, "empty model");
        assert!(!cfg.layers.is_empty(), "NeuMF needs at least one MLP layer");
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
        }
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
        let ie = g.param(self.store.emb());
        let u = g.gather(ue, users);
        let v = g.gather(ie, item_rows);
        self.build_logits_from(g, u, v)
    }

    /// The gathered item-embedding rows for `items`, including the
    /// derived init of any not-yet-materialized (cold) row — the scoped
    /// `&self` scoring path.
    fn gather_item_rows(&self, items: &[u32]) -> Matrix {
        let table = self.store.params().get(self.store.emb());
        let mut out = Matrix::zeros(items.len(), self.store.dim());
        for (r, &i) in items.iter().enumerate() {
            match self.store.lookup(i) {
                Some(row) => out.row_mut(r).copy_from_slice(table.row(row)),
                None => self.store.cold_row(i, out.row_mut(r)),
            }
        }
        out
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
        self.store.ensure(sorted_ids.iter().copied());
    }

    fn evict_items(&mut self, keep_sorted: &[u32]) -> usize {
        self.store.evict(keep_sorted)
    }

    fn score(&self, user: u32, items: &[u32]) -> Vec<f32> {
        debug_assert!((user as usize) < self.num_users, "user id out of range");
        debug_assert!(
            items.iter().all(|&i| (i as usize) < self.store.num_items()),
            "item id out of range"
        );
        let users = vec![user; items.len()];
        let mut g = Graph::new(self.store.params());
        let logits = if self.store.is_dense() {
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
        // materialize any first-touched rows, then train against the
        // row-mapped indices (identity when dense)
        self.store.ensure(batch.iter().map(|&(_, i, _)| i));
        let mut scratch = self.store.stage(batch);
        debug_assert!(
            scratch.users.iter().all(|&u| (u as usize) < self.num_users),
            "user id out of range"
        );
        let (grads, loss) = {
            let mut g = Graph::with_arena(self.store.params(), &mut scratch.arena);
            let logits = self.build_logits(&mut g, &scratch.users, &scratch.rows);
            let loss = g.bce_with_logits(logits, &scratch.labels);
            (g.backward(loss), g.scalar(loss))
        };
        self.store.apply(scratch, grads);
        loss
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
