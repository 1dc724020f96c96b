//! The seed-derived init scheme every model builds from, and the
//! item-row store shared by the Adam-trained models (NeuMF, NGCF, LightGCN).
//!
//! Everything outside a model's forward pass is the same for all three:
//! one embedding parameter whose item block materializes lazily from a
//! `(seed, id)`-derived init, Adam moments that must grow, shrink and
//! reset with it, and the full-state envelope that round-trips the lot.
//! [`ScopedParams`] owns that state, so "id, parameter row and both
//! moment rows move together" is a property of the type rather than a
//! calling convention.

use crate::traits::ScopeView;
use ptf_tensor::{
    derive_seed, init, Adam, GradBuf, Grads, ItemScope, Matrix, ParamId, Params, ScopeIndex,
};

/// Stream discriminators inside one model's seed namespace.
const DENSE_INIT_STREAM: u64 = 1;
const ITEM_INIT_STREAM: u64 = 2;

/// Standard deviation of every embedding row's normal init.
pub(crate) const EMB_STD: f32 = 0.1;

/// The RNG for a model's non-item parameters (user embeddings,
/// MLP/propagation weights). A separate stream from the item rows, so the
/// dense draws cannot depend on the item scope — the keystone of
/// `Full`-vs-`Rows` bit-parity.
pub(crate) fn dense_rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(derive_seed(seed, 0, DENSE_INIT_STREAM))
}

/// The per-row item-init seed of a model built from `seed`.
pub(crate) fn item_seed(seed: u64) -> u64 {
    derive_seed(seed, 0, ITEM_INIT_STREAM)
}

/// The eagerly materialized item block of an embedding parameter: one
/// row per id of `scope`, each from its `(seed, id)`-derived stream.
pub(crate) fn item_block(scope: &ItemScope, dim: usize, seed: u64) -> Matrix {
    let seed = item_seed(seed);
    match scope {
        ItemScope::Full(n) => init::derived_normal_rows(0..*n as u32, dim, EMB_STD, seed),
        ItemScope::Rows { ids, .. } => {
            init::derived_normal_rows(ids.iter().copied(), dim, EMB_STD, seed)
        }
    }
}

/// The dense gradient buffer of `id` in a model's reused [`Grads`].
pub(crate) fn dense(grads: &mut Grads, id: ParamId) -> &mut [f32] {
    match grads.slot_mut(id) {
        Some(GradBuf::Dense(m)) => m.as_mut_slice(),
        _ => unreachable!("weights, biases and the head take dense gradients"),
    }
}

/// An Adam-trained model's state: its [`Params`], their [`Adam`]
/// moments, and the bookkeeping of the one item-scoped embedding
/// parameter — which global item id backs which row (the item block
/// starts `row_offset` rows into the parameter; NGCF/LightGCN put user
/// rows first), and the seed every unmaterialized row derives from.
pub(crate) struct ScopedParams {
    params: Params,
    adam: Adam,
    emb: ParamId,
    row_offset: usize,
    scope: ScopeIndex,
    item_seed: u64,
}

/// Full-state envelope: everything a model needs to *resume training
/// bit-identically* — parameters, scope mapping, init seed, optimizer
/// step counter + both moment buffers, and (for models that own one) the
/// raw state of the training-time RNG. This is the cohort runtime's
/// client-recycling format and what `ptf train --save` writes. All u64s
/// travel as hex strings — the vendored JSON layer routes bare integers
/// through `f64`, which silently rounds values ≥ 2⁵³ — and every matrix
/// (parameters and both moment buffers) carries its values as one packed
/// string of raw `f32` bits ([`ptf_tensor::PackedF32s`]), so non-finite
/// values and `-0.0` round-trip and the cost of an export does not grow
/// with a float formatter call per parameter.
#[derive(serde::Serialize, serde::Deserialize)]
struct FullWire {
    arch: String,
    /// `None` = dense identity mapping over the whole catalogue.
    item_ids: Option<Vec<u32>>,
    item_seed: String,
    params: Params,
    adam_t: String,
    adam_m: Vec<Matrix>,
    adam_v: Vec<Matrix>,
    /// xoshiro256++ state of the model-owned training RNG (NGCF's
    /// dropout stream), 4 hex words; `None` for RNG-free models.
    rng: Option<Vec<String>>,
}

impl ScopedParams {
    /// Takes ownership of a fully registered parameter store whose `emb`
    /// parameter ends in the [`item_block`] of `(scope, seed)`, preceded
    /// by `row_offset` scope-independent rows.
    pub fn new(
        params: Params,
        emb: ParamId,
        row_offset: usize,
        scope: &ItemScope,
        seed: u64,
        lr: f32,
    ) -> Self {
        let scope = ScopeIndex::from_scope(scope);
        assert_eq!(params.get(emb).rows(), row_offset + scope.len(), "item block/scope mismatch");
        let adam = Adam::with_defaults(&params, lr);
        Self { params, adam, emb, row_offset, scope, item_seed: item_seed(seed) }
    }

    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The item-scoped embedding parameter.
    pub fn emb(&self) -> ParamId {
        self.emb
    }

    pub fn dim(&self) -> usize {
        self.params.get(self.emb).cols()
    }

    /// Total catalogue size (global id space).
    pub fn num_items(&self) -> usize {
        self.scope.num_items()
    }

    pub fn is_dense(&self) -> bool {
        self.scope.is_dense()
    }

    pub fn view(&self) -> ScopeView<'_> {
        match self.scope.ids() {
            None => ScopeView::Full(self.scope.num_items()),
            Some(ids) => ScopeView::Rows(ids),
        }
    }

    /// Row of a *materialized* item in the embedding parameter.
    pub fn lookup(&self, id: u32) -> Option<usize> {
        self.scope.lookup(id).map(|r| self.row_offset + r)
    }

    /// Writes the derived init of item `id` — what its row holds while
    /// unmaterialized — into `out` (`dim` entries).
    pub fn cold_row(&self, id: u32, out: &mut [f32]) {
        init::derived_normal_row(self.item_seed, id, EMB_STD, out);
    }

    /// Materializes every id in `ids` that the scope does not hold yet:
    /// inserts the derived-init row into the item block and a zero row
    /// into the optimizer moments at the same position. Returns true if
    /// anything was inserted (graph models must rebuild their propagation
    /// operator, since node indices shifted).
    pub fn ensure(&mut self, ids: impl Iterator<Item = u32>) -> bool {
        let mut inserted_any = false;
        for id in ids {
            let (pos, inserted) = self.scope.insert(id);
            if !inserted {
                continue;
            }
            inserted_any = true;
            let at = self.row_offset + pos;
            let emb = self.params.get_mut(self.emb);
            emb.insert_zero_row(at);
            init::derived_normal_row(self.item_seed, id, EMB_STD, emb.row_mut(at));
            self.adam.insert_zero_row(self.emb, at);
        }
        inserted_any
    }

    /// [`ScopedParams::ensure`] for a sorted, unique batch of ids, in one
    /// backward merge pass over the item block and both moment buffers
    /// ([`ScopeIndex::merge_in`]) instead of three full-tail shifts per
    /// fresh id. The result is the same ids, rows and moments.
    pub fn ensure_many(&mut self, sorted_ids: &[u32]) -> bool {
        let fresh = self.scope.count_absent(sorted_ids);
        if fresh == 0 {
            return false;
        }
        let (off, seed) = (self.row_offset, self.item_seed);
        let emb = self.params.get_mut(self.emb);
        let (m, v) = self.adam.moments_mut(self.emb);
        let d = emb.cols();
        for block in [&mut *emb, &mut *m, &mut *v] {
            block.push_zero_rows(fresh);
        }
        let (e, m, v) = (emb.as_mut_slice(), m.as_mut_slice(), v.as_mut_slice());
        self.scope.merge_in(sorted_ids, fresh, |from, to, id| {
            let to = (off + to) * d;
            match from {
                Some(from) => {
                    let from = (off + from) * d;
                    for block in [&mut *e, &mut *m, &mut *v] {
                        block.copy_within(from..from + d, to);
                    }
                }
                None => {
                    init::derived_normal_row(seed, id, EMB_STD, &mut e[to..to + d]);
                    m[to..to + d].fill(0.0);
                    v[to..to + d].fill(0.0);
                }
            }
        });
        true
    }

    /// Evicts every materialized id the sorted keep set does not cover —
    /// the exact inverse of [`ScopedParams::ensure`].
    ///
    /// Row-scoped stores remove id, parameter row, and both moment rows
    /// together (walking ids in descending order so earlier positions
    /// stay valid). Dense stores cannot shrink, so they reset the evicted
    /// rows in place — parameter row back to its derived init, moment
    /// rows to zero — which is the same post-state a row-scoped store
    /// re-materializes into. Returns the number of rows evicted/reset.
    pub fn evict(&mut self, keep_sorted: &[u32]) -> usize {
        debug_assert!(
            keep_sorted.windows(2).all(|w| w[0] < w[1]),
            "keep ids must be sorted unique"
        );
        let victims: Vec<u32> =
            self.view().iter().filter(|id| keep_sorted.binary_search(id).is_err()).collect();
        for &id in victims.iter().rev() {
            match self.scope.remove(id) {
                Some(pos) => {
                    self.params.get_mut(self.emb).remove_row(self.row_offset + pos);
                    self.adam.remove_row(self.emb, self.row_offset + pos);
                }
                // dense identity scope: nothing to drop, reset in place
                None => {
                    let at = self.row_offset + id as usize;
                    let row = self.params.get_mut(self.emb).row_mut(at);
                    init::derived_normal_row(self.item_seed, id, EMB_STD, row);
                    self.adam.zero_moment_row(self.emb, at);
                }
            }
        }
        victims.len()
    }

    /// One Adam step on `grads`.
    #[inline(always)]
    pub fn step(&mut self, grads: &Grads) {
        self.adam.step(&mut self.params, grads);
    }

    /// Serializes the complete training state as a [`FullWire`] envelope
    /// (dense and scoped stores alike — the scope travels inside).
    pub fn export(&self, arch: &str, rng: Option<&rand::rngs::StdRng>) -> Option<String> {
        let (t, m, v) = self.adam.export_state();
        serde_json::to_string(&FullWire {
            arch: arch.to_string(),
            item_ids: self.scope.ids().map(<[u32]>::to_vec),
            item_seed: format!("{:016x}", self.item_seed),
            params: self.params.clone(),
            adam_t: format!("{t:x}"),
            adam_m: m,
            adam_v: v,
            rng: rng.map(|r| r.state().iter().map(|w| format!("{w:016x}")).collect()),
        })
        .ok()
    }

    /// Restores a [`ScopedParams::export`] envelope, returning the
    /// envelope's training RNG if it carried one. The scope may *reshape*
    /// in either direction: a sparse envelope restores its id set
    /// (however grown), a dense envelope densifies the live store —
    /// either way the whole parameter store and both optimizer moment
    /// buffers are replaced, so the restored model continues training
    /// bit-identically to the exported one.
    ///
    /// On error the store may be left partially restored; callers must
    /// discard it (the cohort runtime rebuilds from scratch or aborts).
    pub fn import(&mut self, arch: &str, json: &str) -> Result<Option<rand::rngs::StdRng>, String> {
        let wire: FullWire = serde_json::from_str(json)
            .map_err(|e| format!("bad full-state checkpoint (expected {arch} envelope): {e}"))?;
        if wire.arch != arch {
            return Err(format!("architecture mismatch: expected {arch}, got {}", wire.arch));
        }
        if wire.params.len() != self.params.len() {
            return Err(format!(
                "parameter count mismatch: {} vs {}",
                wire.params.len(),
                self.params.len()
            ));
        }
        let num_items = self.scope.num_items();
        let item_rows = wire.item_ids.as_ref().map_or(num_items, Vec::len);
        for ((id, name_new, mat_new), (_, name_live, mat_live)) in
            wire.params.iter().zip(self.params.iter())
        {
            if name_new != name_live {
                return Err(format!("parameter name mismatch: {name_new:?} vs {name_live:?}"));
            }
            if id == self.emb {
                if mat_new.cols() != mat_live.cols()
                    || mat_new.rows() != self.row_offset + item_rows
                {
                    return Err(format!(
                        "shape mismatch for {name_new:?}: {:?} does not fit {item_rows} item rows",
                        mat_new.shape(),
                    ));
                }
            } else if mat_new.shape() != mat_live.shape() {
                return Err(format!(
                    "shape mismatch for {name_new:?}: {:?} vs {:?}",
                    mat_new.shape(),
                    mat_live.shape()
                ));
            }
        }
        if let Some(ids) = &wire.item_ids {
            if !ids.windows(2).all(|w| w[0] < w[1]) {
                return Err("checkpoint item ids must be sorted and unique".to_string());
            }
            if ids.last().is_some_and(|&l| l as usize >= num_items) {
                return Err("checkpoint item id out of range".to_string());
            }
        }
        let item_seed = u64::from_str_radix(&wire.item_seed, 16)
            .map_err(|e| format!("bad checkpoint item seed: {e}"))?;
        let t = u64::from_str_radix(&wire.adam_t, 16)
            .map_err(|e| format!("bad checkpoint step counter: {e}"))?;
        let rng = match &wire.rng {
            None => None,
            Some(words) => {
                if words.len() != 4 {
                    return Err(format!("rng state must be 4 words, got {}", words.len()));
                }
                let mut s = [0u64; 4];
                for (slot, word) in s.iter_mut().zip(words) {
                    *slot = u64::from_str_radix(word, 16)
                        .map_err(|e| format!("bad checkpoint rng word: {e}"))?;
                }
                Some(rand::rngs::StdRng::from_state(s))
            }
        };
        self.scope = match wire.item_ids {
            None => ScopeIndex::dense(num_items),
            Some(ids) => ScopeIndex::from_scope(&ItemScope::Rows { num_items, ids }),
        };
        self.params = wire.params;
        self.item_seed = item_seed;
        self.adam.restore_state(&self.params, t, wire.adam_m, wire.adam_v)?;
        Ok(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A store whose item block follows `offset` user rows, beside a
    /// second parameter, as the graph models lay theirs out.
    fn store(offset: usize, dim: usize, scope: &ItemScope, seed: u64) -> ScopedParams {
        let mut data = vec![0.25f32; offset * dim];
        data.extend_from_slice(item_block(scope, dim, seed).as_slice());
        let mut params = Params::new();
        let emb = params.push("emb", Matrix::from_vec(offset + scope.initial_rows(), dim, data));
        params.push("w", Matrix::full(2, 3, 0.5));
        ScopedParams::new(params, emb, offset, scope, seed, 0.01)
    }

    /// One Adam step on a dense gradient, so every moment row is
    /// distinct and a row that moved out of register would show.
    fn warm(s: &mut ScopedParams) {
        let mut grads = Grads::new_for(s.params());
        for (id, _, p) in s.params().iter() {
            let g = Matrix::from_fn(p.rows(), p.cols(), |r, c| 0.01 * (r * 7 + c) as f32 + 0.003);
            *grads.slot_mut(id) = Some(GradBuf::Dense(g));
        }
        s.step(&grads);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Batches that hit, miss and interleave the held rows, on dense
        /// and row-scoped stores with and without leading user rows:
        /// the one-pass merge leaves ids, parameters, moments and the
        /// envelope bytes exactly as id-by-id insertion does.
        #[test]
        fn one_pass_materialization_equals_row_by_row(
            seed in any::<u64>(),
            shape in (0usize..3, 1usize..6, any::<bool>()),
            held in collection::btree_set(0u32..40, 0..12),
            batches in collection::vec(collection::btree_set(0u32..40, 0..15), 1..4),
        ) {
            let (offset, dim, dense) = shape;
            let scope = if dense {
                ItemScope::Full(40)
            } else {
                ItemScope::rows(40, held.into_iter().collect())
            };
            let mut merged = store(offset, dim, &scope, seed);
            let mut by_row = store(offset, dim, &scope, seed);
            for batch in batches {
                warm(&mut merged);
                warm(&mut by_row);
                let ids: Vec<u32> = batch.into_iter().collect();
                let grew = merged.ensure_many(&ids);
                prop_assert_eq!(grew, by_row.ensure(ids.iter().copied()));
                prop_assert_eq!(merged.view(), by_row.view());
                prop_assert_eq!(merged.export("T", None), by_row.export("T", None));
            }
        }
    }
}
