//! The seed-derived init scheme every model builds from, and the
//! item-row store shared by the Adam-trained models (NeuMF, NGCF, LightGCN).
//!
//! Everything outside a model's forward pass is the same for all three:
//! one embedding parameter whose item block grows before each round from
//! a `(seed, id)`-derived init, Adam moments that must grow, shrink and
//! reset with it, and the full-state envelope that round-trips the lot.
//! [`ScopedParams`] owns that state, so "id, parameter row and both
//! moment rows move together" is a property of the type rather than a
//! calling convention.
//!
//! A row-scoped store grows by powers of two and follows the one
//! layout rule of `ptf_tensor::rowtable`: the growth step whose capacity
//! would reach the dense size grows the store dense instead.

use ptf_tensor::{
    derive_seed, grows_dense, init, Adam, GradBuf, Grads, Matrix, ParamId, Params, ScopeIndex,
    ScopeView,
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
pub(crate) fn item_block(scope: ScopeView<'_>, dim: usize, seed: u64) -> Matrix {
    let seed = item_seed(seed);
    match scope {
        ScopeView::Full(n) => init::derived_normal_rows(0..n as u32, dim, EMB_STD, seed),
        ScopeView::Rows { ids, .. } => {
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
        scope: ScopeView<'_>,
        seed: u64,
        lr: f32,
    ) -> Self {
        let scope = ScopeIndex::new(scope);
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
        self.scope.view()
    }

    /// Row of a *materialized* item in the embedding parameter.
    pub fn lookup(&self, id: u32) -> Option<usize> {
        self.scope.lookup(id).map(|r| self.row_offset + r)
    }

    /// Row of an item in the embedding parameter that must be
    /// materialized ([`ScopeIndex::row_of`]).
    #[inline(always)]
    pub fn row_of(&self, id: u32) -> usize {
        self.row_offset + self.scope.row_of(id)
    }

    /// Writes the derived init of item `id` — what its row holds while
    /// unmaterialized — into `out` (`dim` entries).
    pub fn cold_row(&self, id: u32, out: &mut [f32]) {
        init::derived_normal_row(self.item_seed, id, EMB_STD, out);
    }

    /// Heap bytes of the item block, both moment buffers and the id list
    /// (the leading user rows included, which a dense store holds too).
    pub fn heap_bytes(&self) -> usize {
        let blocks = self.params.get(self.emb).capacity() + {
            let (m, v) = self.adam.moments(self.emb);
            m.capacity() + v.capacity()
        };
        blocks * std::mem::size_of::<f32>() + self.scope.heap_bytes()
    }

    /// Materializes every id of `sorted_ids` (ascending, unique) that the
    /// scope does not hold yet, in one backward merge pass over the item
    /// block and both moment buffers ([`ScopeIndex::merge_in`]): a fresh
    /// row gets its derived init and zero moments. Returns true if
    /// anything was inserted (graph models must rebuild their
    /// propagation operator, since node indices shifted).
    ///
    /// A row-scoped store makes room for the next power of two of the
    /// rows it will hold ([`capacity_rows`]). When that room would reach
    /// the dense store's size ([`grows_dense`]), the step grows the store
    /// dense instead: every absent row materializes in the same plan
    /// ([`ScopeIndex::densify`]) and the id list goes.
    pub fn ensure_many(&mut self, sorted_ids: &[u32]) -> bool {
        let fresh = self.scope.count_absent(sorted_ids);
        if fresh == 0 {
            return false;
        }
        let (off, num_items, held) = (self.row_offset, self.num_items(), self.scope.len());
        let room = capacity_rows(held + fresh);
        let row_bytes = 3 * self.dim() * std::mem::size_of::<f32>();
        let promotes = grows_dense(room, row_bytes, num_items);
        let (room, grown) = if promotes { (num_items, num_items - held) } else { (room, fresh) };
        let [e, m, v] = item_rows(&mut self.params, &mut self.adam, self.emb);
        for block in [&mut *e, &mut *m, &mut *v] {
            block.reserve_rows(off + room);
            block.push_zero_rows(grown);
        }
        let place = placer([e, m, v], off, self.item_seed);
        if promotes {
            self.scope.densify(place);
        } else {
            self.scope.reserve(room);
            self.scope.merge_in(sorted_ids, fresh, place);
        }
        debug_assert!(
            self.is_dense() || self.heap_bytes() < (off + num_items) * row_bytes,
            "a sparse store outgrew its dense size"
        );
        true
    }

    /// Evicts every materialized id the sorted keep set does not cover —
    /// the inverse of [`ScopedParams::ensure_many`], in one compaction
    /// pass ([`ScopeIndex::retain`]).
    ///
    /// Row-scoped stores move id, parameter row and both moment rows
    /// together and drop the tail. Dense stores cannot shrink, so they
    /// reset the evicted rows in place — parameter row back to its
    /// derived init, moment rows to zero — which is the same post-state a
    /// row-scoped store re-materializes into. Returns the number of rows
    /// evicted/reset.
    pub fn evict(&mut self, keep_sorted: &[u32]) -> usize {
        let [e, m, v] = item_rows(&mut self.params, &mut self.adam, self.emb);
        let evicted = {
            let place = placer([&mut *e, &mut *m, &mut *v], self.row_offset, self.item_seed);
            self.scope.retain(keep_sorted, place)
        };
        let rows = self.row_offset + self.scope.len();
        for block in [e, m, v] {
            block.truncate_rows(rows);
        }
        evicted
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
        self.scope = match &wire.item_ids {
            None => ScopeIndex::new(ScopeView::Full(num_items)),
            Some(ids) => ScopeIndex::new(ScopeView::Rows { num_items, ids }),
        };
        self.params = wire.params;
        self.item_seed = item_seed;
        self.adam.restore_state(&self.params, t, wire.adam_m, wire.adam_v)?;
        Ok(rng)
    }
}

/// The item rows a row-scoped store makes room for once it holds `rows`:
/// the next power of two, so a growing store reallocates a logarithmic
/// number of times. A function of the rows alone, so a store restored
/// from an envelope grows exactly as the one that was parked.
pub(crate) fn capacity_rows(rows: usize) -> usize {
    rows.next_power_of_two()
}

/// The item-scoped parameter and its two moment buffers: the three
/// blocks whose rows move together.
fn item_rows<'a>(params: &'a mut Params, adam: &'a mut Adam, emb: ParamId) -> [&'a mut Matrix; 3] {
    let (m, v) = adam.moments_mut(emb);
    [params.get_mut(emb), m, v]
}

/// A [`ScopeIndex`] plan's `place(from, to, id)` over the three blocks of
/// [`item_rows`], whose item rows start `off` rows in: `Some(from)` moves
/// a row in all three, `None` writes `id`'s derived init and zero moments.
fn placer<'a>(
    blocks: [&'a mut Matrix; 3],
    off: usize,
    seed: u64,
) -> impl FnMut(Option<usize>, usize, u32) + 'a {
    let d = blocks[0].cols();
    let [e, m, v] = blocks.map(Matrix::as_mut_slice);
    move |from, to, id| {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A store whose item block follows `offset` user rows, beside a
    /// second parameter, as the graph models lay theirs out.
    fn store(offset: usize, dim: usize, scope: ScopeView<'_>, seed: u64) -> ScopedParams {
        let mut data = vec![0.25f32; offset * dim];
        data.extend_from_slice(item_block(scope, dim, seed).as_slice());
        let mut params = Params::new();
        let emb = params.push("emb", Matrix::from_vec(offset + scope.len(), dim, data));
        params.push("w", Matrix::full(2, 3, 0.5));
        ScopedParams::new(params, emb, offset, scope, seed, 0.01)
    }

    fn scope_of(dense: bool, held: &[u32]) -> ScopeView<'_> {
        if dense {
            ScopeView::Full(40)
        } else {
            ScopeView::Rows { num_items: 40, ids: held }
        }
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

    /// Rebuilds `block` with `edit` applied to its row-major data.
    fn reshape(block: &mut Matrix, edit: impl FnOnce(&mut Vec<f32>)) {
        let cols = block.cols();
        let mut data = block.as_slice().to_vec();
        edit(&mut data);
        *block = Matrix::from_vec(data.len() / cols, cols, data);
    }

    /// The oracle for [`ScopedParams::ensure_many`]: one id at a time,
    /// shifting the tail of the item block and both moment buffers once
    /// per fresh id.
    fn ensure_one(s: &mut ScopedParams, id: u32) -> bool {
        let Some(held) = s.scope.ids() else { return false };
        let Err(pos) = held.binary_search(&id) else { return false };
        let mut ids = held.to_vec();
        ids.insert(pos, id);
        s.scope = ScopeIndex::new(ScopeView::Rows { num_items: s.num_items(), ids: &ids });
        let (at, d, seed) = ((s.row_offset + pos) * s.dim(), s.dim(), s.item_seed);
        let mut row = vec![0.0; d];
        init::derived_normal_row(seed, id, EMB_STD, &mut row);
        let [e, m, v] = item_rows(&mut s.params, &mut s.adam, s.emb);
        reshape(e, |data| drop(data.splice(at..at, row)));
        for block in [m, v] {
            reshape(block, |data| drop(data.splice(at..at, std::iter::repeat_n(0.0, d))));
        }
        true
    }

    /// The oracle for a whole [`ScopedParams::ensure_many`] batch: id by
    /// id, and when the batch's growth crosses [`grows_dense`], every
    /// other absent id of the catalogue too, before the id list goes.
    fn ensure_by_row(s: &mut ScopedParams, ids: &[u32]) -> bool {
        let Some(held) = s.scope.ids() else { return false };
        let rows = held.len() + ids.iter().filter(|id| held.binary_search(id).is_err()).count();
        let row_bytes = 3 * s.dim() * std::mem::size_of::<f32>();
        let promotes =
            rows > held.len() && grows_dense(capacity_rows(rows), row_bytes, s.num_items());
        let mut grew = false;
        for &id in ids {
            grew |= ensure_one(s, id);
        }
        if promotes {
            for id in 0..s.num_items() as u32 {
                ensure_one(s, id);
            }
            s.scope = ScopeIndex::new(ScopeView::Full(s.num_items()));
        }
        grew
    }

    /// The oracle for [`ScopedParams::evict`]: one victim at a time —
    /// removed with its moment rows from a row-scoped store, reset to its
    /// init with zero moments in a dense one.
    fn evict_one(s: &mut ScopedParams, id: u32) {
        let (d, seed) = (s.dim(), s.item_seed);
        let at = s.lookup(id).expect("victim is held") * d;
        let ids = s.scope.ids().map(|held| {
            let mut ids = held.to_vec();
            ids.retain(|&x| x != id);
            ids
        });
        let [e, m, v] = item_rows(&mut s.params, &mut s.adam, s.emb);
        if let Some(ids) = ids {
            for block in [e, m, v] {
                reshape(block, |data| drop(data.drain(at..at + d)));
            }
            s.scope = ScopeIndex::new(ScopeView::Rows { num_items: s.num_items(), ids: &ids });
        } else {
            init::derived_normal_row(seed, id, EMB_STD, &mut e.as_mut_slice()[at..at + d]);
            m.as_mut_slice()[at..at + d].fill(0.0);
            v.as_mut_slice()[at..at + d].fill(0.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Batches that hit, miss and interleave the held rows, on dense
        /// and row-scoped stores with and without leading user rows:
        /// the one-pass merge — and the densifying plan, for a batch
        /// that crosses the rule — leaves ids, parameters, moments and
        /// the envelope bytes exactly as id-by-id insertion does.
        #[test]
        fn one_pass_materialization_equals_row_by_row(
            seed in any::<u64>(),
            shape in (0usize..3, 1usize..6, any::<bool>()),
            held in collection::btree_set(0u32..40, 0..12),
            batches in collection::vec(collection::btree_set(0u32..40, 0..15), 1..4),
        ) {
            let (offset, dim, dense) = shape;
            let held: Vec<u32> = held.into_iter().collect();
            let mut merged = store(offset, dim, scope_of(dense, &held), seed);
            let mut by_row = store(offset, dim, scope_of(dense, &held), seed);
            for batch in batches {
                warm(&mut merged);
                warm(&mut by_row);
                let ids: Vec<u32> = batch.into_iter().collect();
                let grew = merged.ensure_many(&ids);
                prop_assert_eq!(grew, ensure_by_row(&mut by_row, &ids));
                prop_assert_eq!(merged.view(), by_row.view());
                prop_assert_eq!(merged.export("T", None), by_row.export("T", None));
            }
        }

        /// The compaction plan leaves ids, parameter rows and both moment
        /// rows — the whole envelope — exactly as evicting the victims one
        /// at a time does, on dense and row-scoped stores with and without
        /// leading user rows, and the two keep training in lockstep.
        #[test]
        fn compaction_equals_victim_by_victim_removal(
            seed in any::<u64>(),
            shape in (0usize..3, 1usize..6, any::<bool>()),
            held in collection::btree_set(0u32..40, 0..12),
            keep in collection::btree_set(0u32..40, 0..15),
        ) {
            let (offset, dim, dense) = shape;
            let held: Vec<u32> = held.into_iter().collect();
            let keep: Vec<u32> = keep.into_iter().collect();
            let mut plan = store(offset, dim, scope_of(dense, &held), seed);
            warm(&mut plan);
            let mut by_victim = store(offset, dim, scope_of(dense, &held), seed);
            warm(&mut by_victim);
            let victims: Vec<u32> =
                plan.view().iter().filter(|id| keep.binary_search(id).is_err()).collect();
            prop_assert_eq!(plan.evict(&keep), victims.len());
            for &id in &victims {
                evict_one(&mut by_victim, id);
            }
            prop_assert_eq!(plan.view(), by_victim.view());
            prop_assert_eq!(plan.export("T", None), by_victim.export("T", None));
            warm(&mut plan);
            warm(&mut by_victim);
            prop_assert_eq!(plan.export("T", None), by_victim.export("T", None));
        }
    }

    /// The bytes a model's item state holds, its dense table's bytes, and
    /// the `(capacity rows, row bytes)` [`grows_dense`] weighs once the
    /// model holds `rows` item rows.
    trait UnderTheRule: crate::Recommender {
        fn bytes(&self) -> (usize, usize);
        fn room(&self, rows: usize) -> (usize, usize);
    }

    impl UnderTheRule for crate::MfModel {
        fn bytes(&self) -> (usize, usize) {
            let t = self.items();
            (t.heap_bytes(), t.num_items() * t.cols() * 4)
        }
        fn room(&self, rows: usize) -> (usize, usize) {
            (rows, self.items().cols() * 4)
        }
    }

    macro_rules! adam_under_the_rule {
        ($($model:ty),*) => {$(
            impl UnderTheRule for $model {
                fn bytes(&self) -> (usize, usize) {
                    let s = self.store();
                    (s.heap_bytes(), 3 * (s.row_offset + s.num_items()) * s.dim() * 4)
                }
                fn room(&self, rows: usize) -> (usize, usize) {
                    (capacity_rows(rows), 3 * self.store().dim() * 4)
                }
            }
        )*};
    }
    adam_under_the_rule!(crate::NeuMf, crate::Ngcf, crate::LightGcn);

    const ITEMS: u32 = 40;

    /// A one-user model of each family over [`ITEMS`] items, NGCF without
    /// dropout (its masks cover the materialized nodes).
    fn one_user(kind: usize, scope: ScopeView<'_>, seed: u64) -> Box<dyn UnderTheRule> {
        let (dim, lr) = (8, 0.05);
        match kind {
            0 => Box::new(crate::MfModel::new_scoped(1, dim, lr, scope, seed)),
            1 => {
                let cfg = crate::NeuMfConfig { dim, layers: vec![16, 8], lr };
                Box::new(crate::NeuMf::new_scoped(1, &cfg, scope, seed))
            }
            2 => {
                let cfg = crate::NgcfConfig {
                    dim,
                    layers: 2,
                    lr,
                    leaky_slope: 0.2,
                    reg: 1e-3,
                    message_dropout: 0.0,
                };
                Box::new(crate::Ngcf::new_scoped(1, &cfg, scope, seed))
            }
            _ => {
                let cfg = crate::LightGcnConfig { dim, layers: 2, lr };
                Box::new(crate::LightGcn::new_scoped(1, &cfg, scope, seed))
            }
        }
    }

    fn sorted(ids: impl IntoIterator<Item = u32>) -> Vec<u32> {
        let mut ids: Vec<u32> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random prepare/train/evict rounds of a one-user model built
        /// over its positives, beside a `Full` twin of the same seed, for
        /// MF, NeuMF, NGCF and LightGCN: after every step the sparse store
        /// holds fewer bytes than its dense table, it is dense exactly
        /// once a growth step crossed the rule, and it trains and scores
        /// as the twin does. Densifying both at the end leaves byte-equal
        /// envelopes: parameters, both moments, the step counter.
        #[test]
        fn growth_keeps_stores_below_dense_and_identical_to_full(
            kind in 0usize..4,
            seed in any::<u64>(),
            positives in collection::btree_set(0u32..ITEMS, 1..6),
            rounds in collection::vec(
                (
                    collection::btree_set(0u32..ITEMS, 0..32),
                    any::<bool>(),
                    collection::btree_set(0u32..ITEMS, 0..12),
                ),
                1..8,
            ),
        ) {
            let positives = sorted(positives);
            let all: Vec<u32> = (0..ITEMS).collect();
            let scope = ScopeView::Rows { num_items: ITEMS as usize, ids: &positives };
            let mut rows = one_user(kind, scope, seed);
            let mut full = one_user(kind, ScopeView::Full(ITEMS as usize), seed);
            let edges: Vec<(u32, u32, f32)> = positives.iter().map(|&i| (0, i, 1.0)).collect();
            let mut crossed = false;
            for (round, (drawn, evicts, keep)) in rounds.into_iter().enumerate() {
                let pool = sorted(drawn.into_iter().chain(positives.iter().copied()));
                let held = rows.item_scope();
                let after = held.len() + pool.iter().filter(|&&i| !held.contains(i)).count();
                if !held.is_full() && after > held.len() {
                    let (room, row_bytes) = rows.room(after);
                    crossed |= grows_dense(room, row_bytes, ITEMS as usize);
                }
                let batch: Vec<(u32, u32, f32)> =
                    pool.iter().map(|&i| (0, i, (i % 3) as f32 / 2.0)).collect();
                for m in [&mut rows, &mut full] {
                    m.prepare_items(&pool);
                    if m.uses_graph() {
                        m.set_graph(&edges);
                    }
                }
                let loss = rows.train_batch(&batch);
                prop_assert_eq!(loss.to_bits(), full.train_batch(&batch).to_bits(), "round {}", round);
                if evicts {
                    let keep = sorted(keep.into_iter().chain(positives.iter().copied()));
                    rows.evict_items(&keep);
                    full.evict_items(&keep);
                }
                let (bytes, dense) = rows.bytes();
                prop_assert_eq!(rows.item_scope().is_full(), crossed, "round {}", round);
                prop_assert!(crossed || bytes < dense, "round {}: {} bytes, dense {}", round, bytes, dense);
                prop_assert_eq!(rows.score(0, &all), full.score(0, &all), "round {}", round);
            }
            rows.prepare_items(&all);
            prop_assert!(rows.item_scope().is_full());
            prop_assert_eq!(rows.export_full_state(), full.export_full_state());
        }
    }
}
