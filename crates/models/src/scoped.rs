//! The seed-derived init scheme every model builds from, and the
//! item-row store shared by the Adam-trained models (NeuMF, NGCF, LightGCN).
//!
//! Everything outside a model's forward pass is the same for all three:
//! one embedding parameter whose item block grows before each round from
//! a `(seed, id)`-derived init, Adam moments that must grow, shrink and
//! reset with it, and the full-state envelope that round-trips the lot.
//! [`ScopedParams`] owns that state, so "id, parameter row and both
//! moment rows move together" is a property of the type rather than a
//! calling convention: its item rows are an [`ItemRows`] over three
//! planes, the embedding parameter and both moments, and they grow,
//! promote and compact as every other item table does.

use ptf_tensor::packed::{Reader, Writer};
use ptf_tensor::{
    derive_seed, Adam, GradBuf, Grads, ItemRows, Matrix, ParamId, Params, RowInit, ScopeIndex,
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
    row_init(item_seed(seed), dim).rows(scope, dim)
}

/// The dense gradient buffer of `id` in a model's reused [`Grads`].
pub(crate) fn dense(grads: &mut Grads, id: ParamId) -> &mut [f32] {
    match grads.slot_mut(id) {
        Some(GradBuf::Dense(m)) => m.as_mut_slice(),
        _ => unreachable!("weights, biases and the head take dense gradients"),
    }
}

/// An Adam-trained model's state: its [`Params`], their [`Adam`]
/// moments, and the [`ItemRows`] of the one item-scoped embedding
/// parameter — which global item id backs which row (NGCF/LightGCN put
/// their user rows first, as leading rows), and the init every
/// unmaterialized row derives from.
pub(crate) struct ScopedParams {
    params: Params,
    adam: Adam,
    emb: ParamId,
    rows: ItemRows,
}

impl ScopedParams {
    /// Takes ownership of a fully registered parameter store whose `emb`
    /// parameter ends in the [`item_block`] of `(scope, seed)`, preceded
    /// by `lead` scope-independent rows.
    pub fn new(
        params: Params,
        emb: ParamId,
        lead: usize,
        scope: ScopeView<'_>,
        seed: u64,
        lr: f32,
    ) -> Self {
        assert_eq!(params.get(emb).rows(), lead + scope.len(), "item block/scope mismatch");
        let init = row_init(item_seed(seed), params.get(emb).cols());
        let rows = ItemRows::new(ScopeIndex::new(scope), init, lead);
        let adam = Adam::with_defaults(&params, lr);
        Self { params, adam, emb, rows }
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

    /// The item rows of the embedding parameter.
    pub fn rows(&self) -> &ItemRows {
        &self.rows
    }

    /// Materializes every id of `sorted_ids` (ascending, unique) not held
    /// yet, moving the item block and both moment buffers together
    /// ([`ItemRows::grow`]): a fresh row gets its derived init and zero
    /// moments. Returns true if anything was inserted (graph models must
    /// rebuild their propagation operator, since node indices shifted).
    pub fn ensure_many(&mut self, sorted_ids: &[u32]) -> bool {
        let planes = item_planes(&mut self.params, &mut self.adam, self.emb);
        self.rows.grow(planes, sorted_ids, |_, _| {}) > 0
    }

    /// Evicts every materialized id the sorted keep set does not cover
    /// ([`ItemRows::retain`]): a row-scoped store drops the parameter row
    /// and both moment rows, a dense one resets them to the derived init
    /// and zero moments. Returns the number of rows evicted/reset.
    pub fn evict(&mut self, keep_sorted: &[u32]) -> usize {
        let planes = item_planes(&mut self.params, &mut self.adam, self.emb);
        self.rows.retain(planes, keep_sorted)
    }

    /// One Adam step on `grads`.
    #[inline(always)]
    pub fn step(&mut self, grads: &Grads) {
        self.adam.step(&mut self.params, grads);
    }

    /// Writes the full-state envelope: everything a model needs to
    /// *resume training bit-identically* —
    ///
    /// ```text
    /// {"arch":A,"item_ids":[…]|null,"item_seed":"<16 hex>","params":{…},
    ///  "adam_t":"<hex>","adam_m":[…],"adam_v":[…],"rng":["<16 hex>",…]|null}
    /// ```
    ///
    /// (one line): the scope mapping (`null` = dense identity over the
    /// whole catalogue), the item init seed, the parameters, the optimizer
    /// step counter and both moment buffers, and the xoshiro256++ state of
    /// the model-owned training RNG (NGCF's dropout stream) as 4 words, or
    /// `null` for RNG-free models. Dense and scoped stores alike: the
    /// scope travels inside. Every `u64` is a hex string and every matrix
    /// carries its values as one packed string of raw `f32` bits.
    pub fn write(&self, w: &mut Writer<'_>, arch: &str, rng: Option<&rand::rngs::StdRng>) {
        let RowInit::DerivedNormal { seed, .. } = self.rows.init() else {
            unreachable!("embedding rows are seed-derived")
        };
        w.open();
        w.key("arch");
        w.str(arch);
        w.key("item_ids");
        w.u32s_or_null(self.rows.index().ids());
        w.key("item_seed");
        w.hex16(seed);
        w.key("params");
        self.params.write_state(w);
        self.adam.write_state(w);
        w.key("rng");
        match rng {
            Some(rng) => w.array(rng.state(), |w, word| w.hex16(word)),
            None => w.null(),
        }
        w.close();
    }

    /// Reads a [`ScopedParams::write`] envelope into this store,
    /// returning the envelope's training RNG if it carried one. The scope
    /// may *reshape* in either direction: a sparse envelope restores its
    /// id set (however grown), a dense envelope densifies the live store —
    /// either way every parameter and both optimizer moment buffers are
    /// replaced, so the restored model continues training bit-identically
    /// to the written one.
    ///
    /// On error the store may be left partially restored; callers must
    /// discard it (the cohort runtime rebuilds from scratch or aborts).
    pub fn read(
        &mut self,
        r: &mut Reader<'_>,
        arch: &str,
    ) -> Result<Option<rand::rngs::StdRng>, String> {
        r.open()?;
        r.key("arch")?;
        let got = r.str()?;
        if got != arch {
            return Err(r.error(format_args!("architecture mismatch: expected {arch}, got {got}")));
        }
        r.key("item_ids")?;
        let ids = r.u32s_or_null()?;
        let index = ScopeIndex::checked(self.rows.index().num_items(), ids)
            .map_err(|e| r.error(format_args!("bad checkpoint item ids: {e}")))?;
        r.key("item_seed")?;
        let item_seed = r.hex16()?;
        r.key("params")?;
        let (lead, item_rows, emb) = (self.rows.lead(), index.len(), self.emb);
        self.params.read_state(r, |id, name, got, live| {
            if id == emb {
                if got.1 != live.1 || got.0 != lead + item_rows {
                    return Err(format!(
                        "shape mismatch for {name:?}: {got:?} does not fit {item_rows} item rows"
                    ));
                }
            } else if got != live {
                return Err(format!("shape mismatch for {name:?}: {got:?} vs {live:?}"));
            }
            Ok(())
        })?;
        self.adam.read_state(&self.params, r)?;
        r.key("rng")?;
        let rng = match r.null() {
            true => None,
            false => {
                let mut s = [0u64; 4];
                let mut k = 0;
                let words = r.array(|r| {
                    let word = r.hex16()?;
                    if let Some(slot) = s.get_mut(k) {
                        *slot = word;
                    }
                    k += 1;
                    Ok(())
                })?;
                if words != 4 {
                    return Err(r.error(format_args!("rng state must be 4 words, got {words}")));
                }
                Some(rand::rngs::StdRng::from_state(s))
            }
        };
        r.close()?;
        self.rows = ItemRows::new(index, row_init(item_seed, self.dim()), lead);
        Ok(rng)
    }
}

/// The fresh state of an embedding row `dim` wide: every entry from the
/// row's derived stream.
fn row_init(seed: u64, dim: usize) -> RowInit {
    RowInit::DerivedNormal { seed, std: EMB_STD, init_cols: dim }
}

/// The item-scoped parameter and its two moment buffers: the three
/// planes whose rows move together.
fn item_planes<'a>(
    params: &'a mut Params,
    adam: &'a mut Adam,
    emb: ParamId,
) -> [&'a mut Matrix; 3] {
    let (m, v) = adam.moments_mut(emb);
    [params.get_mut(emb), m, v]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ptf_tensor::grows_dense;

    /// The bytes a model's item state holds, its dense layout's bytes,
    /// and the bytes of one item row over every plane it moves.
    trait UnderTheRule: crate::Recommender {
        fn bytes(&self) -> (usize, usize);
        fn row_bytes(&self) -> usize;

        /// Whether growing to `rows` item rows crosses [`grows_dense`]:
        /// the one layout rule, for every store.
        fn crosses(&self, rows: usize) -> bool {
            grows_dense(rows, self.row_bytes(), ITEMS as usize)
        }
    }

    impl UnderTheRule for crate::MfModel {
        fn bytes(&self) -> (usize, usize) {
            let t = self.items();
            (t.heap_bytes(), t.num_items() * t.cols() * 4)
        }
        fn row_bytes(&self) -> usize {
            self.items().cols() * 4
        }
    }

    macro_rules! adam_under_the_rule {
        ($($model:ty),*) => {$(
            impl UnderTheRule for $model {
                fn bytes(&self) -> (usize, usize) {
                    let s = self.store();
                    let (m, v) = s.adam.moments(s.emb);
                    let heap = s.rows.heap_bytes([s.params.get(s.emb), m, v]);
                    (heap, (s.rows.lead() + s.rows.index().num_items()) * self.row_bytes())
                }
                fn row_bytes(&self) -> usize {
                    3 * self.store().dim() * 4
                }
            }
        )*};
    }
    adam_under_the_rule!(crate::NeuMf, crate::Ngcf, crate::LightGcn);

    /// A store whose item block follows `lead` user rows, beside a second
    /// parameter, as the graph models lay theirs out.
    fn store(lead: usize, dim: usize, scope: ScopeView<'_>, seed: u64) -> ScopedParams {
        let mut data = vec![0.25f32; lead * dim];
        data.extend_from_slice(item_block(scope, dim, seed).as_slice());
        let mut params = Params::new();
        let emb = params.push("emb", Matrix::from_vec(lead + scope.len(), dim, data));
        params.push("w", Matrix::full(2, 3, 0.5));
        ScopedParams::new(params, emb, lead, scope, seed, 0.01)
    }

    fn scope_of(dense: bool, held: &[u32]) -> ScopeView<'_> {
        if dense {
            ScopeView::Full(ITEMS as usize)
        } else {
            ScopeView::Rows { num_items: ITEMS as usize, ids: held }
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

    /// The oracle for [`ScopedParams::evict`]: one victim at a time —
    /// removed with its moment rows from a row-scoped store, reset to its
    /// init with zero moments in a dense one.
    fn evict_one(s: &mut ScopedParams, id: u32) {
        let d = s.dim();
        let at = s.rows.lookup(id).expect("victim is held") * d;
        let mut fresh = vec![0.0; d];
        s.rows.cold_row(id, &mut fresh);
        let ids = s.rows.index().ids().map(|held| {
            let mut ids = held.to_vec();
            ids.retain(|&x| x != id);
            ids
        });
        let planes = item_planes(&mut s.params, &mut s.adam, s.emb);
        if let Some(ids) = ids {
            for plane in planes {
                let mut data = plane.as_slice().to_vec();
                data.drain(at..at + d);
                *plane = Matrix::from_vec(data.len() / d, d, data);
            }
            let scope = ScopeView::Rows { num_items: ITEMS as usize, ids: &ids };
            s.rows = ItemRows::new(ScopeIndex::new(scope), s.rows.init(), s.rows.lead());
        } else {
            let [e, m, v] = planes;
            e.as_mut_slice()[at..at + d].copy_from_slice(&fresh);
            m.as_mut_slice()[at..at + d].fill(0.0);
            v.as_mut_slice()[at..at + d].fill(0.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The compaction plan leaves ids, parameter rows and both moment
        /// rows — the whole envelope — exactly as evicting the victims one
        /// at a time does, on dense and row-scoped stores with and without
        /// leading user rows, and the two keep training in lockstep.
        #[test]
        fn compaction_equals_victim_by_victim_removal(
            seed in any::<u64>(),
            shape in (0usize..3, 1usize..6, any::<bool>()),
            held in collection::btree_set(0u32..ITEMS, 0..12),
            keep in collection::btree_set(0u32..ITEMS, 0..15),
        ) {
            let (lead, dim, dense) = shape;
            let held: Vec<u32> = held.into_iter().collect();
            let keep: Vec<u32> = keep.into_iter().collect();
            let mut plan = store(lead, dim, scope_of(dense, &held), seed);
            warm(&mut plan);
            let mut by_victim = store(lead, dim, scope_of(dense, &held), seed);
            warm(&mut by_victim);
            let victims: Vec<u32> =
                plan.rows().index().view().iter().filter(|id| keep.binary_search(id).is_err()).collect();
            prop_assert_eq!(plan.evict(&keep), victims.len());
            for &id in &victims {
                evict_one(&mut by_victim, id);
            }
            prop_assert_eq!(plan.rows(), by_victim.rows());
            prop_assert_eq!(envelope(&plan), envelope(&by_victim));
            warm(&mut plan);
            warm(&mut by_victim);
            prop_assert_eq!(envelope(&plan), envelope(&by_victim));
        }
    }

    const ITEMS: u32 = 40;

    /// `store`'s full-state envelope.
    fn envelope(store: &ScopedParams) -> Vec<u8> {
        let mut text = Vec::new();
        store.write(&mut Writer::new(&mut text), "T", None);
        text
    }

    /// A one-user model of each family over [`ITEMS`] items.
    fn one_user(kind: usize, scope: ScopeView<'_>, seed: u64) -> Box<dyn UnderTheRule> {
        let (dim, lr) = (8, 0.05);
        let hyper = crate::ModelHyper {
            dim,
            lr,
            gcn_layers: 2,
            mlp_layers: vec![16, 8],
            ngcf_reg: 1e-3,
            ngcf_dropout: 0.1,
        };
        match kind {
            0 => Box::new(crate::MfModel::new_scoped(1, dim, lr, scope, seed)),
            1 => Box::new(crate::NeuMf::new_scoped(1, &hyper, scope, seed)),
            2 => Box::new(crate::Ngcf::new_scoped(1, &hyper, scope, seed)),
            _ => Box::new(crate::LightGcn::new_scoped(1, &hyper, scope, seed)),
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
                    crossed |= rows.crosses(after);
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

    /// A store restored from its own envelope weighs what the resident
    /// one does and promotes at the same growth step: the growth policy
    /// is a function of the rows held, not of how the buffers came to be.
    #[test]
    fn a_restored_store_weighs_and_promotes_as_the_resident_one() {
        let positives = [1u32, 9, 17];
        let scope = ScopeView::Rows { num_items: ITEMS as usize, ids: &positives };
        for kind in 0..4 {
            let mut resident = one_user(kind, scope, 31);
            let mut promoted = None;
            for round in 0..16 {
                // three new ids a round, until the catalogue is covered
                let pool = sorted((3 * round..3 * round + 3).map(|i| i % ITEMS));
                let mut restored = one_user(kind, scope, 31);
                restored.import_full_state(&resident.export_full_state().unwrap()).unwrap();
                assert_eq!(restored.bytes(), resident.bytes(), "kind {kind}, round {round}");
                for m in [&mut resident, &mut restored] {
                    m.prepare_items(&pool);
                }
                assert_eq!(restored.item_scope(), resident.item_scope(), "kind {kind}");
                assert_eq!(restored.bytes(), resident.bytes(), "kind {kind}, round {round}");
                if resident.item_scope().is_full() {
                    promoted.get_or_insert(round);
                }
            }
            assert!(promoted.is_some_and(|r| r > 0), "kind {kind} promoted at {promoted:?}");
        }
    }
}
