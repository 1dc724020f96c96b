//! Row-sparse embedding tables with deterministic lazy materialization.
//!
//! PTF-FedRec clients never transmit their models — and they also never
//! *touch* more than a sliver of the item space: positives, per-round
//! sampled negatives, and server-dispersed items. [`ItemScope`] makes that
//! contract explicit at model-construction time, and [`RowTable`] backs a
//! scoped model's item embeddings with a dense arena of only the rows in
//! scope plus a sorted id→row index.
//!
//! Two properties make scoped and full models interchangeable:
//!
//! * **Seed-derived per-row initialization.** Every row's initial value is
//!   a pure function of `(table seed, global item id)` via [`derive_seed`]
//!   — the same SplitMix-style derivation discipline as the federation
//!   scheduler's RNG streams. A `Rows`-scoped table and a `Full` table
//!   built from the same seed hold bit-identical values on every shared
//!   row, so scoped and full runs stay bit-comparable.
//! * **Lazy, order-independent materialization.** Touching an out-of-scope
//!   row (a dispersed item the client has never seen) materializes it on
//!   first touch with its derived init; because the init depends only on
//!   the id, *when* and *in which order* rows materialize cannot change
//!   their contents. Rows are kept sorted by global id so iteration (and
//!   graph-propagation summation order) matches a full table's.
//!
//! Materialization into reserved capacity performs **zero heap
//! allocations** (arena/index growth is amortized with a bounded ~25%
//! headroom so peak heap stays close to the touched-row footprint).

use crate::matrix::reserve_doubling;
use crate::packed::PackedF32s;

/// Mixes `(master, a, b)` into one well-distributed 64-bit seed.
///
/// SplitMix64-style: each input word is folded in with an odd constant,
/// then the combined state goes through two xor-shift-multiply
/// finalization rounds. Consecutive inputs land far apart, so derived
/// `StdRng`s are statistically independent in practice. This is the
/// single seed-derivation primitive of the workspace: the federation
/// scheduler derives per-`(seed, round, stream)` RNGs from it, and scoped
/// tables derive per-`(table, item id)` row initializers.
pub fn derive_seed(master: u64, a: u64, b: u64) -> u64 {
    let mut z = master
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which item-embedding rows a model can ever touch.
///
/// The model-construction contract of the scoped API
/// (`ptf_models::build_model_scoped`): `Full(n)` allocates the classic
/// dense `n × dim` table; `Rows` allocates only the listed rows (a
/// client's positives, typically) and lets everything else materialize
/// lazily on first touch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ItemScope {
    /// Every item of an `n`-item catalogue.
    Full(usize),
    /// Only `ids` (sorted, deduplicated, all `< num_items`) out of a
    /// `num_items`-item catalogue.
    Rows {
        /// Total catalogue size (ids remain global; scoping changes
        /// storage, not the id space).
        num_items: usize,
        /// Initially materialized global item ids, sorted ascending.
        ids: Vec<u32>,
    },
}

impl ItemScope {
    /// A `Rows` scope from any id list: sorts, deduplicates, validates.
    pub fn rows(num_items: usize, mut ids: Vec<u32>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        if let Some(&last) = ids.last() {
            assert!(
                (last as usize) < num_items,
                "scope id {last} out of range ({num_items} items)"
            );
        }
        Self::Rows { num_items, ids }
    }

    /// Total catalogue size (the model's global `num_items`).
    pub fn num_items(&self) -> usize {
        match self {
            Self::Full(n) => *n,
            Self::Rows { num_items, .. } => *num_items,
        }
    }

    /// Rows materialized at construction time.
    pub fn initial_rows(&self) -> usize {
        match self {
            Self::Full(n) => *n,
            Self::Rows { ids, .. } => ids.len(),
        }
    }

    pub fn is_full(&self) -> bool {
        matches!(self, Self::Full(_))
    }
}

/// Sorted id→row index of a scoped table.
///
/// `Full` scopes use the dense identity mapping (no index storage, O(1)
/// lookups); `Rows` scopes keep the materialized global ids sorted so
/// lookup is a binary search and row order is monotone in global id —
/// which keeps float summation order (graph propagation, delta
/// aggregation) identical between scoped and full tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScopeIndex {
    num_items: usize,
    /// `None` = dense identity over `0..num_items`.
    ids: Option<Vec<u32>>,
}

impl ScopeIndex {
    pub fn from_scope(scope: &ItemScope) -> Self {
        match scope {
            ItemScope::Full(n) => Self { num_items: *n, ids: None },
            ItemScope::Rows { num_items, ids } => {
                debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "scope ids must be sorted");
                Self { num_items: *num_items, ids: Some(ids.clone()) }
            }
        }
    }

    pub fn dense(num_items: usize) -> Self {
        Self { num_items, ids: None }
    }

    pub fn is_dense(&self) -> bool {
        self.ids.is_none()
    }

    /// Total catalogue size (global id space).
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Materialized row count.
    pub fn len(&self) -> usize {
        self.ids.as_ref().map_or(self.num_items, Vec::len)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialized ids in row order (`None` for the dense identity).
    pub fn ids(&self) -> Option<&[u32]> {
        self.ids.as_deref()
    }

    /// Row index of `id`, if materialized.
    pub fn lookup(&self, id: u32) -> Option<usize> {
        debug_assert!((id as usize) < self.num_items, "item {id} out of range");
        match &self.ids {
            None => Some(id as usize),
            Some(ids) => ids.binary_search(&id).ok(),
        }
    }

    /// Row index of `id`, materializing it if absent. Returns
    /// `(row, inserted)`; on insertion every row at `row` or later shifts
    /// down by one (callers must shift any parallel storage identically).
    pub fn insert(&mut self, id: u32) -> (usize, bool) {
        assert!(
            (id as usize) < self.num_items,
            "item {id} out of range ({} items)",
            self.num_items
        );
        match &mut self.ids {
            None => (id as usize, false),
            Some(ids) => match ids.binary_search(&id) {
                Ok(p) => (p, false),
                Err(p) => {
                    ids.insert(p, id);
                    (p, true)
                }
            },
        }
    }

    /// How many of `sorted_ids` (ascending, unique) are not materialized
    /// yet — zero for the dense identity.
    pub fn count_absent(&self, sorted_ids: &[u32]) -> usize {
        debug_assert!(sorted_ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted unique");
        if let Some(&last) = sorted_ids.last() {
            assert!(
                (last as usize) < self.num_items,
                "item {last} out of range ({} items)",
                self.num_items
            );
        }
        let Some(ids) = &self.ids else { return 0 };
        let mut i = 0usize;
        let mut absent = 0usize;
        for &id in sorted_ids {
            while i < ids.len() && ids[i] < id {
                i += 1;
            }
            if i >= ids.len() || ids[i] != id {
                absent += 1;
            }
        }
        absent
    }

    /// Materializes `sorted_ids`, of which [`ScopeIndex::count_absent`]
    /// counted `absent`, in **one backward merge pass**: O(rows + new)
    /// movement instead of the O(new × rows) that per-id
    /// [`ScopeIndex::insert`] costs. Parallel row storage, already grown
    /// by `absent` rows, follows through `place(from, to, id)`, called
    /// in descending `to` order: `Some(from)` moves old row `from` to
    /// `to`, `None` puts the fresh row of `id` at `to`. Rows that keep
    /// their position are not reported.
    pub fn merge_in(
        &mut self,
        sorted_ids: &[u32],
        absent: usize,
        mut place: impl FnMut(Option<usize>, usize, u32),
    ) {
        let Some(ids) = &mut self.ids else { return };
        let old_rows = ids.len();
        reserve_doubling(ids, old_rows + absent);
        ids.resize(old_rows + absent, 0);
        // reads of old entries happen at indices < i, writes at w ≥ i,
        // so nothing unread is ever clobbered; once every fresh id is
        // placed, w == i and the rest stays where it is
        let mut w = old_rows + absent;
        let mut i = old_rows;
        let mut j = sorted_ids.len();
        while w > i {
            if i == 0 || sorted_ids[j - 1] > ids[i - 1] {
                j -= 1;
                w -= 1;
                ids[w] = sorted_ids[j];
                place(None, w, sorted_ids[j]);
            } else if sorted_ids[j - 1] == ids[i - 1] {
                j -= 1; // already materialized; the old row carries it
            } else {
                i -= 1;
                w -= 1;
                ids[w] = ids[i];
                place(Some(i), w, ids[i]);
            }
        }
        debug_assert!(ids.windows(2).all(|p| p[0] < p[1]));
    }

    /// Global id of row `r`.
    pub fn id_of(&self, r: usize) -> u32 {
        match &self.ids {
            None => r as u32,
            Some(ids) => ids[r],
        }
    }

    /// Removes `id` from a sparse index, returning the row position it
    /// occupied; every later row shifts up by one (callers must shift any
    /// parallel storage identically — the exact inverse of
    /// [`ScopeIndex::insert`]). Dense identity scopes cannot drop ids and
    /// return `None`, as does an id that was never materialized.
    pub fn remove(&mut self, id: u32) -> Option<usize> {
        match &mut self.ids {
            None => None,
            Some(ids) => match ids.binary_search(&id) {
                Ok(p) => {
                    ids.remove(p);
                    Some(p)
                }
                Err(_) => None,
            },
        }
    }

    /// Replaces the materialized id set (checkpoint restore). The new ids
    /// must be sorted, unique, in range, and — since parallel storage is
    /// not reshaped — of the same length.
    pub fn restore_ids(&mut self, new_ids: Vec<u32>) -> Result<(), String> {
        if self.is_dense() {
            return Err("cannot restore a sparse id set into a dense scope".to_string());
        }
        if new_ids.len() != self.len() {
            return Err(format!("scope size mismatch: {} vs {}", new_ids.len(), self.len()));
        }
        if !new_ids.windows(2).all(|w| w[0] < w[1]) {
            return Err("scope ids must be sorted and unique".to_string());
        }
        if let Some(&last) = new_ids.last() {
            if last as usize >= self.num_items {
                return Err(format!("scope id {last} out of range ({} items)", self.num_items));
            }
        }
        self.ids = Some(new_ids);
        Ok(())
    }
}

/// How a [`RowTable`] fills a freshly materialized row.
#[derive(Clone, Copy, Debug, PartialEq)]
enum RowInit {
    /// All-zero rows (delta/accumulator tables).
    Zeros,
    /// First `init_cols` entries i.i.d. `N(0, std²)` from the row's
    /// derived seed; trailing columns (e.g. a bias column) start at zero.
    DerivedNormal { seed: u64, std: f32, init_cols: usize },
}

/// A row-sparse embedding table: a dense arena of the materialized rows
/// (sorted by global item id) plus a [`ScopeIndex`].
///
/// See the module docs for the determinism contract. The arena grows with
/// bounded headroom (~25%) rather than doubling, so a Gowalla-scale
/// client fleet's peak heap stays close to the sum of touched rows.
#[derive(Clone, Debug, PartialEq)]
pub struct RowTable {
    index: ScopeIndex,
    cols: usize,
    init: RowInit,
    /// Row-major arena, `index.len() × cols`.
    data: Vec<f32>,
}

std::thread_local! {
    /// Reusable buffer for computing a cold (unmaterialized) row's init
    /// values without touching the table; see [`RowTable::with_row`].
    static COLD_ROW: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

impl RowTable {
    /// Builds a table over `scope` whose materialized rows carry the
    /// seed-derived normal init (`init_cols ≤ cols` normal entries, the
    /// rest zero — MF uses the trailing column as the item bias).
    pub fn from_scope(
        scope: &ItemScope,
        cols: usize,
        init_cols: usize,
        std: f32,
        seed: u64,
    ) -> Self {
        assert!(init_cols <= cols, "init_cols {init_cols} > cols {cols}");
        let index = ScopeIndex::from_scope(scope);
        let init = RowInit::DerivedNormal { seed, std, init_cols };
        let mut data = vec![0.0f32; index.len() * cols];
        for r in 0..index.len() {
            let id = index.id_of(r);
            fill_row(init, id, &mut data[r * cols..r * cols + cols]);
        }
        Self { index, cols, init, data }
    }

    /// A sparse zero-initialized table with no materialized rows — the
    /// accumulator shape (per-client item deltas, gradient staging).
    pub fn sparse_zeroed(num_items: usize, cols: usize) -> Self {
        Self {
            index: ScopeIndex::from_scope(&ItemScope::Rows { num_items, ids: Vec::new() }),
            cols,
            init: RowInit::Zeros,
            data: Vec::new(),
        }
    }

    pub fn num_items(&self) -> usize {
        self.index.num_items()
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Materialized row count.
    pub fn rows(&self) -> usize {
        self.index.len()
    }

    /// Materialized scalar count (the table's parameter count).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn is_dense(&self) -> bool {
        self.index.is_dense()
    }

    /// Materialized ids in row order (`None` when dense).
    pub fn ids(&self) -> Option<&[u32]> {
        self.index.ids()
    }

    pub fn index(&self) -> &ScopeIndex {
        &self.index
    }

    pub fn lookup(&self, id: u32) -> Option<usize> {
        self.index.lookup(id)
    }

    /// Global id of materialized row `r`.
    pub fn id_of(&self, r: usize) -> u32 {
        self.index.id_of(r)
    }

    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates `(global id, row)` in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[f32])> {
        (0..self.rows()).map(|r| (self.index.id_of(r), self.row(r)))
    }

    /// Pre-reserves capacity for `additional` more materialized rows, so
    /// the next `additional` first-touches allocate nothing.
    pub fn reserve_rows(&mut self, additional: usize) {
        let want = (self.rows() + additional).min(self.num_items());
        let extra_rows = want.saturating_sub(self.rows());
        let need = self.data.len() + extra_rows * self.cols;
        if need > self.data.capacity() {
            self.data.reserve_exact(need - self.data.len());
        }
        if let Some(ids) = &mut self.index.ids {
            if want > ids.capacity() {
                let extra = want - ids.len();
                ids.reserve_exact(extra);
            }
        }
    }

    /// Grows capacity ahead of one insertion with bounded (~25%) headroom
    /// instead of `Vec`'s doubling, so a fleet of scoped tables does not
    /// hold 2× its touched-row footprint at peak.
    fn reserve_for_insert(&mut self) {
        if self.data.len() + self.cols > self.data.capacity() {
            let headroom_rows = (self.rows() / 4).max(8);
            self.reserve_rows(headroom_rows.max(1));
        } else if let Some(ids) = &self.index.ids {
            if ids.len() == ids.capacity() {
                let headroom_rows = (self.rows() / 4).max(8);
                self.reserve_rows(headroom_rows.max(1));
            }
        }
    }

    /// Row index of `id`, materializing it with the table's init on first
    /// touch. Materialization into reserved capacity is allocation-free.
    pub fn ensure(&mut self, id: u32) -> usize {
        self.ensure_detailed(id).0
    }

    /// [`RowTable::ensure`] that also reports whether the row was
    /// freshly materialized.
    pub fn ensure_detailed(&mut self, id: u32) -> (usize, bool) {
        if let Some(r) = self.index.lookup(id) {
            return (r, false);
        }
        self.reserve_for_insert();
        let (p, inserted) = self.index.insert(id);
        debug_assert!(inserted);
        // append cols zeros, then rotate them into place at row p —
        // in-place (no temporary buffer, no allocation once reserved)
        let at = p * self.cols;
        let old_len = self.data.len();
        self.data.resize(old_len + self.cols, 0.0);
        self.data[at..].rotate_right(self.cols);
        fill_row(self.init, id, &mut self.data[at..at + self.cols]);
        (p, true)
    }

    /// Materializes every id of `sorted_ids` (ascending, unique) that is
    /// not yet present, in **one backward merge pass** — O(rows + new)
    /// total arena movement instead of the O(new × rows) shifting that
    /// per-id [`RowTable::ensure`] costs when a round touches many fresh
    /// rows at once. Returns the number of rows materialized; zero when
    /// everything was already present (and then the call is free).
    pub fn ensure_many(&mut self, sorted_ids: &[u32]) -> usize {
        let new_count = self.index.count_absent(sorted_ids);
        if new_count == 0 {
            return 0;
        }
        self.reserve_rows(new_count);
        let (cols, init) = (self.cols, self.init);
        let data = &mut self.data;
        data.resize(data.len() + new_count * cols, 0.0);
        self.index.merge_in(sorted_ids, new_count, |from, to, id| match from {
            Some(from) => data.copy_within(from * cols..(from + 1) * cols, to * cols),
            None => fill_row(init, id, &mut data[to * cols..(to + 1) * cols]),
        });
        new_count
    }

    /// The materialized rows, row-major (`rows() × cols()`): on a dense
    /// table, row `i` is item `i`.
    pub fn arena(&self) -> &[f32] {
        &self.data
    }

    /// Evicts every row whose global id is not in `keep_sorted`
    /// (ascending, unique), returning how many rows were dropped.
    ///
    /// Eviction is *semantically free* on seed-derived tables: a dropped
    /// row re-materializes bit-identically on next touch, because its init
    /// is a pure function of `(table seed, id)`. Sparse tables compact the
    /// arena in one forward merge pass (O(rows) movement); dense tables
    /// reset the evicted rows in place to their derived init — the
    /// representation-independent meaning of "row state is back to init".
    pub fn retain_ids(&mut self, keep_sorted: &[u32]) -> usize {
        debug_assert!(
            keep_sorted.windows(2).all(|w| w[0] < w[1]),
            "keep ids must be sorted unique"
        );
        let cols = self.cols;
        let init = self.init;
        match &mut self.index.ids {
            None => {
                // dense table: reset non-kept rows in place,
                // walking the keep list in lockstep with the identity rows
                let mut k = 0usize;
                let mut reset = 0usize;
                for id in 0..self.index.num_items as u32 {
                    while k < keep_sorted.len() && keep_sorted[k] < id {
                        k += 1;
                    }
                    if k < keep_sorted.len() && keep_sorted[k] == id {
                        continue;
                    }
                    let at = id as usize * cols;
                    fill_row(init, id, &mut self.data[at..at + cols]);
                    reset += 1;
                }
                reset
            }
            Some(ids) => {
                let mut w = 0usize;
                for r in 0..ids.len() {
                    if keep_sorted.binary_search(&ids[r]).is_ok() {
                        if w != r {
                            ids[w] = ids[r];
                            self.data.copy_within(r * cols..(r + 1) * cols, w * cols);
                        }
                        w += 1;
                    }
                }
                let removed = ids.len() - w;
                ids.truncate(w);
                self.data.truncate(w * cols);
                removed
            }
        }
    }

    /// Like [`RowTable::ensure`], but a freshly materialized row is
    /// filled by `fill` instead of the table init (copy-on-first-touch —
    /// the FCF/MetaMF clients seed their local rows from the server's
    /// current values).
    pub fn ensure_with(&mut self, id: u32, fill: impl FnOnce(&mut [f32])) -> usize {
        let (r, inserted) = self.ensure_detailed(id);
        if inserted {
            let row = self.row_mut(r);
            row.iter_mut().for_each(|x| *x = 0.0);
            fill(row);
        }
        r
    }

    /// Runs `f` on row `id`: the materialized row if present, otherwise
    /// its init values computed into a thread-local scratch buffer (no
    /// table mutation, no steady-state allocation). `f` must not
    /// re-enter `with_row` on the same thread.
    pub fn with_row<R>(&self, id: u32, f: impl FnOnce(&[f32]) -> R) -> R {
        match self.index.lookup(id) {
            Some(r) => f(self.row(r)),
            None => COLD_ROW.with(|cell| {
                let mut buf = cell.borrow_mut();
                buf.clear();
                buf.resize(self.cols, 0.0);
                fill_row(self.init, id, &mut buf);
                f(&buf)
            }),
        }
    }
}

fn fill_row(init: RowInit, id: u32, out: &mut [f32]) {
    match init {
        RowInit::Zeros => out.iter_mut().for_each(|x| *x = 0.0),
        RowInit::DerivedNormal { seed, std, init_cols } => {
            crate::init::derived_normal_row(seed, id, std, &mut out[..init_cols]);
            out[init_cols..].iter_mut().for_each(|x| *x = 0.0);
        }
    }
}

/// Wire form; shape and ordering invariants are re-validated on load.
/// The arena travels as one [`PackedF32s`] string (ids stay a decimal
/// array). The seed travels as a hex string: the vendored JSON layer
/// routes bare integers through `f64`, which silently rounds u64 seeds
/// ≥ 2⁵³ — and a rounded seed would re-derive *different* lazy rows after
/// a restore.
#[derive(serde::Serialize, serde::Deserialize)]
struct RowTableWire {
    num_items: usize,
    cols: usize,
    /// `None` = dense identity mapping.
    ids: Option<Vec<u32>>,
    data: PackedF32s,
    init_seed: String,
    init_std: f32,
    init_cols: usize,
}

impl serde::Serialize for RowTable {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let (init_seed, init_std, init_cols) = match self.init {
            RowInit::Zeros => (0, 0.0, 0),
            RowInit::DerivedNormal { seed, std, init_cols } => (seed, std, init_cols),
        };
        RowTableWire {
            num_items: self.num_items(),
            cols: self.cols,
            ids: self.index.ids().map(<[u32]>::to_vec),
            data: PackedF32s::pack(&self.data),
            init_seed: format!("{init_seed:016x}"),
            init_std,
            init_cols,
        }
        .serialize(serializer)
    }
}

impl<'de> serde::Deserialize<'de> for RowTable {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error;
        let w = RowTableWire::deserialize(deserializer)?;
        let rows = match &w.ids {
            None => w.num_items,
            Some(ids) => {
                if !ids.windows(2).all(|p| p[0] < p[1]) {
                    return Err(D::Error::custom("row table ids must be sorted and unique"));
                }
                if ids.last().is_some_and(|&l| l as usize >= w.num_items) {
                    return Err(D::Error::custom("row table id out of range"));
                }
                ids.len()
            }
        };
        let data = w.data.unpack("row table data").map_err(D::Error::custom)?;
        if rows.checked_mul(w.cols) != Some(data.len()) {
            return Err(D::Error::custom(format!(
                "row table buffer of {} elements cannot be {rows}x{}",
                data.len(),
                w.cols
            )));
        }
        if w.init_cols > w.cols {
            return Err(D::Error::custom("init_cols exceeds cols"));
        }
        // `derived_normal_row` panics on such a std the first time a row
        // is re-derived: reject it here, where the error can be reported
        if !(w.init_std.is_finite() && w.init_std >= 0.0) {
            return Err(D::Error::custom("init_std must be finite and non-negative"));
        }
        let seed = u64::from_str_radix(&w.init_seed, 16)
            .map_err(|e| D::Error::custom(format!("bad init seed: {e}")))?;
        let init = if w.init_std == 0.0 && seed == 0 && w.init_cols == 0 {
            RowInit::Zeros
        } else {
            RowInit::DerivedNormal { seed, std: w.init_std, init_cols: w.init_cols }
        };
        Ok(Self {
            index: ScopeIndex { num_items: w.num_items, ids: w.ids },
            cols: w.cols,
            init,
            data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scoped(ids: &[u32]) -> RowTable {
        RowTable::from_scope(&ItemScope::rows(20, ids.to_vec()), 4, 3, 0.1, 77)
    }

    #[test]
    fn full_and_rows_share_row_values() {
        let full = RowTable::from_scope(&ItemScope::Full(20), 4, 3, 0.1, 77);
        let rows = scoped(&[2, 5, 19]);
        for &id in &[2u32, 5, 19] {
            assert_eq!(full.row(id as usize), rows.row(rows.lookup(id).unwrap()), "row {id}");
        }
        // trailing (bias) column starts at zero in both
        assert_eq!(full.row(5)[3], 0.0);
    }

    #[test]
    fn lazy_materialization_is_order_independent() {
        let mut a = scoped(&[3]);
        let mut b = scoped(&[3]);
        a.ensure(10);
        a.ensure(7);
        b.ensure(7);
        b.ensure(10);
        assert_eq!(a, b);
        assert_eq!(a.ids(), Some(&[3, 7, 10][..]));
        // and both match the full table on every shared row
        let full = RowTable::from_scope(&ItemScope::Full(20), 4, 3, 0.1, 77);
        for &id in &[3u32, 7, 10] {
            assert_eq!(a.row(a.lookup(id).unwrap()), full.row(id as usize));
        }
    }

    #[test]
    fn ensure_keeps_rows_sorted_and_shifts_arena() {
        let mut t = scoped(&[5, 10]);
        let before_5 = t.row(t.lookup(5).unwrap()).to_vec();
        let (r, inserted) = t.ensure_detailed(7);
        assert!(inserted);
        assert_eq!(r, 1);
        assert_eq!(t.ids(), Some(&[5, 7, 10][..]));
        assert_eq!(t.row(t.lookup(5).unwrap()), &before_5[..], "existing row moved bytes");
        let (r2, again) = t.ensure_detailed(7);
        assert_eq!((r2, again), (1, false));
    }

    #[test]
    fn ensure_many_matches_one_by_one() {
        let mut batch = scoped(&[4, 9]);
        let mut single = scoped(&[4, 9]);
        let wanted = [1u32, 4, 6, 9, 15, 19];
        assert_eq!(batch.ensure_many(&wanted), 4);
        for &id in &wanted {
            single.ensure(id);
        }
        assert_eq!(batch, single);
        // idempotent and free the second time
        assert_eq!(batch.ensure_many(&wanted), 0);
        assert_eq!(batch, single);
        // dense tables are a no-op
        let mut dense = RowTable::from_scope(&ItemScope::Full(20), 4, 3, 0.1, 77);
        assert_eq!(dense.ensure_many(&wanted), 0);
    }

    #[test]
    fn with_row_cold_equals_materialized() {
        let mut t = scoped(&[1]);
        let cold = t.with_row(9, <[f32]>::to_vec);
        let r = t.ensure(9);
        assert_eq!(t.row(r), &cold[..], "cold values must equal first-touch init");
    }

    #[test]
    fn materialization_into_reserved_capacity_allocates_nothing() {
        let mut t = scoped(&[0]);
        t.reserve_rows(16);
        let before = crate::alloc::thread_allocs();
        for id in 1..10 {
            t.ensure(id);
        }
        // the shim is only live in binaries that install it; in unit tests
        // both readings are 0 — the assertion is vacuous there but real in
        // tests/hot_path.rs, which runs the same path under the shim
        assert_eq!(crate::alloc::thread_allocs(), before, "reserved inserts must not allocate");
    }

    #[test]
    fn retain_ids_compacts_sparse_tables_and_rematerializes_identically() {
        let mut t = scoped(&[2, 5, 9, 13, 19]);
        let keep_5 = t.row(t.lookup(5).unwrap()).to_vec();
        let keep_13 = t.row(t.lookup(13).unwrap()).to_vec();
        assert_eq!(t.retain_ids(&[5, 13]), 3);
        assert_eq!(t.ids(), Some(&[5, 13][..]));
        assert_eq!(t.row(0), &keep_5[..], "kept row moved bytes");
        assert_eq!(t.row(1), &keep_13[..], "kept row moved bytes");
        assert_eq!(t.len(), 2 * t.cols());
        // an evicted row comes back bit-identical to a never-evicted twin
        let twin = scoped(&[9]);
        let r = t.ensure(9);
        assert_eq!(t.row(r), twin.row(0), "re-materialization must be reproducible");
        // keeping everything is a no-op
        assert_eq!(t.retain_ids(&[5, 9, 13]), 0);
    }

    #[test]
    fn retain_ids_resets_dense_seed_derived_rows_in_place() {
        let mut dense = RowTable::from_scope(&ItemScope::Full(20), 4, 3, 0.1, 77);
        let fresh = dense.clone();
        // perturb two rows, keep one of them
        dense.row_mut(6)[0] += 1.0;
        dense.row_mut(11)[0] += 1.0;
        let trained_11 = dense.row(11).to_vec();
        assert!(dense.retain_ids(&[11]) > 0);
        assert_eq!(dense.row(6), fresh.row(6), "evicted dense row must return to init");
        assert_eq!(dense.row(11), &trained_11[..], "kept dense row must be untouched");
        assert_eq!(dense.rows(), 20, "dense tables never drop rows, only reset them");
    }

    #[test]
    fn scope_index_remove_is_inverse_of_insert() {
        let mut s = ScopeIndex::from_scope(&ItemScope::rows(10, vec![2, 4, 7]));
        assert_eq!(s.remove(4), Some(1));
        assert_eq!(s.ids(), Some(&[2, 7][..]));
        assert_eq!(s.remove(4), None, "double-remove must be a no-op");
        assert_eq!(s.insert(4), (1, true));
        assert_eq!(s.ids(), Some(&[2, 4, 7][..]));
        let mut dense = ScopeIndex::dense(4);
        assert_eq!(dense.remove(2), None, "dense identity cannot drop ids");
    }

    #[test]
    fn zeroed_accumulator_and_ensure_with() {
        let mut t = RowTable::sparse_zeroed(10, 3);
        let r = t.ensure_with(4, |row| row.copy_from_slice(&[1.0, 2.0, 3.0]));
        assert_eq!(t.row(r), &[1.0, 2.0, 3.0]);
        // second touch keeps the existing values
        let r2 = t.ensure_with(4, |row| row.copy_from_slice(&[9.0, 9.0, 9.0]));
        assert_eq!((r, t.row(r2)), (r2, &[1.0, 2.0, 3.0][..]));
        let r3 = t.ensure(8);
        assert_eq!(t.row(r3), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn serde_roundtrip_sparse_and_dense() {
        let mut t = scoped(&[2, 8]);
        t.ensure(5);
        let json = serde_json::to_string(&t).unwrap();
        let back: RowTable = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
        // a restored table still lazily materializes identically
        let mut a = back.clone();
        let mut b = t.clone();
        assert_eq!(a.ensure(11), b.ensure(11));
        assert_eq!(a, b);

        let mut d = RowTable::from_scope(&ItemScope::Full(3), 2, 1, 0.1, 77);
        d.row_mut(1).fill(5.0);
        let back: RowTable = serde_json::from_str(&serde_json::to_string(&d).unwrap()).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn serde_rejects_corrupt_tables() {
        let bad = r#"{"num_items":5,"cols":2,"ids":[3,1],"data":"00000000000000000000000000000000","init_seed":"1","init_std":0.1,"init_cols":2}"#;
        assert!(serde_json::from_str::<RowTable>(bad).is_err(), "unsorted ids accepted");
        let bad = r#"{"num_items":5,"cols":2,"ids":[1],"data":"00000000000000000000000000000000","init_seed":"1","init_std":0.1,"init_cols":2}"#;
        assert!(serde_json::from_str::<RowTable>(bad).is_err(), "shape mismatch accepted");
        // one flipped byte turns `0.1` into `-.1`: a std the row init
        // panics on, only once a row is re-derived
        let bad = r#"{"num_items":5,"cols":2,"ids":[1],"data":"0000000000000000","init_seed":"1","init_std":-.1,"init_cols":2}"#;
        let err = serde_json::from_str::<RowTable>(bad).unwrap_err().to_string();
        assert!(err.contains("init_std"), "{err}");
    }

    #[test]
    fn scope_index_dense_and_sparse() {
        let mut dense = ScopeIndex::dense(4);
        assert_eq!(dense.lookup(3), Some(3));
        assert_eq!(dense.insert(2), (2, false));
        assert_eq!(dense.len(), 4);

        let mut s = ScopeIndex::from_scope(&ItemScope::rows(10, vec![4, 2]));
        assert_eq!(s.ids(), Some(&[2, 4][..]));
        assert_eq!(s.lookup(3), None);
        assert_eq!(s.insert(3), (1, true));
        assert_eq!(s.insert(3), (1, false));
        assert_eq!(s.id_of(2), 4);
    }

    #[test]
    fn scope_restore_validates() {
        let mut s = ScopeIndex::from_scope(&ItemScope::rows(10, vec![1, 2, 3]));
        assert!(s.restore_ids(vec![1, 2]).is_err(), "length mismatch accepted");
        assert!(s.restore_ids(vec![3, 2, 1]).is_err(), "unsorted accepted");
        assert!(s.restore_ids(vec![1, 2, 99]).is_err(), "out of range accepted");
        assert!(s.restore_ids(vec![5, 6, 7]).is_ok());
        assert_eq!(s.ids(), Some(&[5, 6, 7][..]));
    }

    #[test]
    fn derive_seed_depends_on_every_input() {
        let base = derive_seed(1, 2, 3);
        assert_ne!(base, derive_seed(2, 2, 3));
        assert_ne!(base, derive_seed(1, 3, 3));
        assert_ne!(base, derive_seed(1, 2, 4));
        assert_eq!(base, derive_seed(1, 2, 3));
    }

    #[test]
    fn item_scope_constructor_normalizes() {
        let s = ItemScope::rows(10, vec![7, 3, 3, 0]);
        assert_eq!(s, ItemScope::Rows { num_items: 10, ids: vec![0, 3, 7] });
        assert_eq!(s.num_items(), 10);
        assert_eq!(s.initial_rows(), 3);
        assert!(!s.is_full());
        assert!(ItemScope::Full(4).is_full());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn item_scope_rejects_out_of_range() {
        let _ = ItemScope::rows(5, vec![5]);
    }
}
