//! Row-sparse embedding tables with deterministic, bulk row movement.
//!
//! PTF-FedRec clients never transmit their models — and they also never
//! *touch* more than a sliver of the item space: positives, per-round
//! sampled negatives, and server-dispersed items. [`ScopeView`] makes that
//! contract explicit at model-construction time, and [`RowTable`] backs a
//! scoped model's item embeddings with a dense arena of only the rows in
//! scope plus a sorted id→row index ([`ScopeIndex`]).
//!
//! Two properties make scoped and full models interchangeable:
//!
//! * **Seed-derived per-row initialization.** Every row's initial value is
//!   a pure function of `(table seed, global item id)` via [`derive_seed`]
//!   — the same SplitMix-style derivation discipline as the federation
//!   scheduler's RNG streams. A `Rows`-scoped table and a `Full` table
//!   built from the same seed hold bit-identical values on every shared
//!   row, so scoped and full runs stay bit-comparable.
//! * **Rows grown before each round, order-independently.** A client
//!   materializes the sorted union of the rows its next round touches in
//!   one merge pass ([`RowTable::ensure_many`]) and evicts cold rows in
//!   one compaction pass ([`RowTable::retain_ids`]); nothing creates a
//!   row one at a time. Because the init depends only on the id, *when*
//!   and *in which batch* a row materializes cannot change its contents.
//!   Rows are kept sorted by global id so iteration (and
//!   graph-propagation summation order) matches a full table's.
//! * **The table's own growth decides its layout.** A growth step that
//!   would leave a seed-derived sparse table holding at least as many
//!   bytes as its dense table grows it dense instead ([`grows_dense`]):
//!   every absent row materializes in the same merge plan
//!   ([`ScopeIndex::densify`]) and the id list goes. Dense tables never
//!   turn sparse again. Zero-initialized tables never promote: for them
//!   an absent row means "untouched".
//!
//! Growth into reserved capacity performs **zero heap allocations**.

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

/// Which item-embedding rows a model holds: what a scoped constructor
/// takes and what `Recommender::item_scope` reports.
///
/// `Full(n)` is the classic dense table over an `n`-item catalogue;
/// `Rows` lists the sorted, unique, global ids a row-scoped model holds
/// out of `num_items` (ids stay global: scoping changes storage, not the
/// id space). Consumers that would iterate `0..num_items` — upload
/// staging, parameter accounting, state export — iterate the scope
/// instead, so a scoped client never pays for rows it cannot touch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScopeView<'a> {
    /// Every item of an `n`-item catalogue.
    Full(usize),
    /// Only `ids` (sorted ascending, unique, all `< num_items`).
    Rows { num_items: usize, ids: &'a [u32] },
}

impl<'a> ScopeView<'a> {
    /// Total catalogue size (the model's global `num_items`).
    pub fn num_items(&self) -> usize {
        match self {
            Self::Full(n) => *n,
            Self::Rows { num_items, .. } => *num_items,
        }
    }

    /// Number of held item rows.
    pub fn len(&self) -> usize {
        match self {
            Self::Full(n) => *n,
            Self::Rows { ids, .. } => ids.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn is_full(&self) -> bool {
        matches!(self, Self::Full(_))
    }

    /// Iterates the held global item ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        let (range, ids) = match *self {
            Self::Full(n) => (0..n as u32, [].as_slice()),
            Self::Rows { ids, .. } => (0..0, ids),
        };
        range.chain(ids.iter().copied())
    }

    /// True if `id` is held.
    pub fn contains(&self, id: u32) -> bool {
        match self {
            Self::Full(n) => (id as usize) < *n,
            Self::Rows { ids, .. } => ids.binary_search(&id).is_ok(),
        }
    }
}

/// The growth-time layout rule of every seed-derived table: a sparse
/// table whose blocks would have room for `rows` item rows of
/// `row_bytes` each after a growth step, plus a 4-byte id per row, grows
/// dense instead once that reaches the `num_items × row_bytes` of the
/// dense table. `rows` is the capacity the table's own growth policy
/// gives it, as a function of the rows it holds, so the decision never
/// depends on how a table's buffers were allocated before (a restored
/// table decides as the one it was parked from).
pub fn grows_dense(rows: usize, row_bytes: usize, num_items: usize) -> bool {
    rows * (row_bytes + std::mem::size_of::<u32>()) >= num_items * row_bytes
}

/// Sorted id→row index of a scoped table.
///
/// `Full` scopes use the dense identity mapping (no index storage, O(1)
/// lookups); `Rows` scopes keep the materialized global ids sorted so
/// lookup is a binary search and row order is monotone in global id —
/// which keeps float summation order (graph propagation, delta
/// aggregation) identical between scoped and full tables.
///
/// Rows move only in bulk: [`ScopeIndex::merge_in`] is the one way a row
/// appears and [`ScopeIndex::retain`] the one way it leaves. Both report
/// every row that parallel storage must move or (re)initialize through
/// the same `place(from, to, id)` callback.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScopeIndex {
    num_items: usize,
    /// `None` = dense identity over `0..num_items`.
    ids: Option<Vec<u32>>,
}

impl ScopeIndex {
    /// The index of `scope`.
    ///
    /// # Panics
    /// If a `Rows` scope's ids are unsorted, repeated or out of range.
    pub fn new(scope: ScopeView<'_>) -> Self {
        let num_items = scope.num_items();
        let ids = match scope {
            ScopeView::Full(_) => None,
            ScopeView::Rows { ids, .. } => {
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "scope ids must be sorted and unique");
                if let Some(&last) = ids.last() {
                    assert!(
                        (last as usize) < num_items,
                        "scope id {last} out of range ({num_items} items)"
                    );
                }
                Some(ids.to_vec())
            }
        };
        Self { num_items, ids }
    }

    /// The scope this index maps.
    pub fn view(&self) -> ScopeView<'_> {
        match &self.ids {
            None => ScopeView::Full(self.num_items),
            Some(ids) => ScopeView::Rows { num_items: self.num_items, ids },
        }
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

    /// Heap bytes of the id list (none for the dense identity).
    pub fn heap_bytes(&self) -> usize {
        self.ids.as_ref().map_or(0, |ids| ids.capacity() * std::mem::size_of::<u32>())
    }

    /// Makes room for `rows` ids in all, exactly (a no-op when dense or
    /// when the room is there), so a merge up to that count allocates
    /// nothing.
    pub fn reserve(&mut self, rows: usize) {
        if let Some(ids) = &mut self.ids {
            if rows > ids.capacity() {
                ids.reserve_exact(rows - ids.len());
            }
        }
    }

    /// Row index of `id`, if materialized.
    pub fn lookup(&self, id: u32) -> Option<usize> {
        debug_assert!((id as usize) < self.num_items, "item {id} out of range");
        match &self.ids {
            None => Some(id as usize),
            Some(ids) => ids.binary_search(&id).ok(),
        }
    }

    /// Row index of `id`, which must be materialized: a row that is
    /// trained on was grown beforehand, never on first touch.
    ///
    /// # Panics
    /// If `id` was never materialized, naming it.
    #[inline(always)]
    pub fn row_of(&self, id: u32) -> usize {
        self.lookup(id).unwrap_or_else(|| panic!("item {id} was not prepared"))
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
    /// movement. Parallel row storage, already grown by `absent` rows,
    /// follows through `place(from, to, id)`, called in descending `to`
    /// order: `Some(from)` moves old row `from` to `to`, `None` puts the
    /// fresh row of `id` at `to`. Rows that keep their position are not
    /// reported.
    pub fn merge_in(
        &mut self,
        sorted_ids: &[u32],
        absent: usize,
        mut place: impl FnMut(Option<usize>, usize, u32),
    ) {
        let Some(ids) = &mut self.ids else { return };
        let old_rows = ids.len();
        ids.reserve_exact(absent);
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

    /// Turns a sparse index into the dense identity: the plan of
    /// [`ScopeIndex::merge_in`] over every id of the catalogue, without
    /// building that id list. Parallel storage, already grown to
    /// `num_items` rows, follows through the same `place(from, to, id)`
    /// calls in the same descending `to` order — old row `from` moves to
    /// row `id`, every absent id gets its fresh row — and the id list is
    /// dropped. A no-op on a dense index.
    pub fn densify(&mut self, mut place: impl FnMut(Option<usize>, usize, u32)) {
        let Some(ids) = self.ids.take() else { return };
        // rows at `end` and above are placed; an old row already at its
        // id's row closes the plan, since every row below it is too
        let mut end = self.num_items;
        for (from, &id) in ids.iter().enumerate().rev() {
            let to = id as usize;
            for fresh in (to + 1..end).rev() {
                place(None, fresh, fresh as u32);
            }
            if from == to {
                return;
            }
            place(Some(from), to, id);
            end = to;
        }
        for fresh in (0..end).rev() {
            place(None, fresh, fresh as u32);
        }
    }

    /// The compaction plan, counterpart of [`ScopeIndex::merge_in`]:
    /// evicts every row whose id is not in `keep_sorted` (ascending,
    /// unique) and returns how many rows were dropped or reset.
    ///
    /// A sparse index compacts in **one forward pass**; parallel storage
    /// follows through `place(Some(from), to, id)`, called in ascending
    /// `to` order for each kept row that moves, and then truncates to
    /// [`ScopeIndex::len`] rows. The dense identity cannot drop rows:
    /// `place(None, row, id)` asks for each evicted row (row `id`) to be
    /// reset to its fresh state — the same call `merge_in` makes for a
    /// fresh row, so both representations land in the same state.
    pub fn retain(
        &mut self,
        keep_sorted: &[u32],
        mut place: impl FnMut(Option<usize>, usize, u32),
    ) -> usize {
        debug_assert!(
            keep_sorted.windows(2).all(|w| w[0] < w[1]),
            "keep ids must be sorted unique"
        );
        let mut k = 0usize;
        let mut kept = |id: u32| {
            while k < keep_sorted.len() && keep_sorted[k] < id {
                k += 1;
            }
            k < keep_sorted.len() && keep_sorted[k] == id
        };
        match &mut self.ids {
            None => {
                let mut reset = 0usize;
                for id in 0..self.num_items as u32 {
                    if !kept(id) {
                        place(None, id as usize, id);
                        reset += 1;
                    }
                }
                reset
            }
            Some(ids) => {
                let mut w = 0usize;
                for r in 0..ids.len() {
                    let id = ids[r];
                    if kept(id) {
                        if w != r {
                            ids[w] = id;
                            place(Some(r), w, id);
                        }
                        w += 1;
                    }
                }
                let removed = ids.len() - w;
                ids.truncate(w);
                removed
            }
        }
    }

    /// Global id of row `r`.
    pub fn id_of(&self, r: usize) -> u32 {
        match &self.ids {
            None => r as u32,
            Some(ids) => ids[r],
        }
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
        scope: ScopeView<'_>,
        cols: usize,
        init_cols: usize,
        std: f32,
        seed: u64,
    ) -> Self {
        assert!(init_cols <= cols, "init_cols {init_cols} > cols {cols}");
        let index = ScopeIndex::new(scope);
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
            index: ScopeIndex { num_items, ids: Some(Vec::new()) },
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

    /// [`ScopeIndex::row_of`].
    #[inline(always)]
    pub fn row_of(&self, id: u32) -> usize {
        self.index.row_of(id)
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

    /// Heap bytes of the arena and the id list.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>() + self.index.heap_bytes()
    }

    /// Pre-reserves capacity for `additional` more materialized rows, so
    /// growing by that many allocates nothing.
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

    /// Materializes every id of `sorted_ids` (ascending, unique) that is
    /// not yet present, each with the table's init, in **one backward
    /// merge pass** ([`ScopeIndex::merge_in`]): O(rows + new) arena
    /// movement. Returns the number of rows materialized; zero when
    /// everything was already present (and then the call is free).
    ///
    /// The arena grows exactly, so a seed-derived table that would hold
    /// at least [`grows_dense`]'s share of the catalogue (≈ 97 % at 33
    /// columns) grows dense instead, materializing every absent row.
    pub fn ensure_many(&mut self, sorted_ids: &[u32]) -> usize {
        self.ensure_many_with(sorted_ids, |_, _| {})
    }

    /// [`RowTable::ensure_many`] whose fresh rows are then passed to
    /// `fill(id, row)` — copy-on-first-touch: the FCF/MetaMF clients seed
    /// their local rows from the server's current values.
    pub fn ensure_many_with(
        &mut self,
        sorted_ids: &[u32],
        mut fill: impl FnMut(u32, &mut [f32]),
    ) -> usize {
        let new_count = self.index.count_absent(sorted_ids);
        if new_count == 0 {
            return 0;
        }
        let (cols, init, old_rows) = (self.cols, self.init, self.rows());
        let row_bytes = cols * std::mem::size_of::<f32>();
        let derived = matches!(init, RowInit::DerivedNormal { .. });
        let promotes = derived && grows_dense(old_rows + new_count, row_bytes, self.num_items());
        let grown = if promotes { self.num_items() - old_rows } else { new_count };
        if promotes {
            // the id list is about to go: only the arena needs the room
            self.data.reserve_exact(grown * cols);
        } else {
            self.reserve_rows(grown);
        }
        let data = &mut self.data;
        data.resize(data.len() + grown * cols, 0.0);
        let place = |from: Option<usize>, to: usize, id: u32| {
            place_row(data, cols, init, from, to, id);
            if from.is_none() {
                fill(id, &mut data[to * cols..(to + 1) * cols]);
            }
        };
        if promotes {
            self.index.densify(place);
        } else {
            self.index.merge_in(sorted_ids, new_count, place);
        }
        debug_assert!(
            !derived || self.is_dense() || self.heap_bytes() < self.num_items() * row_bytes,
            "a sparse table outgrew its dense size"
        );
        grown
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
    /// row re-materializes bit-identically, because its init is a pure
    /// function of `(table seed, id)`. Sparse tables compact the arena in
    /// one forward pass ([`ScopeIndex::retain`]); dense tables reset the
    /// evicted rows in place to their derived init — the
    /// representation-independent meaning of "row state is back to init".
    pub fn retain_ids(&mut self, keep_sorted: &[u32]) -> usize {
        let (cols, init) = (self.cols, self.init);
        let data = &mut self.data;
        let removed = self
            .index
            .retain(keep_sorted, |from, to, id| place_row(data, cols, init, from, to, id));
        data.truncate(self.index.len() * cols);
        removed
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

/// One step of a [`ScopeIndex`] plan over a row-major arena: `Some(from)`
/// moves row `from` to `to`, `None` writes `id`'s fresh init at `to`.
fn place_row(
    data: &mut [f32],
    cols: usize,
    init: RowInit,
    from: Option<usize>,
    to: usize,
    id: u32,
) {
    match from {
        Some(from) => data.copy_within(from * cols..(from + 1) * cols, to * cols),
        None => fill_row(init, id, &mut data[to * cols..(to + 1) * cols]),
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
/// ≥ 2⁵³ — and a rounded seed would re-derive *different* rows after
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
        let mut ids = w.ids;
        // exact, as the table's own growth would have left it
        ids.iter_mut().for_each(Vec::shrink_to_fit);
        Ok(Self { index: ScopeIndex { num_items: w.num_items, ids }, cols: w.cols, init, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scoped(ids: &[u32]) -> RowTable {
        RowTable::from_scope(ScopeView::Rows { num_items: 20, ids }, 4, 3, 0.1, 77)
    }

    fn full(n: usize) -> RowTable {
        RowTable::from_scope(ScopeView::Full(n), 4, 3, 0.1, 77)
    }

    /// The oracle for [`RowTable::ensure_many`]: one row at a time,
    /// shifting the arena tail once per fresh id.
    fn ensure_one(t: &mut RowTable, id: u32) -> usize {
        let Some(ids) = &mut t.index.ids else { return id as usize };
        let Err(p) = ids.binary_search(&id) else { return t.lookup(id).unwrap() };
        ids.insert(p, id);
        let at = p * t.cols;
        t.data.splice(at..at, std::iter::repeat_n(0.0, t.cols));
        fill_row(t.init, id, &mut t.data[at..at + t.cols]);
        p
    }

    /// The oracle for [`RowTable::retain_ids`]: one victim at a time —
    /// removed, with the arena tail shifted up, from a sparse table, and
    /// reset to its init in a dense one.
    fn evict_one(t: &mut RowTable, id: u32) {
        let r = t.lookup(id).unwrap();
        let cols = t.cols;
        match &mut t.index.ids {
            Some(ids) => {
                ids.remove(r);
                t.data.drain(r * cols..(r + 1) * cols);
            }
            None => fill_row(t.init, id, &mut t.data[r * cols..(r + 1) * cols]),
        }
    }

    #[test]
    fn full_and_rows_share_row_values() {
        let full = full(20);
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
        a.ensure_many(&[10]);
        a.ensure_many(&[7]);
        b.ensure_many(&[7, 10]);
        assert_eq!(a, b);
        assert_eq!(a.ids(), Some(&[3, 7, 10][..]));
        // and both match the full table on every shared row
        let full = full(20);
        for &id in &[3u32, 7, 10] {
            assert_eq!(a.row(a.lookup(id).unwrap()), full.row(id as usize));
        }
    }

    #[test]
    fn ensure_keeps_rows_sorted_and_shifts_arena() {
        let mut t = scoped(&[5, 10]);
        let before_5 = t.row(t.lookup(5).unwrap()).to_vec();
        let before_10 = t.row(t.lookup(10).unwrap()).to_vec();
        assert_eq!(t.ensure_many(&[7]), 1);
        assert_eq!(t.ids(), Some(&[5, 7, 10][..]));
        assert_eq!(t.lookup(7), Some(1));
        assert_eq!(t.row(0), &before_5[..], "existing row moved bytes");
        assert_eq!(t.row(2), &before_10[..], "shifted row moved bytes");
        assert_eq!(t.ensure_many(&[7]), 0);
    }

    #[test]
    fn ensure_many_matches_one_by_one() {
        let mut batch = scoped(&[4, 9]);
        let mut single = scoped(&[4, 9]);
        let wanted = [1u32, 4, 6, 9, 15, 19];
        assert_eq!(batch.ensure_many(&wanted), 4);
        for &id in &wanted {
            ensure_one(&mut single, id);
        }
        assert_eq!(batch, single);
        // idempotent and free the second time
        assert_eq!(batch.ensure_many(&wanted), 0);
        assert_eq!(batch, single);
        // dense tables are a no-op
        let mut dense = full(20);
        assert_eq!(dense.ensure_many(&wanted), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The compaction plan leaves ids and every row exactly as
        /// evicting the victims one at a time does, on dense and sparse
        /// tables, and a later growth pass finds both in the same state.
        #[test]
        fn compaction_equals_victim_by_victim_removal(
            dense in any::<bool>(),
            held in collection::btree_set(0u32..20, 0..12),
            keep in collection::btree_set(0u32..20, 0..12),
            touch in collection::btree_set(0u32..20, 0..8),
        ) {
            let held: Vec<u32> = held.into_iter().collect();
            let keep: Vec<u32> = keep.into_iter().collect();
            let mut plan = if dense { full(20) } else { scoped(&held) };
            for (r, x) in plan.data.iter_mut().enumerate() {
                *x += r as f32; // trained rows, so a row out of place shows
            }
            let mut by_victim = plan.clone();
            let victims: Vec<u32> =
                plan.index.view().iter().filter(|id| keep.binary_search(id).is_err()).collect();
            prop_assert_eq!(plan.retain_ids(&keep), victims.len());
            for &id in &victims {
                evict_one(&mut by_victim, id);
            }
            prop_assert_eq!(&plan, &by_victim);
            let touch: Vec<u32> = touch.into_iter().collect();
            plan.ensure_many(&touch);
            by_victim.ensure_many(&touch);
            prop_assert_eq!(plan, by_victim);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `densify` is `merge_in` over the whole catalogue, call for
        /// call, without the id list.
        #[test]
        fn densify_is_the_merge_plan_of_every_id(
            held in collection::btree_set(0u32..30, 0..30),
        ) {
            let held: Vec<u32> = held.into_iter().collect();
            let all: Vec<u32> = (0..30).collect();
            let mut merged = ScopeIndex::new(ScopeView::Rows { num_items: 30, ids: &held });
            let mut dense = merged.clone();
            let (mut plan, mut by_merge) = (Vec::new(), Vec::new());
            let absent = merged.count_absent(&all);
            merged.merge_in(&all, absent, |from, to, id| by_merge.push((from, to, id)));
            dense.densify(|from, to, id| plan.push((from, to, id)));
            prop_assert_eq!(plan, by_merge);
            prop_assert_eq!(merged.ids(), Some(&all[..]));
            prop_assert!(dense.is_dense());
        }

        /// Growth in random batches, with compactions between them: a
        /// seed-derived table holds fewer bytes than its dense table until
        /// the batch that crosses [`grows_dense`] turns it dense, with every
        /// row the values a dense table of the seed holds; a zeroed table
        /// never promotes.
        #[test]
        fn growth_promotes_at_the_rule_and_stays_below_dense_before(
            batches in collection::vec(
                (collection::btree_set(0u32..20, 0..12), collection::btree_set(0u32..20, 0..12)),
                1..6,
            ),
        ) {
            let mut t = scoped(&[3]);
            let mut zeroed = RowTable::sparse_zeroed(20, 4);
            let mut crossed = false;
            for (grow, keep) in batches {
                let grow: Vec<u32> = grow.into_iter().collect();
                if !t.is_dense() && t.index.count_absent(&grow) > 0 {
                    crossed |= grows_dense(t.rows() + t.index.count_absent(&grow), 16, 20);
                }
                t.ensure_many(&grow);
                zeroed.ensure_many(&grow);
                prop_assert_eq!(t.is_dense(), crossed);
                prop_assert!(crossed || t.heap_bytes() < 20 * 16);
                prop_assert!(!zeroed.is_dense());
                let fresh = full(20);
                for (id, row) in t.iter() {
                    prop_assert_eq!(row, fresh.row(id as usize));
                }
                let keep: Vec<u32> = keep.into_iter().collect();
                t.retain_ids(&keep);
                zeroed.retain_ids(&keep);
            }
        }
    }

    #[test]
    fn with_row_cold_equals_materialized() {
        let mut t = scoped(&[1]);
        let cold = t.with_row(9, <[f32]>::to_vec);
        t.ensure_many(&[9]);
        let r = t.lookup(9).unwrap();
        assert_eq!(t.row(r), &cold[..], "cold values must equal the materialized init");
    }

    #[test]
    fn materialization_into_reserved_capacity_allocates_nothing() {
        let mut t = scoped(&[0]);
        t.reserve_rows(12);
        let before = crate::alloc::thread_allocs();
        for id in 1..10 {
            t.ensure_many(&[id]);
        }
        // the shim is only live in binaries that install it; in unit tests
        // both readings are 0 — the assertion is vacuous there but real in
        // tests/hot_path.rs, which runs the same path under the shim
        assert_eq!(crate::alloc::thread_allocs(), before, "reserved growth must not allocate");
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
        t.ensure_many(&[9]);
        assert_eq!(
            t.row(t.lookup(9).unwrap()),
            twin.row(0),
            "re-materialization must be reproducible"
        );
        // keeping everything is a no-op
        assert_eq!(t.retain_ids(&[5, 9, 13]), 0);
    }

    #[test]
    fn retain_ids_resets_dense_seed_derived_rows_in_place() {
        let mut dense = full(20);
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
    fn zeroed_accumulator_and_ensure_with() {
        let mut t = RowTable::sparse_zeroed(10, 3);
        let filled = t.ensure_many_with(&[4, 8], |id, row| {
            if id == 4 {
                row.copy_from_slice(&[1.0, 2.0, 3.0]);
            }
        });
        assert_eq!(filled, 2);
        assert_eq!(t.row(t.lookup(4).unwrap()), &[1.0, 2.0, 3.0]);
        assert_eq!(t.row(t.lookup(8).unwrap()), &[0.0, 0.0, 0.0]);
        // held rows keep their values: only fresh rows are filled
        t.ensure_many_with(&[4, 6], |_, row| row.copy_from_slice(&[9.0, 9.0, 9.0]));
        assert_eq!(t.row(t.lookup(4).unwrap()), &[1.0, 2.0, 3.0]);
        assert_eq!(t.row(t.lookup(6).unwrap()), &[9.0, 9.0, 9.0]);
    }

    #[test]
    fn serde_roundtrip_sparse_and_dense() {
        let mut t = scoped(&[2, 8]);
        t.ensure_many(&[5]);
        let json = serde_json::to_string(&t).unwrap();
        let back: RowTable = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
        // a restored table still materializes identically
        let mut a = back.clone();
        let mut b = t.clone();
        assert_eq!(a.ensure_many(&[11]), b.ensure_many(&[11]));
        assert_eq!(a, b);

        let mut d = RowTable::from_scope(ScopeView::Full(3), 2, 1, 0.1, 77);
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
        let dense = ScopeIndex::new(ScopeView::Full(4));
        assert_eq!(dense.lookup(3), Some(3));
        assert_eq!(dense.len(), 4);
        assert_eq!(dense.view(), ScopeView::Full(4));

        let s = ScopeIndex::new(ScopeView::Rows { num_items: 10, ids: &[2, 4] });
        assert_eq!(s.ids(), Some(&[2, 4][..]));
        assert_eq!(s.lookup(3), None);
        assert_eq!(s.lookup(4), Some(1));
        assert_eq!(s.id_of(1), 4);
        assert_eq!(s.view(), ScopeView::Rows { num_items: 10, ids: &[2, 4] });
        assert_eq!(s.count_absent(&[1, 2, 3]), 2);
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
    #[should_panic(expected = "out of range")]
    fn item_scope_rejects_out_of_range() {
        let _ = ScopeIndex::new(ScopeView::Rows { num_items: 5, ids: &[5] });
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn item_scope_rejects_unsorted_ids() {
        let _ = ScopeIndex::new(ScopeView::Rows { num_items: 10, ids: &[7, 3] });
    }
}
