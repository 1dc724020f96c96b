//! Row-sparse embedding tables with deterministic, bulk row movement.
//!
//! PTF-FedRec clients never transmit their models — and they also never
//! *touch* more than a sliver of the item space: positives, per-round
//! sampled negatives, and server-dispersed items. [`ScopeView`] makes that
//! contract explicit at model-construction time, and [`ItemRows`] backs a
//! scoped model's item state with dense planes of only the rows in scope
//! plus a sorted id→row index ([`ScopeIndex`]). It is every model's one
//! item store: [`RowTable`] is it over one plane, and the Adam-trained
//! models put their embedding rows and both moment buffers in three.
//!
//! Three properties make scoped and full models interchangeable:
//!
//! * **Seed-derived per-row initialization.** Every row's initial value is
//!   a pure function of `(table seed, global item id)` via [`derive_seed`]
//!   — the same SplitMix-style derivation discipline as the federation
//!   scheduler's RNG streams. A `Rows`-scoped table and a `Full` table
//!   built from the same seed hold bit-identical values on every shared
//!   row, so scoped and full runs stay bit-comparable.
//! * **Rows grown before each round, order-independently.** A client
//!   materializes the sorted union of the rows its next round touches in
//!   one merge pass ([`ItemRows::grow`]) and evicts cold rows in one
//!   compaction pass ([`ItemRows::retain`]); nothing creates a row one at
//!   a time. Because the init depends only on the id, *when*
//!   and *in which batch* a row materializes cannot change its contents.
//!   Rows are kept sorted by global id so iteration (and
//!   graph-propagation summation order) matches a full table's.
//! * **The table's own growth decides its layout.** Growth is exact, and
//!   a growth step that would leave a seed-derived sparse table holding
//!   at least as many bytes as its dense table grows it dense instead
//!   ([`grows_dense`]):
//!   every absent row materializes in the same merge plan
//!   ([`ScopeIndex::densify`]) and the id list goes. Dense tables never
//!   turn sparse again. Zero-initialized tables never promote: for them
//!   an absent row means "untouched".
//!
//! Growth into reserved capacity performs **zero heap allocations**.

use crate::matrix::Matrix;
use crate::packed::{Reader, Writer};

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
        let ids = match scope {
            ScopeView::Full(_) => None,
            ScopeView::Rows { ids, .. } => Some(ids.to_vec()),
        };
        Self::checked(scope.num_items(), ids).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The index of `num_items` items that holds `ids` (`None`: every
    /// item), its id list sized exactly as the table's own growth would
    /// leave it, or why `ids` cannot be one: what a restored envelope
    /// goes through.
    pub fn checked(num_items: usize, mut ids: Option<Vec<u32>>) -> Result<Self, String> {
        if let Some(ids) = &mut ids {
            if !ids.windows(2).all(|w| w[0] < w[1]) {
                return Err("scope ids must be sorted and unique".to_string());
            }
            if let Some(&last) = ids.last().filter(|&&last| last as usize >= num_items) {
                return Err(format!("scope id {last} out of range ({num_items} items)"));
            }
            ids.shrink_to_fit();
        }
        Ok(Self { num_items, ids })
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
    #[inline]
    pub fn id_of(&self, r: usize) -> u32 {
        match &self.ids {
            None => r as u32,
            Some(ids) => ids[r],
        }
    }
}

/// How an [`ItemRows`] store fills a fresh row of its first plane; every
/// other plane's fresh row starts at zero.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RowInit {
    /// All-zero rows (delta/accumulator tables). A table of them never
    /// promotes: an absent row means "untouched".
    Zeros,
    /// First `init_cols` entries i.i.d. `N(0, std²)` from the row's
    /// derived seed; trailing columns (e.g. a bias column) start at zero.
    DerivedNormal { seed: u64, std: f32, init_cols: usize },
}

impl RowInit {
    /// Writes the fresh values of item `id` into `out`.
    pub fn fill(self, id: u32, out: &mut [f32]) {
        match self {
            Self::Zeros => out.fill(0.0),
            Self::DerivedNormal { seed, std, init_cols } => {
                crate::init::derived_normal_row(seed, id, std, &mut out[..init_cols]);
                out[init_cols..].fill(0.0);
            }
        }
    }

    /// The fresh rows, `cols` wide, of every item `scope` holds.
    pub fn rows(self, scope: ScopeView<'_>, cols: usize) -> Matrix {
        let mut m = Matrix::zeros(scope.len(), cols);
        for (r, id) in scope.iter().enumerate() {
            self.fill(id, m.row_mut(r));
        }
        m
    }
}

/// The item rows of a model, over `K` planes whose rows move together:
/// a [`ScopeIndex`], how a fresh row starts, and `lead` rows that come
/// before the item block in every plane (a graph model's user rows).
///
/// The planes stay with their owner, as [`Matrix`]es
/// where its math wants them: [`RowTable`] holds one (`K = 1`), an
/// Adam-trained model its embedding parameter and both moment buffers
/// (`K = 3`). Everything that moves a row is here: the one growth policy
/// (exact: room for the rows held, no headroom), the [`grows_dense`]
/// promotion, the row mover the [`ScopeIndex`] plans drive, the
/// compaction's truncation, and the heap accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct ItemRows {
    index: ScopeIndex,
    init: RowInit,
    lead: usize,
}

impl ItemRows {
    /// The rows `index` holds, behind `lead` rows, whose planes the
    /// caller built with `init` in every held row.
    pub fn new(index: ScopeIndex, init: RowInit, lead: usize) -> Self {
        Self { index, init, lead }
    }

    pub fn index(&self) -> &ScopeIndex {
        &self.index
    }

    pub fn init(&self) -> RowInit {
        self.init
    }

    /// Rows before the item block in every plane.
    pub fn lead(&self) -> usize {
        self.lead
    }

    /// Plane row of a *materialized* item.
    pub fn lookup(&self, id: u32) -> Option<usize> {
        self.index.lookup(id).map(|r| self.lead + r)
    }

    /// Plane row of an item that must be materialized
    /// ([`ScopeIndex::row_of`]).
    #[inline(always)]
    pub fn row_of(&self, id: u32) -> usize {
        self.lead + self.index.row_of(id)
    }

    /// The first plane's values of item `id` while it is not materialized.
    pub fn cold_row(&self, id: u32, out: &mut [f32]) {
        self.init.fill(id, out);
    }

    /// Heap bytes of the planes and the id list (the leading rows
    /// included, which a dense table holds too).
    pub fn heap_bytes<const K: usize>(&self, planes: [&Matrix; K]) -> usize {
        let floats: usize = planes.iter().map(|p| p.capacity()).sum();
        floats * std::mem::size_of::<f32>() + self.index.heap_bytes()
    }

    /// Makes room for `rows` item rows in all (at most the catalogue), so
    /// growing to that count allocates nothing.
    pub fn reserve<const K: usize>(&mut self, planes: [&mut Matrix; K], rows: usize) {
        let rows = rows.min(self.index.num_items());
        for p in planes {
            p.reserve_rows(self.lead + rows);
        }
        self.index.reserve(rows);
    }

    /// Materializes every id of `sorted_ids` (ascending, unique) not held
    /// yet in **one backward merge pass** ([`ScopeIndex::merge_in`]):
    /// O(rows + new) movement in every plane. A fresh row gets the init in
    /// its first plane, then `fill(id, row)` there (copy-on-first-touch),
    /// and zeros in the rest. Returns how many rows were added; zero, and
    /// free, when everything was held.
    ///
    /// Growth is exact, so a seed-derived table that would reach
    /// [`grows_dense`]'s share of the catalogue grows dense instead: every
    /// absent row materializes in the same plan ([`ScopeIndex::densify`])
    /// and the id list goes.
    pub fn grow<const K: usize>(
        &mut self,
        mut planes: [&mut Matrix; K],
        sorted_ids: &[u32],
        mut fill: impl FnMut(u32, &mut [f32]),
    ) -> usize {
        let fresh = self.index.count_absent(sorted_ids);
        if fresh == 0 {
            return 0;
        }
        let (held, num_items) = (self.index.len(), self.index.num_items());
        let row_bytes = planes.iter().map(|p| p.cols()).sum::<usize>() * std::mem::size_of::<f32>();
        let derived = matches!(self.init, RowInit::DerivedNormal { .. });
        let promotes = derived && grows_dense(held + fresh, row_bytes, num_items);
        let rows = if promotes { num_items } else { held + fresh };
        for p in planes.iter_mut() {
            p.reserve_rows(self.lead + rows);
            p.push_zero_rows(rows - held);
        }
        let place = mover(self.lead, self.init, &mut planes, &mut fill);
        if promotes {
            self.index.densify(place);
        } else {
            self.index.merge_in(sorted_ids, fresh, place);
        }
        debug_assert!(
            !derived
                || self.index.is_dense()
                || self.heap_bytes(planes.each_ref().map(|p| &**p))
                    < (self.lead + num_items) * row_bytes,
            "a sparse table outgrew its dense size"
        );
        rows - held
    }

    /// Evicts every row whose id is not in `keep_sorted` (ascending,
    /// unique) in **one compaction pass** ([`ScopeIndex::retain`]) and
    /// returns how many rows were dropped or reset.
    ///
    /// Eviction is *semantically free* on seed-derived tables: a dropped
    /// row re-materializes bit-identically. A sparse table moves its kept
    /// rows up in every plane and truncates them; a dense one resets each
    /// evicted row in place to its fresh state, which is where a sparse
    /// table's row starts when it comes back.
    pub fn retain<const K: usize>(
        &mut self,
        mut planes: [&mut Matrix; K],
        keep_sorted: &[u32],
    ) -> usize {
        let removed = self
            .index
            .retain(keep_sorted, mover(self.lead, self.init, &mut planes, &mut |_, _| {}));
        for p in planes {
            p.truncate_rows(self.lead + self.index.len());
        }
        removed
    }
}

/// The `place(from, to, id)` step of a [`ScopeIndex`] plan over `planes`,
/// whose item rows start `lead` rows in: `Some(from)` moves a row in
/// every plane, `None` writes `id`'s fresh row (`init`, then `fill`, in
/// the first plane; zeros in the rest).
fn mover<'a, const K: usize>(
    lead: usize,
    init: RowInit,
    planes: &'a mut [&mut Matrix; K],
    fill: &'a mut impl FnMut(u32, &mut [f32]),
) -> impl FnMut(Option<usize>, usize, u32) + 'a {
    let cols = planes.each_ref().map(|p| p.cols());
    let mut data = planes.each_mut().map(|p| p.as_mut_slice());
    move |from, to, id| {
        for (k, (plane, &c)) in data.iter_mut().zip(&cols).enumerate() {
            let at = (lead + to) * c;
            match from {
                Some(from) => plane.copy_within((lead + from) * c..(lead + from + 1) * c, at),
                None if k == 0 => {
                    init.fill(id, &mut plane[at..at + c]);
                    fill(id, &mut plane[at..at + c]);
                }
                None => plane[at..at + c].fill(0.0),
            }
        }
    }
}

/// A row-sparse embedding table: [`ItemRows`] over one plane, the
/// materialized rows sorted by global item id.
///
/// See the module docs for the determinism contract. The plane grows
/// exactly ([`ItemRows::grow`]), so a client fleet's peak heap stays
/// close to the sum of touched rows.
#[derive(Clone, Debug, PartialEq)]
pub struct RowTable {
    rows: ItemRows,
    /// Row-major, `index.len() × cols`.
    data: Matrix,
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
    ///
    /// # Panics
    /// If `init_cols > cols`, or `std` is not finite and non-negative
    /// (the row init's own condition, checked here so that every table
    /// can write its state).
    pub fn from_scope(
        scope: ScopeView<'_>,
        cols: usize,
        init_cols: usize,
        std: f32,
        seed: u64,
    ) -> Self {
        assert!(init_cols <= cols, "init_cols {init_cols} > cols {cols}");
        assert!(std.is_finite() && std >= 0.0, "std must be finite and non-negative: {std}");
        let init = RowInit::DerivedNormal { seed, std, init_cols };
        Self { rows: ItemRows::new(ScopeIndex::new(scope), init, 0), data: init.rows(scope, cols) }
    }

    /// A sparse zero-initialized table with no materialized rows — the
    /// accumulator shape (per-client item deltas, gradient staging).
    pub fn sparse_zeroed(num_items: usize, cols: usize) -> Self {
        let index = ScopeIndex { num_items, ids: Some(Vec::new()) };
        Self { rows: ItemRows::new(index, RowInit::Zeros, 0), data: Matrix::zeros(0, cols) }
    }

    pub fn num_items(&self) -> usize {
        self.rows.index.num_items()
    }

    pub fn cols(&self) -> usize {
        self.data.cols()
    }

    /// Materialized row count.
    pub fn rows(&self) -> usize {
        self.rows.index.len()
    }

    /// Materialized scalar count (the table's parameter count).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn index(&self) -> &ScopeIndex {
        &self.rows.index
    }

    pub fn lookup(&self, id: u32) -> Option<usize> {
        self.rows.lookup(id)
    }

    /// [`ScopeIndex::row_of`].
    #[inline(always)]
    pub fn row_of(&self, id: u32) -> usize {
        self.rows.row_of(id)
    }

    pub fn row(&self, r: usize) -> &[f32] {
        self.data.row(r)
    }

    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        self.data.row_mut(r)
    }

    /// Iterates `(global id, row)` in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[f32])> {
        (0..self.rows()).map(|r| (self.rows.index.id_of(r), self.row(r)))
    }

    /// [`ItemRows::heap_bytes`].
    pub fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes([&self.data])
    }

    /// Pre-reserves capacity for `additional` more materialized rows, so
    /// growing by that many allocates nothing.
    pub fn reserve_rows(&mut self, additional: usize) {
        let rows = self.rows() + additional;
        self.rows.reserve([&mut self.data], rows);
    }

    /// Materializes every id of `sorted_ids` not yet present
    /// ([`ItemRows::grow`]). Returns the number of rows materialized.
    pub fn ensure_many(&mut self, sorted_ids: &[u32]) -> usize {
        self.ensure_many_with(sorted_ids, |_, _| {})
    }

    /// [`RowTable::ensure_many`] whose fresh rows are then passed to
    /// `fill(id, row)` — copy-on-first-touch: the FCF/MetaMF clients seed
    /// their local rows from the server's current values.
    pub fn ensure_many_with(
        &mut self,
        sorted_ids: &[u32],
        fill: impl FnMut(u32, &mut [f32]),
    ) -> usize {
        self.rows.grow([&mut self.data], sorted_ids, fill)
    }

    /// The materialized rows, row-major (`rows() × cols()`): on a dense
    /// table, row `i` is item `i`.
    pub fn arena(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Evicts every row whose global id is not in `keep_sorted`
    /// ([`ItemRows::retain`]), returning how many rows were dropped.
    pub fn retain_ids(&mut self, keep_sorted: &[u32]) -> usize {
        self.rows.retain([&mut self.data], keep_sorted)
    }

    /// Runs `f` on row `id`: the materialized row if present, otherwise
    /// its init values computed into a thread-local scratch buffer (no
    /// table mutation, no steady-state allocation). `f` must not
    /// re-enter `with_row` on the same thread.
    pub fn with_row<R>(&self, id: u32, f: impl FnOnce(&[f32]) -> R) -> R {
        match self.lookup(id) {
            Some(r) => f(self.row(r)),
            None => COLD_ROW.with(|cell| {
                let mut buf = cell.borrow_mut();
                buf.clear();
                buf.resize(self.cols(), 0.0);
                self.rows.cold_row(id, &mut buf);
                f(&buf)
            }),
        }
    }
}

impl RowTable {
    /// Appends the table as `{"num_items":N,"cols":C,"ids":[…],"data":"…",
    /// "init_seed":"…","init_std":S,"init_cols":K}`: `ids` is `null` for
    /// a dense table, `data` the packed rows, and the seed 16 hex digits —
    /// a seed rounded through `f64` would re-derive *different* rows after
    /// a restore. A zero-initialized table writes seed, std and
    /// `init_cols` as zeros.
    pub fn write_state(&self, w: &mut Writer<'_>) {
        let (init_seed, init_std, init_cols) = match self.rows.init {
            RowInit::Zeros => (0, 0.0, 0),
            RowInit::DerivedNormal { seed, std, init_cols } => (seed, std, init_cols),
        };
        w.open();
        w.key("num_items");
        w.uint(self.num_items() as u64);
        w.key("cols");
        w.uint(self.cols() as u64);
        w.key("ids");
        w.u32s_or_null(self.rows.index.ids());
        w.key("data");
        w.f32s(self.arena());
        w.key("init_seed");
        w.hex16(init_seed);
        w.key("init_std");
        w.number(init_std);
        w.key("init_cols");
        w.uint(init_cols as u64);
        w.close();
    }

    /// Reads a [`RowTable::write_state`] object into this table, once
    /// `fits(num_items, cols)` accepts its shape. Shape and ordering
    /// invariants are re-validated: sorted in-range ids, a buffer of
    /// exactly `rows × cols` values, `init_cols ≤ cols`, a finite
    /// non-negative std. On error the table is left partly read.
    pub fn read_state(
        &mut self,
        r: &mut Reader<'_>,
        fits: impl FnOnce(usize, usize) -> Result<(), String>,
    ) -> Result<(), String> {
        r.open()?;
        r.key("num_items")?;
        let num_items = r.usize()?;
        r.key("cols")?;
        let cols = r.usize()?;
        fits(num_items, cols).map_err(|e| r.error(e))?;
        r.key("ids")?;
        let ids = r.u32s_or_null()?;
        let index = ScopeIndex::checked(num_items, ids).map_err(|e| r.error(e))?;
        r.key("data")?;
        let data = r.packed()?;
        self.data.unpack_from(index.len(), cols, &data, "row table", r, |_, _| Ok(()))?;
        r.key("init_seed")?;
        let seed = r.hex16()?;
        r.key("init_std")?;
        let std = r.number()?;
        // `derived_normal_row` panics on such a std the first time a row
        // is re-derived: reject it here, where the error can be reported
        if std < 0.0 {
            return Err(r.error("init_std must be finite and non-negative"));
        }
        r.key("init_cols")?;
        let init_cols = r.usize()?;
        if init_cols > cols {
            return Err(r.error("init_cols exceeds cols"));
        }
        let init = if std == 0.0 && seed == 0 && init_cols == 0 {
            RowInit::Zeros
        } else {
            RowInit::DerivedNormal { seed, std, init_cols }
        };
        self.rows = ItemRows::new(index, init, 0);
        r.close()
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

    /// Catalogue and row width of the [`Store`] suite.
    const N: usize = 24;
    const COLS: usize = 3;

    /// An [`ItemRows`] store over `k` planes of [`COLS`] columns behind
    /// `lead` rows, with every value trained away from its init so that a
    /// row out of place shows.
    #[derive(Clone, Debug, PartialEq)]
    struct Store {
        rows: ItemRows,
        planes: Vec<Matrix>,
    }

    impl Store {
        fn new(k: usize, lead: usize, derived: bool, scope: ScopeView<'_>, seed: u64) -> Self {
            let init = if derived {
                RowInit::DerivedNormal { seed, std: 0.1, init_cols: COLS - 1 }
            } else {
                RowInit::Zeros
            };
            let rows = ItemRows::new(ScopeIndex::new(scope), init, lead);
            let mut planes = vec![Matrix::zeros(lead + scope.len(), COLS); k];
            planes[0].as_mut_slice()[lead * COLS..]
                .copy_from_slice(init.rows(scope, COLS).as_slice());
            let mut s = Self { rows, planes };
            s.train(seed);
            s
        }

        /// Moves every value by an amount unique to its plane, row and
        /// column.
        fn train(&mut self, salt: u64) {
            for (p, plane) in self.planes.iter_mut().enumerate() {
                for (j, x) in plane.as_mut_slice().iter_mut().enumerate() {
                    *x += ((salt % 7) as usize + 3 * j + p) as f32 * 0.01;
                }
            }
        }

        fn row_bytes(&self) -> usize {
            self.planes.len() * COLS * 4
        }

        fn heap_bytes(&self) -> usize {
            match self.planes.as_slice() {
                [a] => self.rows.heap_bytes([a]),
                [a, b, c] => self.rows.heap_bytes([a, b, c]),
                _ => unreachable!(),
            }
        }

        fn dense_bytes(&self) -> usize {
            (self.rows.lead + N) * self.row_bytes()
        }

        fn grow(&mut self, ids: &[u32]) -> usize {
            match self.planes.as_mut_slice() {
                [a] => self.rows.grow([a], ids, |_, _| {}),
                [a, b, c] => self.rows.grow([a, b, c], ids, |_, _| {}),
                _ => unreachable!(),
            }
        }

        fn retain(&mut self, keep: &[u32]) -> usize {
            match self.planes.as_mut_slice() {
                [a] => self.rows.retain([a], keep),
                [a, b, c] => self.rows.retain([a, b, c], keep),
                _ => unreachable!(),
            }
        }

        /// Writes `id`'s fresh row at plane row `at` of every plane.
        fn reset(&mut self, at: usize, id: u32) {
            for (p, plane) in self.planes.iter_mut().enumerate() {
                let row = plane.row_mut(at);
                if p == 0 {
                    self.rows.init.fill(id, row);
                } else {
                    row.fill(0.0);
                }
            }
        }

        /// Rebuilds every plane with `edit` applied to its row-major data.
        fn reshape(&mut self, edit: impl Fn(&mut Vec<f32>)) {
            for plane in &mut self.planes {
                let mut data = plane.as_slice().to_vec();
                edit(&mut data);
                *plane = Matrix::from_vec(data.len() / COLS, COLS, data);
            }
        }

        /// The oracle of growth: one id at a time, shifting the tail of
        /// every plane once per fresh id.
        fn insert_one(&mut self, id: u32) {
            let Some(ids) = &mut self.rows.index.ids else { return };
            let Err(pos) = ids.binary_search(&id) else { return };
            ids.insert(pos, id);
            let at = self.rows.lead + pos;
            self.reshape(|data| drop(data.splice(at * COLS..at * COLS, [0.0; COLS])));
            self.reset(at, id);
        }

        /// The oracle of a whole growth batch: id by id, and when the
        /// batch crosses [`grows_dense`], every other absent id of the
        /// catalogue too, before the id list goes.
        fn grow_by_row(&mut self, ids: &[u32]) -> usize {
            let Some(held) = self.rows.index.ids().map(<[u32]>::len) else { return 0 };
            let rows = held + self.rows.index.count_absent(ids);
            let derived = matches!(self.rows.init, RowInit::DerivedNormal { .. });
            let promotes = derived && rows > held && self.crosses(rows);
            for &id in ids {
                self.insert_one(id);
            }
            if promotes {
                (0..N as u32).for_each(|id| self.insert_one(id));
                self.rows.index.ids = None;
            }
            self.rows.index.len() - held
        }

        /// The oracle of compaction: one victim at a time — removed, with
        /// the tail of every plane shifted up, from a sparse store; reset
        /// to its fresh row in a dense one.
        fn remove_one(&mut self, id: u32) {
            let at = self.rows.lookup(id).expect("victim is held");
            match &mut self.rows.index.ids {
                Some(ids) => {
                    ids.retain(|&x| x != id);
                    self.reshape(|data| drop(data.drain(at * COLS..(at + 1) * COLS)));
                }
                None => self.reset(at, id),
            }
        }

        /// The one layout rule, stated once: a store growing to `rows`
        /// item rows grows dense instead.
        fn crosses(&self, rows: usize) -> bool {
            grows_dense(rows, self.row_bytes(), N)
        }
    }

    /// Plane count, leading rows, derived init and a dense layout: the
    /// shapes every item store takes (`RowTable`: one plane, the Adam
    /// stores: three behind their user rows).
    fn shapes() -> impl Strategy<Value = (usize, usize, bool, bool)> {
        (prop_oneof![Just(1usize), Just(3)], 0usize..3, any::<bool>(), any::<bool>())
    }

    fn store(shape: (usize, usize, bool, bool), held: &[u32], seed: u64) -> Store {
        let (k, lead, derived, dense) = shape;
        let scope =
            if dense { ScopeView::Full(N) } else { ScopeView::Rows { num_items: N, ids: held } };
        Store::new(k, lead, derived, scope, seed)
    }

    fn ids(set: std::collections::BTreeSet<u32>) -> Vec<u32> {
        set.into_iter().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Batches that hit, miss and interleave the held rows: the
        /// one-pass merge — and the densifying plan, for a batch that
        /// crosses the rule — leaves ids and every plane exactly as
        /// id-by-id insertion does.
        #[test]
        fn one_pass_materialization_equals_row_by_row(
            seed in any::<u64>(),
            shape in shapes(),
            held in collection::btree_set(0u32..N as u32, 0..12),
            batches in collection::vec(collection::btree_set(0u32..N as u32, 0..15), 1..4),
        ) {
            let mut merged = store(shape, &ids(held), seed);
            let mut by_row = merged.clone();
            for (b, batch) in batches.into_iter().enumerate() {
                let batch = ids(batch);
                prop_assert_eq!(merged.grow(&batch), by_row.grow_by_row(&batch));
                prop_assert_eq!(&merged, &by_row);
                merged.train(b as u64);
                by_row.train(b as u64);
            }
        }

        /// The compaction plan leaves ids and every plane exactly as
        /// evicting the victims one at a time does, and a later growth
        /// pass finds both in the same state.
        #[test]
        fn compaction_equals_victim_by_victim_removal(
            seed in any::<u64>(),
            shape in shapes(),
            held in collection::btree_set(0u32..N as u32, 0..12),
            keep in collection::btree_set(0u32..N as u32, 0..15),
            touch in collection::btree_set(0u32..N as u32, 0..8),
        ) {
            let keep = ids(keep);
            let mut plan = store(shape, &ids(held), seed);
            let mut by_victim = plan.clone();
            let victims: Vec<u32> =
                plan.rows.index.view().iter().filter(|id| keep.binary_search(id).is_err()).collect();
            prop_assert_eq!(plan.retain(&keep), victims.len());
            for &id in &victims {
                by_victim.remove_one(id);
            }
            prop_assert_eq!(&plan, &by_victim);
            let touch = ids(touch);
            plan.grow(&touch);
            by_victim.grow_by_row(&touch);
            prop_assert_eq!(plan, by_victim);
        }

        /// `densify` is `merge_in` over the whole catalogue, call for
        /// call, without the id list.
        #[test]
        fn densify_is_the_merge_plan_of_every_id(
            held in collection::btree_set(0u32..30, 0..30),
        ) {
            let held = ids(held);
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
        /// seed-derived store holds fewer bytes than its dense layout
        /// until the batch that crosses [`grows_dense`] turns it dense,
        /// with every row the fresh values of its id; a zeroed store
        /// never promotes.
        #[test]
        fn growth_promotes_at_the_rule_and_stays_below_dense_before(
            shape in (prop_oneof![Just(1usize), Just(3)], 0usize..3, any::<bool>()),
            batches in collection::vec(
                (collection::btree_set(0u32..N as u32, 0..16), collection::btree_set(0u32..N as u32, 0..16)),
                1..6,
            ),
        ) {
            let (k, lead, derived) = shape;
            let scope = ScopeView::Rows { num_items: N, ids: &[3] };
            let mut s = Store::new(k, lead, derived, scope, 77);
            s.planes.iter_mut().for_each(|p| p.as_mut_slice().fill(0.0));
            s.reset(lead, 3);
            let mut crossed = false;
            for (grow, keep) in batches {
                let grow = ids(grow);
                if !s.rows.index.is_dense() && s.rows.index.count_absent(&grow) > 0 {
                    crossed |= derived && s.crosses(s.rows.index.len() + s.rows.index.count_absent(&grow));
                }
                s.grow(&grow);
                prop_assert_eq!(s.rows.index.is_dense(), crossed);
                prop_assert!(crossed || !derived || s.heap_bytes() < s.dense_bytes());
                let mut fresh = s.clone();
                for (r, id) in s.rows.index.view().iter().enumerate() {
                    fresh.reset(lead + r, id);
                }
                prop_assert_eq!(&fresh, &s);
                s.retain(&ids(keep));
            }
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
        assert_eq!(a.index().ids(), Some(&[3, 7, 10][..]));
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
        assert_eq!(t.index().ids(), Some(&[5, 7, 10][..]));
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
            single.ensure_many(&[id]);
        }
        assert_eq!(batch, single);
        // idempotent and free the second time
        assert_eq!(batch.ensure_many(&wanted), 0);
        assert_eq!(batch, single);
        // dense tables are a no-op
        let mut dense = full(20);
        assert_eq!(dense.ensure_many(&wanted), 0);
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
        assert_eq!(t.index().ids(), Some(&[5, 13][..]));
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

    /// `t`'s state text, and a table read back from it.
    fn through_state(t: &RowTable) -> (String, Result<RowTable, String>) {
        let mut text = Vec::new();
        t.write_state(&mut Writer::new(&mut text));
        let text = String::from_utf8(text).unwrap();
        (text.clone(), read_table(&text))
    }

    fn read_table(text: &str) -> Result<RowTable, String> {
        let mut back = RowTable::sparse_zeroed(0, 0);
        let mut r = Reader::new(text.as_bytes());
        back.read_state(&mut r, |_, _| Ok(()))?;
        r.finish().map(|()| back)
    }

    #[test]
    fn serde_roundtrip_sparse_and_dense() {
        let mut t = scoped(&[2, 8]);
        t.ensure_many(&[5]);
        let back = through_state(&t).1.unwrap();
        assert_eq!(t, back);
        // a restored table still materializes identically
        let mut a = back.clone();
        let mut b = t.clone();
        assert_eq!(a.ensure_many(&[11]), b.ensure_many(&[11]));
        assert_eq!(a, b);

        let mut d = RowTable::from_scope(ScopeView::Full(3), 2, 1, 0.1, 77);
        d.row_mut(1).fill(5.0);
        let (text, back) = through_state(&d);
        assert_eq!(d, back.unwrap());
        assert!(text.contains(r#""ids":null"#), "{text}");
    }

    #[test]
    fn serde_rejects_corrupt_tables() {
        let bad = r#"{"num_items":5,"cols":2,"ids":[3,1],"data":"00000000000000000000000000000000","init_seed":"0000000000000001","init_std":0.1,"init_cols":2}"#;
        let err = read_table(bad).unwrap_err();
        assert!(
            err.contains("ids at byte") && err.contains("sorted"),
            "unsorted ids accepted: {err}"
        );
        let bad = r#"{"num_items":5,"cols":2,"ids":[1],"data":"00000000000000000000000000000000","init_seed":"0000000000000001","init_std":0.1,"init_cols":2}"#;
        let err = read_table(bad).unwrap_err();
        assert!(err.contains("cannot be 1x2"), "shape mismatch accepted: {err}");
        // one flipped byte turns `0.1` into `-.1`: a std the row init
        // panics on, only once a row is re-derived
        let bad = r#"{"num_items":5,"cols":2,"ids":[1],"data":"0000000000000000","init_seed":"0000000000000001","init_std":-.1,"init_cols":2}"#;
        let err = read_table(bad).unwrap_err();
        assert!(err.contains("init_std"), "{err}");
        // and the writer's own spelling of a negative std is refused too
        let bad = bad.replace("-.1", "-0.10000000149011612");
        let err = read_table(&bad).unwrap_err();
        assert!(err.contains("init_std must be finite and non-negative"), "{err}");
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
