//! The model-agnostic recommender interface.
//!
//! PTF-FedRec is explicitly model-agnostic: clients and the server may run
//! *different* architectures, exchanging only prediction triples. Every
//! model in this crate therefore implements [`Recommender`], and the
//! protocol crates program against `Box<dyn Recommender>`.

use crate::mf::MfModel;
use ptf_tensor::packed::{Reader, Writer};
use ptf_tensor::ScopeView;
use std::sync::{Arc, OnceLock, RwLock};

/// A shared, monotonically growing `[0, 1, 2, …]` prefix cache.
///
/// `score_all`'s default implementation used to materialize a fresh
/// `(0..num_items).collect::<Vec<u32>>()` on every call — one heap
/// allocation and a full id write-out per user per round on the server
/// dispersal path. All full-catalogue callers now share one cached arc
/// and slice the prefix they need; the buffer only reallocates when a
/// larger catalogue than ever before appears.
pub fn cached_id_range(n: usize) -> Arc<Vec<u32>> {
    static RANGE: OnceLock<RwLock<Arc<Vec<u32>>>> = OnceLock::new();
    let lock = RANGE.get_or_init(|| RwLock::new(Arc::new(Vec::new())));
    {
        let cur = lock.read().expect("id-range lock poisoned");
        if cur.len() >= n {
            return cur.clone();
        }
    }
    let mut cur = lock.write().expect("id-range lock poisoned");
    if cur.len() < n {
        *cur = Arc::new((0..n as u32).collect());
    }
    cur.clone()
}

/// The sigmoid every model's score goes through, stable for large `|x|`.
///
/// Monotone to within one ulp: `stable_sigmoid(y) <=
/// stable_sigmoid(x).next_up()` for every `y <= x`. It is not monotone
/// outright — on `x < 0`, `e / (1 + e)` rounds numerator and denominator
/// apart, and σ(−1.9443452) is one ulp above σ(−1.9443451) — but `exp`
/// is, and no step back is larger than one ulp. That bound is what lets a
/// ranking by score compare logits first (D̃ᵢ's hard share);
/// `stable_sigmoid_is_monotone_within_one_ulp` pins it.
#[inline]
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// A trainable implicit-feedback recommender.
///
/// Scores are probabilities in `[0, 1]`: the protocol ships them across
/// the network as soft labels, and the receiving side trains on them
/// with a soft-target binary cross-entropy. A score is always
/// [`stable_sigmoid`] ∘ logit, so a model implements one scoring method,
/// [`Recommender::logits_into`], and every `score*` method is provided on
/// top of it. A caller that only ranks (D̃ᵢ's hard share) compares
/// logits and takes the sigmoid only where it needs a probability.
///
/// `Send + Sync` are supertraits because the federation scheduler moves
/// client-local models onto worker threads and the ranking evaluator
/// scores one shared model from many threads at once. Implementations
/// must keep any internal caching behind thread-safe primitives (see
/// `LightGcn`/`Ngcf`, whose propagation caches are `RwLock`s).
pub trait Recommender: Send + Sync {
    /// Architecture name as used in the paper's tables.
    fn name(&self) -> &'static str;

    fn num_users(&self) -> usize;

    fn num_items(&self) -> usize;

    /// Number of scalar parameters (drives parameter-transmission costs).
    fn num_params(&self) -> usize;

    /// Which item-embedding rows this model holds. Dense models report
    /// [`ScopeView::Full`]; item-scoped models report the sorted global
    /// ids materialized so far (which grows as rounds prepare dispersed
    /// or sampled items).
    fn item_scope(&self) -> ScopeView<'_> {
        ScopeView::Full(self.num_items())
    }

    /// Materializes the item rows an upcoming training round will touch
    /// (`sorted_ids` ascending, unique) — the one way an item row comes
    /// into being. A scoped model must have every item it is trained on
    /// ([`Recommender::train_batch`]) or given a graph edge to
    /// ([`Recommender::set_graph`]) prepared first. The growth merges the
    /// whole batch in one backward pass: MF over its row table, the
    /// Adam-trained models over the item block and both moment buffers
    /// together, a graph model then rebuilding its propagation operator
    /// once. A fresh row holds its `(seed, id)`-derived init, so when it
    /// is prepared cannot change its contents. A growth that would leave
    /// a sparse table at least as large as the dense one
    /// (`ptf_tensor::grows_dense`) materializes every row instead, and
    /// the model is dense from then on. Dense models ignore it.
    fn prepare_items(&mut self, _sorted_ids: &[u32]) {}

    /// Evicts every materialized item row whose global id is *not* in
    /// `keep_sorted` (ascending, unique), returning how many rows were
    /// dropped or reset. Eviction is the inverse of
    /// [`Recommender::prepare_items`] and is semantically free on
    /// seed-derived models: an evicted row's
    /// parameter state returns to its `(seed, id)`-derived init and its
    /// optimizer moments to zero, exactly what a never-touched row holds,
    /// so re-touching it later is bit-identical to a model that had never
    /// materialized it. Row-scoped models physically remove the rows
    /// (bounding client memory); dense models reset them in
    /// place — either way the two representations stay bit-identical
    /// under the same train-and-evict schedule.
    ///
    /// Graph models require `keep_sorted` to cover every item referenced
    /// by the current interaction graph (the caller's keep set naturally
    /// does: graph edges come from positives and dispersed items, which
    /// are always kept). Every model in this crate is seed-derived and
    /// evicts; the default, for implementations outside it that have no
    /// reproducible init, evicts nothing and returns 0.
    fn evict_items(&mut self, _keep_sorted: &[u32]) -> usize {
        0
    }

    /// The logit of `user`'s preference for each of `items`, into a
    /// caller-owned buffer (cleared on entry) — the one scoring method a
    /// model implements. Every score is [`stable_sigmoid`] of its logit.
    fn logits_into(&self, user: u32, items: &[u32], out: &mut Vec<f32>);

    /// [`Recommender::logits_into`] over the whole catalogue. The default
    /// routes through the shared [`cached_id_range`] instead of collecting
    /// a fresh id vector per call, so a model with an allocation-free
    /// `logits_into` gets an allocation-free `logits_all_into`; a model
    /// whose item table is one dense block may override it with a blocked
    /// kernel.
    fn logits_all_into(&self, user: u32, out: &mut Vec<f32>) {
        let ids = cached_id_range(self.num_items());
        self.logits_into(user, &ids[..self.num_items()], out);
    }

    /// [`Recommender::logits_all_into`] for each of `users`, into the
    /// matching row of `out` (one row per user). The default scores the
    /// users one at a time; a model whose item table is one dense block
    /// may override it to score several users in one pass over the
    /// table, with every logit the bits `logits_all_into` gives.
    fn block_logits_all_into(&self, users: &[u32], out: &mut [Vec<f32>]) {
        debug_assert_eq!(users.len(), out.len(), "one logit row per user");
        for (&user, row) in users.iter().zip(out) {
            self.logits_all_into(user, row);
        }
    }

    /// Predicted preference of `user` for each of `items`.
    fn score(&self, user: u32, items: &[u32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.score_into(user, items, &mut out);
        out
    }

    /// Predicted preference of `user` for every item; the returned vector
    /// is the only allocation.
    fn score_all(&self, user: u32) -> Vec<f32> {
        let mut out = Vec::new();
        self.score_all_into(user, &mut out);
        out
    }

    /// [`Recommender::score`] into a caller-owned buffer (cleared on
    /// entry): the logits, with the sigmoid taken in place.
    fn score_into(&self, user: u32, items: &[u32], out: &mut Vec<f32>) {
        self.logits_into(user, items, out);
        out.iter_mut().for_each(|x| *x = stable_sigmoid(*x));
    }

    /// [`Recommender::score_all`] into a caller-owned buffer (cleared on
    /// entry); same contract as [`Recommender::score_into`].
    fn score_all_into(&self, user: u32, out: &mut Vec<f32>) {
        self.logits_all_into(user, out);
        out.iter_mut().for_each(|x| *x = stable_sigmoid(*x));
    }

    /// True if [`Recommender::set_graph`] actually consumes edges. Lets
    /// callers skip assembling an edge list for models that would ignore
    /// it (the client hot path builds edges only for GCN architectures).
    fn uses_graph(&self) -> bool {
        false
    }

    /// One optimizer step on `(user, item, soft_label)` triples; returns
    /// the batch's mean BCE loss. On a scoped model every item must have
    /// been prepared ([`Recommender::prepare_items`]); an unprepared item
    /// panics, naming the item.
    fn train_batch(&mut self, batch: &[(u32, u32, f32)]) -> f32;

    /// The model as an [`MfModel`], which only `MfModel` answers: a
    /// caller training several MF models at once hands them to
    /// [`crate::mf::train_lanes`], and trains any other model alone.
    fn as_mf_mut(&mut self) -> Option<&mut MfModel> {
        None
    }

    /// Rebuilds internal interaction-graph structure from weighted
    /// `(user, item, weight)` edges. Non-graph models ignore this. On a
    /// scoped graph model every edge item must have been prepared
    /// ([`Recommender::prepare_items`]); an unprepared item panics,
    /// naming the item.
    fn set_graph(&mut self, _edges: &[(u32, u32, f32)]) {}

    /// Writes *everything* needed to resume training bit-identically —
    /// parameters, scope mapping, init seed, optimizer step counter and
    /// moment buffers, and any model-owned training RNG — as one envelope
    /// through the state codec ([`ptf_tensor::packed`]), and returns true.
    /// This is the cohort runtime's client-recycling format and the one
    /// model-state format (`ptf train --save` writes it too) — a model
    /// restored via [`Recommender::read_full_state`] produces the same
    /// bytes per training step as one that was never written. The
    /// envelope is canonical JSON whose `f32` buffers are packed strings
    /// of raw bits (`docs/checkpoint-format.md`), so any parameter value —
    /// NaN, ±inf, `-0.0` — exports and restores exactly. Models that
    /// cannot make the bit-resume guarantee write nothing and return
    /// false.
    fn write_full_state(&self, _out: &mut Writer<'_>) -> bool {
        false
    }

    /// Reads a [`Recommender::write_full_state`] envelope at `r`. The
    /// item scope may reshape in either direction (grown id set, or a
    /// dense envelope densifying a scoped model). Graph structure is *not*
    /// part of the envelope — graph models reset their propagation
    /// operator and callers re-`set_graph` after restoring. On error the
    /// model may be left partially restored; discard it.
    fn read_full_state(&mut self, _r: &mut Reader<'_>) -> Result<(), String> {
        Err("this model does not support full-state checkpointing".to_string())
    }

    /// [`Recommender::write_full_state`] as text, or `None` for a model
    /// without full-state support.
    fn export_full_state(&self) -> Option<String> {
        let mut text = Vec::new();
        self.write_full_state(&mut Writer::new(&mut text))
            .then(|| String::from_utf8(text).expect("an envelope is ASCII"))
    }

    /// Restores an [`Recommender::export_full_state`] envelope, which
    /// must be the whole of `json` ([`Recommender::read_full_state`]).
    fn import_full_state(&mut self, json: &str) -> Result<(), String> {
        let mut r = Reader::new(json.as_bytes());
        self.read_full_state(&mut r)?;
        r.finish()
    }
}

/// Trains on `samples` in fixed-size batches (caller shuffles), returning
/// the mean per-batch loss. Empty input returns 0.
pub fn train_on_samples(
    model: &mut dyn Recommender,
    samples: &[(u32, u32, f32)],
    batch_size: usize,
) -> f32 {
    assert!(batch_size > 0, "batch_size must be positive");
    if samples.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f64;
    let mut batches = 0usize;
    for chunk in samples.chunks(batch_size) {
        total += model.train_batch(chunk) as f64;
        batches += 1;
    }
    (total / batches as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A degenerate recommender for exercising the trait's defaults.
    struct Constant {
        users: usize,
        items: usize,
        calls: usize,
    }

    impl Recommender for Constant {
        fn name(&self) -> &'static str {
            "Constant"
        }
        fn num_users(&self) -> usize {
            self.users
        }
        fn num_items(&self) -> usize {
            self.items
        }
        fn num_params(&self) -> usize {
            0
        }
        fn logits_into(&self, _user: u32, items: &[u32], out: &mut Vec<f32>) {
            out.clear();
            out.resize(items.len(), 0.0);
        }
        fn train_batch(&mut self, batch: &[(u32, u32, f32)]) -> f32 {
            self.calls += 1;
            batch.len() as f32
        }
    }

    #[test]
    fn score_all_covers_every_item() {
        let m = Constant { users: 2, items: 7, calls: 0 };
        assert_eq!(m.score_all(0), vec![0.5; 7]);
        assert_eq!(m.score(1, &[3, 3]), vec![0.5; 2]);
    }

    /// The rank of `x` in value order among non-NaN `f32`s (±0 share 0).
    fn rank(x: f32) -> i64 {
        let bits = x.to_bits();
        let magnitude = i64::from(bits & 0x7fff_ffff);
        if bits >> 31 == 1 {
            -magnitude
        } else {
            magnitude
        }
    }

    fn of_rank(k: i64) -> f32 {
        let magnitude = k.unsigned_abs() as u32;
        f32::from_bits(if k < 0 { magnitude | 0x8000_0000 } else { magnitude })
    }

    /// Walks every `stride`-th `f32` from `from` up to `to` and checks no
    /// score seen so far exceeds the current one by more than one ulp.
    fn assert_monotone_within_one_ulp(from: f32, to: f32, stride: usize) {
        let mut best = (from, stable_sigmoid(from));
        for k in (rank(from)..=rank(to)).step_by(stride) {
            let x = of_rank(k);
            let s = stable_sigmoid(x);
            let (y, t) = best;
            assert!(t <= s.next_up(), "σ({y:e}) = {t:e} > σ({x:e}) = {s:e} + 1 ulp");
            if s > best.1 {
                best = (x, s);
            }
        }
    }

    #[test]
    fn stable_sigmoid_is_monotone_within_one_ulp() {
        // a strided sweep of every f32 from −∞ to +∞, then the 2¹⁷
        // values either side of where σ changes branch (±0), reaches 1
        // (≈ 16.6), underflows to 0 (≈ −103) and steps back by an ulp
        // (−1.9443452)
        assert_monotone_within_one_ulp(f32::NEG_INFINITY, f32::INFINITY, 9_973);
        for c in [0.0f32, 16.6, -16.6, 103.0, -103.0, -1.944_345_2] {
            let (lo, hi) = (of_rank(rank(c) - (1 << 17)), of_rank(rank(c) + (1 << 17)));
            assert_monotone_within_one_ulp(lo, hi, 1);
        }
        assert!(stable_sigmoid(-1.944_345_2) > stable_sigmoid(-1.944_345_1), "no longer wobbles");
        for (x, s) in [(f32::NEG_INFINITY, 0.0f32), (-0.0, 0.5), (0.0, 0.5), (f32::INFINITY, 1.0)] {
            assert_eq!(stable_sigmoid(x), s, "σ({x})");
        }
    }

    /// Every finite `f32` in `[−104, 17]` — everywhere σ is not flat
    /// (below, σ(y) = exp(y) ≤ σ(−104); above, σ = 1): the exhaustive
    /// form of `stable_sigmoid_is_monotone_within_one_ulp` (≈ 2.2·10⁹
    /// values; run it in a release build).
    #[test]
    #[ignore = "exhaustive sweep; run in release"]
    fn stable_sigmoid_is_monotone_within_one_ulp_on_every_f32() {
        assert_monotone_within_one_ulp(-104.0, 17.0, 1);
    }

    #[test]
    fn train_on_samples_chunks_and_averages() {
        let mut m = Constant { users: 1, items: 1, calls: 0 };
        let samples = vec![(0, 0, 1.0); 10];
        // batches of 4,4,2 → "losses" 4,4,2 → mean 10/3
        let loss = train_on_samples(&mut m, &samples, 4);
        assert_eq!(m.calls, 3);
        assert!((loss - 10.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn empty_samples_are_noop() {
        let mut m = Constant { users: 1, items: 1, calls: 0 };
        assert_eq!(train_on_samples(&mut m, &[], 4), 0.0);
        assert_eq!(m.calls, 0);
    }

    #[test]
    fn default_item_scope_is_full() {
        let m = Constant { users: 1, items: 9, calls: 0 };
        assert_eq!(m.item_scope(), ScopeView::Full(9));
        assert!(m.item_scope().is_full());
        assert!(m.item_scope().contains(8));
        assert!(!m.item_scope().contains(9));
    }

    #[test]
    fn scope_view_iterates_both_variants() {
        let full: Vec<u32> = ScopeView::Full(4).iter().collect();
        assert_eq!(full, vec![0, 1, 2, 3]);
        let ids = [2u32, 5, 7];
        let rows_view = ScopeView::Rows { num_items: 9, ids: &ids };
        assert_eq!(rows_view.iter().collect::<Vec<_>>(), vec![2, 5, 7]);
        assert_eq!(rows_view.len(), 3);
        assert!(rows_view.contains(5));
        assert!(!rows_view.contains(4));
        assert!(!rows_view.is_full());
    }

    #[test]
    fn cached_id_range_grows_and_is_shared() {
        let a = cached_id_range(5);
        assert_eq!(&a[..5], &[0, 1, 2, 3, 4]);
        let b = cached_id_range(3);
        assert_eq!(&b[..3], &[0, 1, 2]);
        let c = cached_id_range(8);
        assert_eq!(c[7], 7);
    }
}
