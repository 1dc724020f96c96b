//! The PTF-FedRec client (Algorithm 1, `CLIENT TRAIN`).
//!
//! Each client owns a *single-user* local model (its user table has one
//! row), its private positives `D_i`, and the latest server-dispersed
//! soft-label set `D̃_i`. One local round is Eq. 3 — several epochs of BCE
//! over `D_i ∪ D̃_i` — followed by the privacy-preserving construction of
//! the upload `D̂ᵗᵢ` (§III-B2).
//!
//! The round has three parts, split where another client's work can run
//! in between:
//!
//! * [`PtfClient::prepare_round`] — negatives, the pool and its rows, the
//!   training samples;
//! * `cfg.client_epochs` epochs — each shuffles the samples on the
//!   client's stream, then trains on them;
//! * [`PtfClient::finish_round`] — scores, the upload, eviction.
//!
//! A client trained alone runs its epochs through
//! [`PtfClient::train_epoch`]. The lane driver in [`crate::rounds`] runs
//! the epochs of up to four MF clients through one fused kernel instead.
//! Either way a client draws from its own stream in the same order and
//! does the same arithmetic, so the split cannot change a bit.

use crate::config::{builds_dense, PtfConfig};
use crate::upload::{build_upload_into, ClientUpload};
use ptf_data::negative::sample_negatives_into;
use ptf_federated::{ClientData, RoundScratch};
use ptf_models::{
    build_model_scoped, ItemScope, MfModel, ModelHyper, ModelKind, Recommender, ScopeView,
};
use ptf_privacy::ScoredItem;
use rand::Rng;

/// A PTF-FedRec client.
pub struct PtfClient {
    pub id: u32,
    /// Private positives `D_i` (sorted item ids).
    positives: Vec<u32>,
    /// Server-dispersed soft labels `D̃_i` (empty before first dispersal).
    server_data: Vec<ScoredItem>,
    /// The client's local model; its internal user id is always 0.
    model: Box<dyn Recommender>,
    kind: ModelKind,
    /// Upload backing storage recycled from this client's previous round
    /// (see [`PtfClient::recycle_upload`]); per-client upload sizes are
    /// stable, so steady-state rounds reuse the same capacity.
    spare_upload: Option<(Vec<ScoredItem>, Vec<u32>)>,
    /// Local rounds this client has trained (its own counter, robust
    /// under partial participation); drives the eviction schedule.
    local_rounds: u32,
    /// `(item id, last local round it was touched)`, sorted by id — the
    /// recency signal the eviction pass ranks cold rows by. Maintained
    /// only when eviction is enabled.
    touched: Vec<(u32, u32)>,
    /// Reusable keep-set buffer for eviction passes.
    keep: Vec<u32>,
}

impl PtfClient {
    /// Builds an item-scoped client from its data partition and a
    /// per-client derived seed: the local model materializes only the
    /// embedding rows of the client's positives — sampled negatives and
    /// dispersed items materialize lazily on first touch — so a client
    /// never allocates the full `items × dim` table it can never use.
    ///
    /// A client whose expected training pool `positives × (1 + neg_ratio)`
    /// covers a quarter of the catalogue is built dense instead
    /// (`ItemScope::Full`), from the *same* derived seed: it would
    /// materialize most rows anyway, and a dense table skips the
    /// per-sample id→row binary search while holding bit-identical values
    /// on every shared row. The layout is decided here, never configured.
    ///
    /// Seeding by value (not by a shared `&mut rng`) is what lets the
    /// federation build the whole fleet in parallel with bit-identical
    /// results at any thread count.
    pub fn new(
        data: ClientData,
        kind: ModelKind,
        hyper: &ModelHyper,
        num_items: usize,
        seed: u64,
        cfg: &PtfConfig,
    ) -> Self {
        let scope = if builds_dense(data.positives.len(), cfg.neg_ratio, num_items) {
            ItemScope::Full(num_items)
        } else {
            data.item_scope(num_items)
        };
        Self::with_scope(data, kind, hyper, &scope, seed)
    }

    fn with_scope(
        data: ClientData,
        kind: ModelKind,
        hyper: &ModelHyper,
        scope: &ItemScope,
        seed: u64,
    ) -> Self {
        Self {
            id: data.id,
            positives: data.positives,
            server_data: Vec::new(),
            model: build_model_scoped(kind, 1, hyper, scope, seed),
            kind,
            spare_upload: None,
            local_rounds: 0,
            touched: Vec::new(),
            keep: Vec::new(),
        }
    }

    pub fn num_positives(&self) -> usize {
        self.positives.len()
    }

    /// The item-embedding rows this client's model currently holds.
    pub fn item_scope(&self) -> ScopeView<'_> {
        self.model.item_scope()
    }

    /// Materialized item-embedding rows (≤ `num_items`; the scoped-client
    /// memory story in one number).
    pub fn item_rows(&self) -> usize {
        self.model.item_scope().len()
    }

    pub fn model_kind(&self) -> ModelKind {
        self.kind
    }

    /// Current `D̃_i` (for inspection/tests).
    pub fn server_data(&self) -> &[ScoredItem] {
        &self.server_data
    }

    /// Receives the server's dispersed predictions, replacing `D̃_i`.
    pub fn receive_disperse(&mut self, data: Vec<ScoredItem>) {
        self.server_data = data;
    }

    /// Serializes the model's complete training state (parameters,
    /// optimizer moments, RNG streams) as a portable envelope, or `None`
    /// for models without full-state support. The cohort runtime stores
    /// this between a client's participations; together with
    /// [`eviction_state`](Self::eviction_state) and
    /// [`server_data`](Self::server_data) it captures everything that
    /// carries across rounds (upload buffers are capacity-only, and the
    /// ego graph is rebuilt each local round).
    pub fn export_model_state(&self) -> Option<String> {
        self.model.export_full_state()
    }

    /// Restores a model envelope from [`Self::export_model_state`]. The client
    /// must have been built from the same architecture, per-client seed,
    /// and data partition as the exporter.
    pub fn import_model_state(&mut self, envelope: &str) -> Result<(), String> {
        self.model.import_full_state(envelope)
    }

    /// The eviction-schedule state that must survive a client being
    /// recycled: its local-round counter and the recency index.
    pub fn eviction_state(&self) -> (u32, &[(u32, u32)]) {
        (self.local_rounds, &self.touched)
    }

    /// Restores [`eviction_state`](Self::eviction_state).
    pub fn restore_eviction_state(&mut self, local_rounds: u32, touched: Vec<(u32, u32)>) {
        self.local_rounds = local_rounds;
        self.touched = touched;
    }

    /// Returns a spent upload's backing storage for reuse by this
    /// client's next round. The protocol calls this with the previous
    /// round's retained uploads before sampling the next one.
    pub fn recycle_upload(&mut self, upload: ClientUpload) {
        debug_assert_eq!(upload.client, self.id);
        let ClientUpload { mut predictions, mut audit_positives, .. } = upload;
        predictions.clear();
        audit_positives.clear();
        self.spare_upload = Some((predictions, audit_positives));
    }

    /// Local model scores for `items` (exposed for evaluation/attacks).
    pub fn score(&self, items: &[u32]) -> Vec<f32> {
        self.model.score(0, items)
    }

    /// The first part of a local round: draws this round's negatives (the
    /// trained pool `V^t_i` is the positives plus fresh 1:`neg_ratio`
    /// negatives), materializes the pool's rows in one batch, and lays out
    /// the round's training samples in `scratch.triples` (plus the ego
    /// graph, for a graph model).
    ///
    /// The epochs and [`Self::finish_round`] follow on the same RNG stream
    /// and the same `scratch` (see the module docs). Everything transient
    /// lives in `scratch` (worker-owned, reused across rounds) and in the
    /// recycled upload buffers, so with an allocation-free model (MF) a
    /// steady-state round performs zero heap allocations.
    pub fn prepare_round(
        &mut self,
        cfg: &PtfConfig,
        scratch: &mut RoundScratch,
        rng: &mut impl Rng,
    ) {
        let num_items = self.model.num_items();
        sample_negatives_into(
            &self.positives,
            num_items,
            self.positives.len() * cfg.neg_ratio,
            rng,
            &mut scratch.negatives,
            &mut scratch.seen,
        );

        // one batched materialization of the round's whole pool, so a
        // scoped model merges its fresh rows in a single arena pass
        // instead of shifting once per first-touched sample
        scratch.pool_ids.clear();
        scratch.pool_ids.extend_from_slice(&self.positives);
        scratch.pool_ids.extend_from_slice(&scratch.negatives);
        scratch.pool_ids.extend(self.server_data.iter().map(|&(i, _)| i));
        scratch.pool_ids.sort_unstable();
        scratch.pool_ids.dedup();

        self.model.prepare_items(&scratch.pool_ids);

        // training samples (user id 0 inside the local model)
        scratch.triples.clear();
        scratch.triples.extend(self.positives.iter().map(|&i| (0u32, i, 1.0f32)));
        scratch.triples.extend(scratch.negatives.iter().map(|&i| (0u32, i, 0.0f32)));
        scratch.triples.extend(self.server_data.iter().map(|&(i, s)| (0u32, i, s)));

        // graph clients rebuild their one-hop ego graph from everything
        // they currently believe is positive; non-graph models skip the
        // edge assembly entirely
        if self.model.uses_graph() {
            scratch.edges.clear();
            scratch.edges.extend(self.positives.iter().map(|&i| (0u32, i, 1.0f32)));
            scratch.edges.extend(
                self.server_data
                    .iter()
                    .filter(|&&(_, s)| s >= cfg.graph_threshold)
                    .map(|&(i, s)| (0u32, i, s)),
            );
            self.model.set_graph(&scratch.edges);
        }
    }

    /// One epoch of Eq. 3 for a client trained alone: shuffles the
    /// prepared samples on the client's stream, then trains on them with
    /// soft-label BCE. Returns the epoch's mean loss.
    pub fn train_epoch(
        &mut self,
        cfg: &PtfConfig,
        scratch: &mut RoundScratch,
        rng: &mut impl Rng,
    ) -> f32 {
        shuffle(&mut scratch.triples, rng);
        ptf_models::train_on_samples(&mut *self.model, &scratch.triples, cfg.client_batch)
    }

    /// The MF model the lane driver trains through
    /// [`ptf_models::mf::train_lanes`]; `None` for any other model.
    pub(crate) fn mf_model(&mut self) -> Option<&mut MfModel> {
        self.model.as_mf_mut()
    }

    /// The last part of a local round (§III-B2): scores the trained pool,
    /// builds the upload `D̂ᵗᵢ`, and runs cold-row eviction when it is due.
    /// `loss_sum` is the sum of the epochs' losses; returns the upload and
    /// the round's mean training loss.
    pub fn finish_round(
        &mut self,
        cfg: &PtfConfig,
        scratch: &mut RoundScratch,
        rng: &mut impl Rng,
        loss_sum: f32,
    ) -> (ClientUpload, f32) {
        let mean_loss = loss_sum / cfg.client_epochs as f32;
        self.model.score_into(0, &self.positives, &mut scratch.scores_pos);
        self.model.score_into(0, &scratch.negatives, &mut scratch.scores_neg);
        scratch.scored_pos.clear();
        scratch
            .scored_pos
            .extend(self.positives.iter().copied().zip(scratch.scores_pos.iter().copied()));
        scratch.scored_neg.clear();
        scratch
            .scored_neg
            .extend(scratch.negatives.iter().copied().zip(scratch.scores_neg.iter().copied()));
        let (predictions, audit) = self.spare_upload.take().unwrap_or_default();
        let upload = build_upload_into(
            self.id,
            &mut scratch.scored_pos,
            &mut scratch.scored_neg,
            cfg.defense,
            &cfg.sampling,
            cfg.lambda,
            rng,
            predictions,
            audit,
        );

        // cold-row eviction: keep a client's materialized rows bounded
        // over long runs. This is off the allocation-free hot path — an
        // eviction round may allocate — but interval rounds in between
        // stay clean because the whole block is skipped when disabled.
        if cfg.storage.evict_interval > 0 {
            self.local_rounds += 1;
            self.note_touched(&scratch.pool_ids);
            if self.local_rounds.is_multiple_of(cfg.storage.evict_interval) {
                self.evict_cold_rows(cfg.storage.evict_budget, &scratch.pool_ids);
            }
        }

        (upload, mean_loss)
    }

    /// Merges this round's trained pool into the recency index
    /// (`touched` stays sorted by item id; each entry keeps its *last*
    /// touched local round).
    fn note_touched(&mut self, pool: &[u32]) {
        let round = self.local_rounds;
        let old = std::mem::take(&mut self.touched);
        let mut merged = Vec::with_capacity(old.len() + pool.len());
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < pool.len() {
            match old[i].0.cmp(&pool[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(old[i]);
                    i += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push((pool[j], round));
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push((pool[j], round));
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&old[i..]);
        merged.extend(pool[j..].iter().map(|&id| (id, round)));
        self.touched = merged;
    }

    /// Drops cold embedding rows back to their derived init. The keep set
    /// is this round's pool (⊇ positives, and for graph models ⊇ every
    /// ego-graph edge item) topped up to `budget` rows with the most
    /// recently touched survivors (ties broken by ascending id) — so the
    /// working set a client re-touches every round is never churned.
    fn evict_cold_rows(&mut self, budget: usize, pool: &[u32]) {
        self.keep.clear();
        self.keep.extend_from_slice(pool);
        if self.keep.len() < budget {
            let mut extra: Vec<(u32, u32)> = self
                .touched
                .iter()
                .copied()
                .filter(|(id, _)| pool.binary_search(id).is_err())
                .collect();
            extra.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            extra.truncate(budget - self.keep.len());
            self.keep.extend(extra.iter().map(|&(id, _)| id));
            self.keep.sort_unstable();
        }
        self.model.evict_items(&self.keep);
        let keep = &self.keep;
        self.touched.retain(|(id, _)| keep.binary_search(id).is_ok());
    }
}

/// Fisher–Yates on the client's stream: one draw per position.
pub(crate) fn shuffle<T>(xs: &mut [T], rng: &mut impl Rng) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DefenseKind;
    use ptf_tensor::test_rng;

    fn data() -> ClientData {
        ClientData { id: 7, positives: vec![1, 4, 9, 15, 22] }
    }

    /// A 5-positive client over a 40-item catalogue: its ~25-item pool
    /// covers over a quarter of the catalogue, so it is built dense.
    fn client(kind: ModelKind) -> PtfClient {
        PtfClient::new(data(), kind, &ModelHyper::small(), 40, 1, &cfg())
    }

    /// The same client over a catalogue more than 20× its positives,
    /// which keeps it row-sparse.
    fn scoped_client(kind: ModelKind) -> PtfClient {
        PtfClient::new(data(), kind, &ModelHyper::small(), 120, 1, &cfg())
    }

    fn cfg() -> PtfConfig {
        let mut c = PtfConfig::small();
        c.client_epochs = 2;
        c
    }

    impl PtfClient {
        /// A whole local round on one caller-held stream, the client
        /// trained alone.
        fn local_round(
            &mut self,
            cfg: &PtfConfig,
            scratch: &mut RoundScratch,
            rng: &mut impl Rng,
        ) -> (ClientUpload, f32) {
            self.prepare_round(cfg, scratch, rng);
            let mut loss_sum = 0.0;
            for _ in 0..cfg.client_epochs {
                loss_sum += self.train_epoch(cfg, scratch, rng);
            }
            self.finish_round(cfg, scratch, rng, loss_sum)
        }
    }

    #[test]
    fn local_round_produces_upload_from_trained_pool() {
        let mut c = client(ModelKind::NeuMf);
        let (upload, loss) = c.local_round(&cfg(), &mut RoundScratch::default(), &mut test_rng(2));
        assert_eq!(upload.client, 7);
        assert!(!upload.is_empty());
        assert!(loss.is_finite() && loss > 0.0);
        // uploads only trained items: positives or sampled negatives (which
        // are never positives) — so every audit positive is a true positive
        for &p in &upload.audit_positives {
            assert!(c.positives.binary_search(&p).is_ok());
        }
    }

    #[test]
    fn training_improves_local_separation() {
        let mut c = client(ModelKind::NeuMf);
        let mut config = cfg();
        config.client_epochs = 15;
        config.defense = DefenseKind::NoDefense;
        let mut rng = test_rng(3);
        let mut scratch = RoundScratch::default();
        let (_, first_loss) = c.local_round(&config, &mut scratch, &mut rng);
        let mut last_loss = first_loss;
        for _ in 0..4 {
            let (_, l) = c.local_round(&config, &mut scratch, &mut rng);
            last_loss = l;
        }
        assert!(last_loss < first_loss, "client loss did not improve: {first_loss} → {last_loss}");
        // positives should now outscore random non-items
        let pos_score = c.score(&[1])[0];
        let neg_score = c.score(&[30])[0];
        assert!(pos_score > neg_score, "{pos_score} vs {neg_score}");
    }

    #[test]
    fn server_data_enters_training() {
        let mut c = client(ModelKind::NeuMf);
        let mut config = cfg();
        config.client_epochs = 20;
        // keep uploading simple
        config.defense = DefenseKind::NoDefense;
        // teach the client that item 33 is great via D̃ only
        c.receive_disperse(vec![(33, 0.95)]);
        let mut rng = test_rng(4);
        let mut scratch = RoundScratch::default();
        for _ in 0..4 {
            let _ = c.local_round(&config, &mut scratch, &mut rng);
        }
        let taught = c.score(&[33])[0];
        // the soft-labelled item must massively outscore items the client
        // only ever saw as sampled negatives (which collapse toward 0
        // under this many epochs); an absolute threshold is too
        // init-sensitive for a 5-positive client
        let neg = c.score(&[36])[0];
        assert!(taught > 0.3 && taught > neg + 0.25, "not learned: {taught} vs negative {neg}");
    }

    #[test]
    fn graph_client_builds_ego_graph() {
        let mut c = client(ModelKind::LightGcn);
        let (upload, loss) = c.local_round(&cfg(), &mut RoundScratch::default(), &mut test_rng(5));
        assert!(loss.is_finite());
        assert!(!upload.is_empty());
    }

    #[test]
    fn clients_are_item_scoped_and_grow_lazily() {
        let c = scoped_client(ModelKind::Mf);
        assert_eq!(c.item_rows(), 5, "fresh client holds exactly its positives");
        let mut c = scoped_client(ModelKind::NeuMf);
        let before = c.item_rows();
        let _ = c.local_round(&cfg(), &mut RoundScratch::default(), &mut test_rng(9));
        assert!(c.item_rows() > before, "negative sampling must materialize rows");
        assert!(c.item_rows() <= 40);
    }

    #[test]
    fn dense_fallback_builds_a_full_table_from_the_same_seed() {
        // 5 positives × (1 + 4) = 25 expected pool ≥ ¼ of 40 → dense
        let dense = client(ModelKind::Mf);
        assert_eq!(dense.item_rows(), 40, "dense fallback materializes the catalogue");

        // same seed, scoped: every shared row must be bit-identical
        let scope = data().item_scope(40);
        let sparse = PtfClient::with_scope(data(), ModelKind::Mf, &ModelHyper::small(), &scope, 1);
        assert_eq!(sparse.item_rows(), 5);
        let items: Vec<u32> = vec![1, 4, 9, 15, 22];
        assert_eq!(dense.score(&items), sparse.score(&items));
    }

    #[test]
    fn eviction_keeps_rows_bounded_across_rounds() {
        let mut evicting = scoped_client(ModelKind::Mf);
        let mut control = scoped_client(ModelKind::Mf);
        let mut config = cfg();
        // budget must sit above the ~25-id per-round pool (5 positives ×
        // (1 + neg_ratio)): the keep set never drops rows the client is
        // actively training this round
        config.storage.evict_interval = 2;
        config.storage.evict_budget = 30;
        let plain = cfg();
        let mut rng_a = test_rng(11);
        let mut rng_b = test_rng(11);
        let mut scratch = RoundScratch::default();
        for _ in 0..8 {
            let _ = evicting.local_round(&config, &mut scratch, &mut rng_a);
            let _ = control.local_round(&plain, &mut scratch, &mut rng_b);
        }
        // interval just elapsed: the evicting client sits at ≤ budget while
        // the control has coupon-collected most of the catalogue
        assert!(
            evicting.item_rows() <= 30,
            "evicting client holds {} rows, budget 30",
            evicting.item_rows()
        );
        assert!(control.item_rows() > 30, "control should keep growing");
        // positives are always in the keep set
        for &p in &[1u32, 4, 9, 15, 22] {
            assert!(evicting.item_scope().contains(p), "positive {p} was evicted");
        }
    }

    /// The layout is invisible in the results: one client built `Full`
    /// and one built `Rows` from the same seed, driven through the same
    /// local rounds with dispersals and eviction, upload the same
    /// predictions, report the same losses and score every item the same.
    #[test]
    fn full_and_rows_layouts_train_identically() {
        let hyper = ModelHyper::small();
        let mut config = cfg();
        config.storage.evict_interval = 2;
        config.storage.evict_budget = 30;
        let all: Vec<u32> = (0..40).collect();
        for kind in [ModelKind::Mf, ModelKind::NeuMf, ModelKind::LightGcn] {
            let mut full = PtfClient::with_scope(data(), kind, &hyper, &ItemScope::Full(40), 1);
            let mut rows = PtfClient::with_scope(data(), kind, &hyper, &data().item_scope(40), 1);
            let (mut rng_full, mut rng_rows) = (test_rng(13), test_rng(13));
            let mut scratch = RoundScratch::default();
            for round in 0..6u32 {
                let dispersed: Vec<ScoredItem> =
                    (0..6u32).map(|k| ((round * 7 + k * 5) % 40, 0.1 + 0.15 * k as f32)).collect();
                full.receive_disperse(dispersed.clone());
                rows.receive_disperse(dispersed);
                let (up_full, loss_full) = full.local_round(&config, &mut scratch, &mut rng_full);
                let (up_rows, loss_rows) = rows.local_round(&config, &mut scratch, &mut rng_rows);
                assert_eq!(up_full, up_rows, "{kind}: uploads diverged in round {round}");
                assert_eq!(loss_full.to_bits(), loss_rows.to_bits(), "{kind}: round {round} loss");
            }
            assert_eq!(full.item_rows(), 40);
            assert!(rows.item_rows() < 40, "{kind}: eviction never ran on the scoped client");
            assert_eq!(full.score(&all), rows.score(&all), "{kind}: scores diverged");
        }
    }

    #[test]
    fn receive_disperse_replaces_previous_set() {
        let mut c = client(ModelKind::NeuMf);
        c.receive_disperse(vec![(1, 0.9), (2, 0.8)]);
        assert_eq!(c.server_data().len(), 2);
        c.receive_disperse(vec![(3, 0.7)]);
        assert_eq!(c.server_data(), &[(3, 0.7)]);
    }
}
