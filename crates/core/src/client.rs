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

use crate::config::PtfConfig;
use crate::upload::{build_upload_into, ClientUpload};
use ptf_data::negative::sample_negatives_into;
use ptf_federated::{ClientData, RoundScratch};
use ptf_models::{build_model_scoped, MfModel, ModelHyper, ModelKind, Recommender, ScopeView};
use ptf_privacy::ScoredItem;
use ptf_tensor::packed::{Reader, Writer};
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
    spare_upload: Vec<ScoredItem>,
    /// Local rounds this client has trained (its own counter, robust
    /// under partial participation); drives the eviction schedule.
    local_rounds: u32,
    /// `(item id, last local round it was touched)`, sorted by id — the
    /// recency signal the eviction pass ranks cold rows by. Maintained
    /// only when eviction is enabled.
    touched: Vec<(u32, u32)>,
}

impl PtfClient {
    /// Builds an item-scoped client from its data partition and a
    /// per-client derived seed: the local model materializes only the
    /// embedding rows of the client's positives — each round prepares its
    /// sampled negatives and dispersed items before training — so a
    /// client never allocates the full `items × dim` table it can never
    /// use.
    ///
    /// The layout is never configured, and never guessed here: the
    /// model's own row growth turns its table dense at the step that
    /// would leave the sparse one holding at least as many bytes
    /// (`ptf_tensor::grows_dense`). Both layouts hold bit-identical
    /// values on every row, so the switch changes no result. The config
    /// takes no part in the layout.
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
        _cfg: &PtfConfig,
    ) -> Self {
        let scope = data.item_scope(num_items);
        let model = build_model_scoped(kind, 1, hyper, scope, seed);
        Self::with_model(data, kind, model)
    }

    pub(crate) fn with_model(
        data: ClientData,
        kind: ModelKind,
        model: Box<dyn Recommender>,
    ) -> Self {
        Self {
            id: data.id,
            positives: data.positives,
            server_data: Vec::new(),
            model,
            kind,
            spare_upload: Vec::new(),
            local_rounds: 0,
            touched: Vec::new(),
        }
    }

    pub fn num_positives(&self) -> usize {
        self.positives.len()
    }

    /// Private positives `D_i` (sorted item ids).
    pub(crate) fn positives(&self) -> &[u32] {
        &self.positives
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

    /// Writes the model's full-state envelope into `w` — what
    /// [`Self::export_model_state`] returns as text — and returns false,
    /// writing nothing, for models without full-state support.
    pub(crate) fn write_model_state(&self, w: &mut Writer<'_>) -> bool {
        self.model.write_full_state(w)
    }

    /// Restores a model envelope from [`Self::export_model_state`]. The client
    /// must have been built from the same architecture, per-client seed,
    /// and data partition as the exporter.
    pub fn import_model_state(&mut self, envelope: &str) -> Result<(), String> {
        self.read_model_state(envelope.as_bytes())
    }

    /// [`Self::import_model_state`] from the envelope's bytes, as the
    /// cohort runtime reads them from its store.
    pub(crate) fn read_model_state(&mut self, envelope: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(envelope);
        self.model.read_full_state(&mut r)?;
        r.finish()
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

    /// What a parked client's envelope restores, for the cohort store to
    /// decode in place: the local-round counter, the recency index and
    /// `D̃ᵢ`.
    pub(crate) fn parked_state_mut(
        &mut self,
    ) -> (&mut u32, &mut Vec<(u32, u32)>, &mut Vec<ScoredItem>) {
        (&mut self.local_rounds, &mut self.touched, &mut self.server_data)
    }

    /// Returns a spent upload's backing storage for reuse by this
    /// client's next round. The protocol calls this with the previous
    /// round's retained uploads before sampling the next one.
    pub fn recycle_upload(&mut self, upload: ClientUpload) {
        debug_assert_eq!(upload.client, self.id);
        self.spare_upload = upload.predictions;
    }

    /// Local model scores for `items` (exposed for evaluation/attacks).
    pub fn score(&self, items: &[u32]) -> Vec<f32> {
        self.model.score(0, items)
    }

    /// The first part of a local round: draws this round's negatives (the
    /// trained pool `V^t_i` is the positives plus fresh 1:`neg_ratio`
    /// negatives), materializes the pool's rows in one batch — the growth
    /// that may turn the table dense — and lays out the round's training
    /// samples: an MF client's as `(item row, label)` in
    /// `scratch.row_samples`, each id resolved once a round for the lane
    /// kernel; any other client's as triples in `scratch.triples` (plus
    /// the ego graph, for a graph model).
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

        // each pool buffer gets room for the largest pool this client can
        // train on, so the capacity a reused buffer needs depends on the
        // client, never on how many of its draws repeat or how many items
        // the server could disperse to it this round
        let room = self.positives.len() + scratch.negatives.len();
        let room = room + cfg.alpha.max(self.server_data.len());
        scratch.pool_ids.clear();
        scratch.pool_ids.reserve(room);

        // one batched materialization of the round's whole pool, so a
        // scoped model merges its fresh rows in a single arena pass
        // instead of shifting once per first-touched sample
        let dispersed = self.server_data.iter().map(|&(i, _)| i);
        let pool = self.positives.iter().chain(&scratch.negatives).copied().chain(dispersed);
        scratch.seen.sorted_union(num_items, pool, &mut scratch.pool_ids);

        self.model.prepare_items(&scratch.pool_ids);

        // training samples of the local model's one user (user id 0)
        if let Some(model) = self.model.as_mf_mut() {
            let items = model.items();
            let row = |i: u32| items.row_of(i) as u32;
            scratch.row_samples.clear();
            scratch.row_samples.reserve(room);
            scratch.row_samples.extend(self.positives.iter().map(|&i| (row(i), 1.0f32)));
            scratch.row_samples.extend(scratch.negatives.iter().map(|&i| (row(i), 0.0f32)));
            scratch.row_samples.extend(self.server_data.iter().map(|&(i, s)| (row(i), s)));
            return;
        }
        scratch.triples.clear();
        scratch.triples.reserve(room);
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
    /// soft-label BCE through the model's own `train_batch`. An MF
    /// client's rows go back to their ids for it, so this stays the
    /// reference the lane kernel is checked against. Returns the epoch's
    /// mean loss.
    pub fn train_epoch(
        &mut self,
        cfg: &PtfConfig,
        scratch: &mut RoundScratch,
        rng: &mut impl Rng,
    ) -> f32 {
        if let Some(model) = self.model.as_mf_mut() {
            ptf_data::shuffle(&mut scratch.row_samples, rng);
            let items = model.items();
            scratch.triples.clear();
            scratch.triples.extend(
                scratch
                    .row_samples
                    .iter()
                    .map(|&(r, label)| (0, items.index().id_of(r as usize), label)),
            );
            return ptf_models::train_on_samples(model, &scratch.triples, cfg.client_batch);
        }
        ptf_data::shuffle(&mut scratch.triples, rng);
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
        let upload = build_upload_into(
            self.id,
            scratch,
            cfg.defense,
            &cfg.sampling,
            cfg.lambda,
            rng,
            std::mem::take(&mut self.spare_upload),
        );

        // cold-row eviction: keep a client's materialized rows bounded
        // over long runs; it works in the recency index's own capacity
        // and in `scratch`, which allocate nothing once grown
        if cfg.storage.evict_interval > 0 {
            self.local_rounds += 1;
            self.note_touched(&scratch.pool_ids);
            if self.local_rounds.is_multiple_of(cfg.storage.evict_interval) {
                self.evict_cold_rows(cfg.storage.evict_budget, scratch);
            }
        }

        (upload, mean_loss)
    }

    /// Merges this round's trained pool into the recency index in place
    /// (`touched` stays sorted by item id; each entry keeps its *last*
    /// touched local round): merged from the back into room for the whole
    /// pool, then moved down over the room the pool's known ids left.
    fn note_touched(&mut self, pool: &[u32]) {
        let (now, touched) = (self.local_rounds, &mut self.touched);
        let (mut i, mut j) = (touched.len(), pool.len());
        touched.resize(i + j, (0, 0));
        let mut w = touched.len();
        while j > 0 {
            w -= 1;
            if i > 0 && touched[i - 1].0 > pool[j - 1] {
                i -= 1;
                touched[w] = touched[i];
            } else {
                i -= usize::from(i > 0 && touched[i - 1].0 == pool[j - 1]);
                j -= 1;
                touched[w] = (pool[j], now);
            }
        }
        touched.copy_within(w.., i);
        touched.truncate(touched.len() - (w - i));
    }

    /// Drops cold embedding rows back to their derived init. The keep set
    /// is this round's pool (⊇ positives, and for graph models ⊇ every
    /// ego-graph edge item) topped up to `budget` rows with the most
    /// recently touched survivors (ties broken by ascending id) — so the
    /// working set a client re-touches every round is never churned.
    ///
    /// The pool's rows are those stamped with this round; one selection
    /// over the other rows' rounds finds the top-up's last round, and one
    /// walk in id order keeps the rows above it and the lowest ids at it.
    fn evict_cold_rows(&mut self, budget: usize, scratch: &mut RoundScratch) {
        let now = self.local_rounds;
        let RoundScratch { pool_ids, keep, recency, .. } = scratch;
        recency.clear();
        recency.extend(self.touched.iter().filter(|&&(_, r)| r != now).map(|&(_, r)| r));
        let (extra, others) = (budget.saturating_sub(pool_ids.len()), recency.len());
        let (cut, mut at_cut) = match extra {
            0 => (u32::MAX, 0),
            _ if extra >= others => (0, usize::MAX),
            _ => {
                let (_, &mut cut, above) = recency.select_nth_unstable(others - extra);
                (cut, extra - above.iter().filter(|&&r| r > cut).count())
            }
        };
        keep.clear();
        self.touched.retain(|&(id, r)| {
            let tied = r == cut && r != now && at_cut > 0;
            at_cut -= usize::from(tied);
            let kept = r == now || r > cut || tied;
            keep.extend(kept.then_some(id));
            kept
        });
        self.model.evict_items(keep);
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

    /// A 5-positive client over a 40-item catalogue: built over its
    /// positives, its ~25-item pools grow it dense within a few rounds.
    fn client(kind: ModelKind) -> PtfClient {
        PtfClient::new(data(), kind, &ModelHyper::small(), 40, 1, &cfg())
    }

    /// The same client over a catalogue more than 20× its positives.
    fn scoped_client(kind: ModelKind) -> PtfClient {
        PtfClient::new(data(), kind, &ModelHyper::small(), 120, 1, &cfg())
    }

    /// The client of [`data`] over `num_items` items, built dense from
    /// the same seed as [`PtfClient::new`]'s.
    fn dense_client(kind: ModelKind, num_items: usize) -> PtfClient {
        let hyper = ModelHyper::small();
        let model = build_model_scoped(kind, 1, &hyper, ScopeView::Full(num_items), 1);
        PtfClient::with_model(data(), kind, model)
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
        // uploads trained items, each once: positives (at least one) and
        // sampled negatives, which are never positives
        let mut ids: Vec<u32> = upload.predictions.iter().map(|&(i, _)| i).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), upload.len(), "an item was uploaded twice");
        assert!(ids.iter().any(|i| c.positives.binary_search(i).is_ok()));
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
    fn growth_turns_a_client_dense_at_the_rule_and_never_back() {
        // MF at dim 16: 17-column rows plus a 4-byte id reach the dense
        // table's bytes at 38 of 40 rows
        let mut c = client(ModelKind::Mf);
        assert_eq!(c.item_rows(), 5, "every client is built over its positives");
        let (config, mut rng) = (cfg(), test_rng(17));
        let mut scratch = RoundScratch::default();
        let mut promoted_in = None;
        for round in 0..12 {
            let held = c.item_rows();
            let _ = c.local_round(&config, &mut scratch, &mut rng);
            let wanted = scratch.pool_ids.iter().filter(|&&i| !c.item_scope().contains(i)).count();
            assert_eq!(wanted, 0, "round {round}: the pool was not prepared");
            if c.item_scope().is_full() {
                promoted_in.get_or_insert(round);
                continue;
            }
            assert!(promoted_in.is_none(), "round {round}: a dense table turned sparse");
            assert!(held <= c.item_rows() && 18 * c.item_rows() < 40 * 17);
        }
        assert!(promoted_in.is_some(), "the client never crossed the rule");
        assert_eq!(c.item_rows(), 40);
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
        assert!(!evicting.item_scope().is_full(), "the budget sits below the promotion point");
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

    /// Drives a client built dense and one built by [`PtfClient::new`]
    /// from the same seed through the same six local rounds with
    /// dispersals: they must upload the same predictions, report the same
    /// losses and score every item the same. Returns the second client.
    fn train_against_dense(kind: ModelKind, num_items: u32, config: &PtfConfig) -> PtfClient {
        let all: Vec<u32> = (0..num_items).collect();
        let mut full = dense_client(kind, num_items as usize);
        let mut rows = PtfClient::new(data(), kind, &ModelHyper::small(), all.len(), 1, config);
        assert!(!rows.item_scope().is_full());
        let (mut rng_full, mut rng_rows) = (test_rng(13), test_rng(13));
        let mut scratch = RoundScratch::default();
        for round in 0..6u32 {
            let dispersed: Vec<ScoredItem> = (0..6u32)
                .map(|k| ((round * 7 + k * 5) % num_items, 0.1 + 0.15 * k as f32))
                .collect();
            full.receive_disperse(dispersed.clone());
            rows.receive_disperse(dispersed);
            let (up_full, loss_full) = full.local_round(config, &mut scratch, &mut rng_full);
            let (up_rows, loss_rows) = rows.local_round(config, &mut scratch, &mut rng_rows);
            assert_eq!(up_full, up_rows, "{kind}: uploads diverged in round {round}");
            assert_eq!(loss_full.to_bits(), loss_rows.to_bits(), "{kind}: round {round} loss");
        }
        assert_eq!(full.item_rows(), all.len());
        assert_eq!(full.score(&all), rows.score(&all), "{kind}: scores diverged");
        rows
    }

    /// The layout is invisible in the results while eviction keeps a
    /// client sparse: an evicting client over 120 items stays below the
    /// promotion point and trains as the dense one does.
    #[test]
    fn full_and_rows_layouts_train_identically() {
        let mut config = cfg();
        config.storage.evict_interval = 1;
        config.storage.evict_budget = 30;
        for kind in [ModelKind::Mf, ModelKind::NeuMf, ModelKind::LightGcn] {
            let rows = train_against_dense(kind, 120, &config);
            assert!(!rows.item_scope().is_full(), "{kind}: the evicting client promoted");
            assert!(rows.item_rows() < 40, "{kind}: eviction never ran on the scoped client");
        }
    }

    /// ...and across the promotion: over 40 items the sparse client turns
    /// dense mid-run, and eviction then resets its rows in place.
    #[test]
    fn a_client_that_promotes_trains_as_the_dense_one_does() {
        let mut config = cfg();
        config.storage.evict_interval = 2;
        config.storage.evict_budget = 30;
        for kind in [ModelKind::Mf, ModelKind::NeuMf, ModelKind::LightGcn] {
            let rows = train_against_dense(kind, 40, &config);
            assert!(rows.item_scope().is_full(), "{kind}: the client never promoted");
        }
    }

    impl PtfClient {
        /// The merge into a fresh vector that [`PtfClient::note_touched`]
        /// replaced, kept as its oracle.
        fn note_touched_by_copy(&mut self, pool: &[u32]) {
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

        /// The sort-based pass [`PtfClient::evict_cold_rows`] replaced,
        /// kept as its oracle: the pool by binary search, the rest sorted
        /// by (round descending, id ascending) and cut at the budget.
        /// Returns its keep set.
        fn evict_cold_rows_by_sort(&mut self, budget: usize, pool: &[u32]) -> Vec<u32> {
            let mut keep = pool.to_vec();
            if keep.len() < budget {
                let mut extra: Vec<(u32, u32)> = self
                    .touched
                    .iter()
                    .copied()
                    .filter(|(id, _)| pool.binary_search(id).is_err())
                    .collect();
                extra.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                extra.truncate(budget - keep.len());
                keep.extend(extra.iter().map(|&(id, _)| id));
                keep.sort_unstable();
            }
            self.model.evict_items(&keep);
            self.touched.retain(|(id, _)| keep.binary_search(id).is_ok());
            keep
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The linear eviction pass against the sort-based one over random
        /// touch histories of a row-scoped MF client over 120 items: pools
        /// of 5–60 ids (so many rows share a round), evicted every
        /// `interval` rounds, with a budget below, at or above the pool, or
        /// above every row held; `restored` starts both clients from the
        /// same random recency index, as a parked client's restore does.
        /// The merged index, the keep set, the compacted index and the
        /// model's full state must be equal after every round.
        #[test]
        fn linear_eviction_keeps_what_the_sort_did(
            seed in 0u64..1 << 20,
            restored in proptest::prelude::any::<bool>(),
            interval in 1u32..4,
            budget_kind in 0u8..5,
            slack in 0usize..50,
        ) {
            let mut rng = test_rng(seed);
            let (mut linear, mut sorted) = (scoped_client(ModelKind::Mf), scoped_client(ModelKind::Mf));
            let draw = |rng: &mut rand::rngs::StdRng, n: usize| {
                let mut ids: Vec<u32> = (0..n).map(|_| rng.gen_range(0..120)).collect();
                ids.extend([1, 4, 9, 15, 22]);
                ids.sort_unstable();
                ids.dedup();
                ids
            };
            if restored {
                let local_rounds = rng.gen_range(0..6u32);
                let n = rng.gen_range(0..80);
                let touched: Vec<(u32, u32)> = draw(&mut rng, n)
                    .into_iter()
                    .map(|id| (id, rng.gen_range(0..=local_rounds)))
                    .collect();
                let ids: Vec<u32> = touched.iter().map(|&(id, _)| id).collect();
                for c in [&mut linear, &mut sorted] {
                    c.model.prepare_items(&ids);
                    c.restore_eviction_state(local_rounds, touched.clone());
                }
            }
            let mut scratch = RoundScratch::default();
            for round in 0..8 {
                let n = rng.gen_range(0..56);
                let pool = draw(&mut rng, n);
                for c in [&mut linear, &mut sorted] {
                    c.local_rounds += 1;
                    c.model.prepare_items(&pool);
                }
                linear.note_touched(&pool);
                sorted.note_touched_by_copy(&pool);
                proptest::prop_assert_eq!(&linear.touched, &sorted.touched, "round {}: merge", round);
                if !linear.local_rounds.is_multiple_of(interval) {
                    continue;
                }
                let budget = match budget_kind {
                    0 => pool.len().saturating_sub(1 + slack % 5),
                    1 => pool.len(),
                    2 => pool.len() + 1,
                    3 => pool.len() + slack,
                    _ => usize::MAX,
                };
                scratch.pool_ids.clone_from(&pool);
                linear.evict_cold_rows(budget, &mut scratch);
                let keep = sorted.evict_cold_rows_by_sort(budget, &pool);
                proptest::prop_assert_eq!(&scratch.keep, &keep, "round {}: keep set", round);
                proptest::prop_assert_eq!(&linear.touched, &sorted.touched, "round {}: index", round);
                proptest::prop_assert_eq!(
                    linear.export_model_state(),
                    sorted.export_model_state(),
                    "round {}: model state",
                    round
                );
            }
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
