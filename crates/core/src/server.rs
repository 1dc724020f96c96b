//! The PTF-FedRec central server (Algorithm 1, lines 9–12).
//!
//! The server's elaborately designed model never leaves this struct — the
//! only things that cross the trust boundary are prediction triples in
//! (via [`ClientUpload`]) and scored items out (via [`PtfServer::disperse_for`]).
//!
//! This is the serial stretch of a round, so it does only what the hidden
//! model needs: the soft-edge memory exists only for a model that
//! [`uses_graph`](Recommender::uses_graph), the confidence ranking of D̃
//! is computed once where the update counts change rather than once per
//! participant, and the logit buffer (where the selection also marks
//! what it has taken) and the selection's buffers are scratch the server
//! keeps from one dispersal to the next. D̃ᵢ comes out in the
//! order [`crate::disperse`] specifies: confidence share, then hard share,
//! each in rank order.

use crate::config::PtfConfig;
use crate::disperse::{rank_by_confidence, select_disperse_items, SelectScratch};
use crate::upload::ClientUpload;
use ptf_models::{build_model, ModelHyper, ModelKind, Recommender};
use ptf_privacy::ScoredItem;
use ptf_tensor::PackedF32s;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Checkpoint wire format of the server's full state. The soft-edge
/// memory is flattened into parallel arrays in `BTreeMap` (key) order,
/// so the encoding is deterministic — ids as decimal arrays, scores as
/// one packed string, all three empty unless the hidden model is a graph
/// model; the model rides along as its own nested full-state envelope.
#[derive(Serialize, Deserialize)]
struct ServerWire {
    kind: String,
    model: String,
    counts: Vec<u64>,
    edge_users: Vec<u32>,
    edge_items: Vec<u32>,
    edge_scores: PackedF32s,
}

/// The central server: hidden model + the state backing D̃ construction.
pub struct PtfServer {
    model: Box<dyn Recommender>,
    kind: ModelKind,
    /// Per-item embedding-update counts — the confidence signal (§III-B3).
    item_update_counts: Vec<u64>,
    /// Every item id by confidence rank ([`rank_by_confidence`]),
    /// re-ranked wherever `item_update_counts` changes.
    confidence_order: Vec<u32>,
    /// Persistent soft-edge memory `(user, item) → last uploaded score`,
    /// backing the graph models' adjacency (DESIGN.md §5); stays empty
    /// for a model that does not use a graph. A `BTreeMap` so iteration
    /// order — which feeds `set_graph` — is a function of the keys, never
    /// of a per-process hash seed.
    edges: BTreeMap<(u32, u32), f32>,
    /// Scratch kept across dispersals: one participant's catalogue-wide
    /// logits, the selection's buffers.
    logits: Vec<f32>,
    select: SelectScratch,
}

impl PtfServer {
    pub fn new(
        num_users: usize,
        num_items: usize,
        kind: ModelKind,
        hyper: &ModelHyper,
        rng: &mut impl Rng,
    ) -> Self {
        let model = build_model(kind, num_users, num_items, hyper, rng);
        Self::assemble(model, kind, vec![0; num_items], BTreeMap::new())
    }

    fn assemble(
        model: Box<dyn Recommender>,
        kind: ModelKind,
        item_update_counts: Vec<u64>,
        edges: BTreeMap<(u32, u32), f32>,
    ) -> Self {
        let mut confidence_order = Vec::new();
        rank_by_confidence(&item_update_counts, &mut confidence_order);
        Self {
            model,
            kind,
            item_update_counts,
            confidence_order,
            edges,
            logits: Vec::new(),
            select: SelectScratch::default(),
        }
    }

    pub fn model(&self) -> &dyn Recommender {
        &*self.model
    }

    pub fn model_kind(&self) -> ModelKind {
        self.kind
    }

    pub fn item_update_counts(&self) -> &[u64] {
        &self.item_update_counts
    }

    /// Eq. 5: trains the hidden model on this round's uploads with a
    /// soft-label BCE. Returns the mean training loss.
    pub fn train_on_uploads(
        &mut self,
        uploads: &[ClientUpload],
        cfg: &PtfConfig,
        rng: &mut impl Rng,
    ) -> f32 {
        self.train_on_uploads_as(uploads, cfg, rng, |client| client)
    }

    /// [`train_on_uploads`](Self::train_on_uploads) with every upload's
    /// client id translated by `user_of` into the hidden model's user
    /// index (the cohort runtime's compacted active-user ids).
    pub(crate) fn train_on_uploads_as(
        &mut self,
        uploads: &[ClientUpload],
        cfg: &PtfConfig,
        rng: &mut impl Rng,
        user_of: impl Fn(u32) -> u32,
    ) -> f32 {
        let graph = self.model.uses_graph();
        let mut samples: Vec<(u32, u32, f32)> =
            Vec::with_capacity(uploads.iter().map(ClientUpload::len).sum());
        for up in uploads {
            let user = user_of(up.client);
            for &(item, score) in &up.predictions {
                samples.push((user, item, score));
                self.item_update_counts[item as usize] += 1;
                if graph {
                    self.edges.insert((user, item), score);
                }
            }
        }
        if samples.is_empty() {
            return 0.0;
        }
        rank_by_confidence(&self.item_update_counts, &mut self.confidence_order);
        if graph {
            self.model.set_graph(&confident_edges(&self.edges, cfg.graph_threshold));
        }

        let mut loss_sum = 0.0f32;
        for _ in 0..cfg.server_epochs {
            ptf_data::shuffle(&mut samples, rng);
            loss_sum += ptf_models::train_on_samples(&mut *self.model, &samples, cfg.server_batch);
        }
        loss_sum / cfg.server_epochs as f32
    }

    /// §III-B3: builds D̃ᵢ for one client — α confidence/hard items scored
    /// by the hidden model, in [`crate::disperse`]'s order. The model
    /// hands over logits; the selection takes the sigmoid only where it
    /// needs a score. The returned set is the call's one allocation.
    pub fn disperse_for(
        &mut self,
        client: u32,
        uploaded_sorted: &[u32],
        cfg: &PtfConfig,
        rng: &mut impl Rng,
    ) -> Vec<ScoredItem> {
        self.model.logits_all_into(client, &mut self.logits);
        select_disperse_items(
            &self.confidence_order,
            &mut self.logits,
            uploaded_sorted,
            cfg,
            rng,
            &mut self.select,
        )
    }

    /// Serializes the server's complete training state — hidden-model
    /// envelope, per-item update counts, and the soft-edge memory — for a
    /// checkpoint manifest. Returns `None` if the model does not support
    /// full-state export.
    pub fn export_full_state(&self) -> Option<String> {
        let model = self.model.export_full_state()?;
        let wire = ServerWire {
            kind: self.kind.name().to_string(),
            model,
            counts: self.item_update_counts.clone(),
            edge_users: self.edges.keys().map(|&(u, _)| u).collect(),
            edge_items: self.edges.keys().map(|&(_, i)| i).collect(),
            edge_scores: PackedF32s::pack(&self.edges.values().copied().collect::<Vec<f32>>()),
        };
        serde_json::to_string(&wire).ok()
    }

    /// Rebuilds a server from [`export_full_state`](Self::export_full_state).
    ///
    /// `num_users`/`num_items`/`kind`/`hyper` must match the exporting
    /// server's construction; `graph_threshold` is needed because the
    /// model's graph is not part of any envelope — it is re-derived here
    /// from the restored soft edges, exactly as `train_on_uploads` would.
    pub fn import_full_state(
        envelope: &str,
        num_users: usize,
        num_items: usize,
        kind: ModelKind,
        hyper: &ModelHyper,
        graph_threshold: f32,
    ) -> Result<Self, String> {
        let wire: ServerWire =
            serde_json::from_str(envelope).map_err(|e| format!("server envelope: {e}"))?;
        if wire.kind != kind.name() {
            return Err(format!(
                "server model mismatch: checkpoint has {}, run configured {}",
                wire.kind,
                kind.name()
            ));
        }
        if wire.counts.len() != num_items {
            return Err(format!(
                "server item count mismatch: checkpoint has {}, run has {num_items}",
                wire.counts.len()
            ));
        }
        let edge_scores = wire.edge_scores.unpack("server edge_scores")?;
        if wire.edge_users.len() != wire.edge_items.len()
            || wire.edge_users.len() != edge_scores.len()
        {
            return Err(format!(
                "server edge arrays disagree: {} users, {} items, {} scores",
                wire.edge_users.len(),
                wire.edge_items.len(),
                edge_scores.len()
            ));
        }
        // throwaway init — every parameter is overwritten by the envelope
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut model = build_model(kind, num_users, num_items, hyper, &mut rng);
        model.import_full_state(&wire.model)?;
        let mut edges = BTreeMap::new();
        if model.uses_graph() {
            edges.extend(wire.edge_users.into_iter().zip(wire.edge_items).zip(edge_scores));
            // the graph is not part of the model envelope: re-derive it so
            // a resumed server disperses identically even if its first
            // post-resume round trains on nothing
            model.set_graph(&confident_edges(&edges, graph_threshold));
        }
        Ok(Self::assemble(model, kind, wire.counts, edges))
    }
}

/// The soft edges at or above the graph threshold, in key order — what a
/// graph model's adjacency is rebuilt from.
fn confident_edges(edges: &BTreeMap<(u32, u32), f32>, threshold: f32) -> Vec<(u32, u32, f32)> {
    edges.iter().filter(|&(_, &s)| s >= threshold).map(|(&(u, i), &s)| (u, i, s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DisperseStrategy;
    use ptf_tensor::test_rng;

    fn cfg() -> PtfConfig {
        let mut c = PtfConfig::small();
        c.alpha = 6;
        c
    }

    fn upload(client: u32, items: &[(u32, f32)]) -> ClientUpload {
        let mut audit: Vec<u32> =
            items.iter().filter(|&&(_, s)| s >= 0.5).map(|&(i, _)| i).collect();
        audit.sort_unstable();
        ClientUpload { client, predictions: items.to_vec(), audit_positives: audit }
    }

    fn server(kind: ModelKind) -> PtfServer {
        PtfServer::new(4, 30, kind, &ModelHyper::small(), &mut test_rng(1))
    }

    #[test]
    fn update_counts_track_uploads() {
        let mut s = server(ModelKind::NeuMf);
        let ups = vec![upload(0, &[(3, 0.9), (7, 0.1)]), upload(1, &[(3, 0.8), (9, 0.2)])];
        let loss = s.train_on_uploads(&ups, &cfg(), &mut test_rng(2));
        assert!(loss > 0.0 && loss.is_finite());
        assert_eq!(s.item_update_counts()[3], 2);
        assert_eq!(s.item_update_counts()[7], 1);
        assert_eq!(s.item_update_counts()[0], 0);
    }

    #[test]
    fn server_learns_uploaded_preferences() {
        let mut s = server(ModelKind::NeuMf);
        let mut config = cfg();
        config.server_epochs = 30;
        let ups = vec![upload(0, &[(3, 0.95), (7, 0.05), (9, 0.05), (11, 0.05)])];
        for _ in 0..6 {
            s.train_on_uploads(&ups, &config, &mut test_rng(3));
        }
        let scores = s.model().score(0, &[3, 7]);
        assert!(scores[0] > scores[1], "server did not learn the uploaded ordering: {scores:?}");
    }

    #[test]
    fn graph_server_accumulates_edges() {
        let mut s = server(ModelKind::LightGcn);
        let config = cfg();
        let mut rng = test_rng(4);
        s.train_on_uploads(&[upload(0, &[(3, 0.9), (7, 0.2)])], &config, &mut rng);
        s.train_on_uploads(&[upload(1, &[(3, 0.85)])], &config, &mut rng);
        // edges (0,3) and (1,3) survive the 0.5 threshold; (0,7) does not
        let high: Vec<_> = s.edges.iter().filter(|&(_, &v)| v >= 0.5).map(|(&k, _)| k).collect();
        assert!(high.contains(&(0, 3)));
        assert!(high.contains(&(1, 3)));
        assert!(!high.contains(&(0, 7)));
    }

    #[test]
    fn graphless_server_keeps_no_edge_memory() {
        let config = cfg();
        let ups = [upload(0, &[(3, 0.9), (7, 0.2)])];
        let mut s = server(ModelKind::NeuMf);
        s.train_on_uploads(&ups, &config, &mut test_rng(4));
        assert!(s.edges.is_empty());

        // an envelope that carries edges anyway (a graph server's arrays
        // under a graph-less kind) imports without them
        let mut graph = server(ModelKind::LightGcn);
        graph.train_on_uploads(&ups, &config, &mut test_rng(4));
        let mut wire: ServerWire =
            serde_json::from_str(&graph.export_full_state().unwrap()).unwrap();
        assert_eq!(wire.edge_items, vec![3, 7]);
        let own: ServerWire = serde_json::from_str(&s.export_full_state().unwrap()).unwrap();
        (wire.kind, wire.model) = (own.kind, own.model);
        let envelope = serde_json::to_string(&wire).unwrap();
        let hyper = ModelHyper::small();
        let back = PtfServer::import_full_state(&envelope, 4, 30, ModelKind::NeuMf, &hyper, 0.5);
        let back = back.unwrap();
        assert!(back.edges.is_empty());
        assert_eq!(back.export_full_state(), s.export_full_state());
    }

    #[test]
    fn dispersal_leaves_no_trace_in_the_server_scratch() {
        // for A then for B, or for B on a server that never served A
        let config = cfg();
        let ups = [upload(0, &[(3, 0.9), (7, 0.1)]), upload(1, &[(4, 0.8), (7, 0.3), (9, 0.6)])];
        let trained = || {
            let mut s = server(ModelKind::Mf);
            s.train_on_uploads(&ups, &config, &mut test_rng(5));
            s
        };
        let mut both = trained();
        both.disperse_for(0, &[3, 7], &config, &mut test_rng(6));
        let after_a = both.disperse_for(1, &[4, 7, 9], &config, &mut test_rng(7));
        let fresh = trained().disperse_for(1, &[4, 7, 9], &config, &mut test_rng(7));
        assert_eq!(after_a, fresh);
        // confidence share first: the most-uploaded free item leads
        assert_eq!(after_a[0].0, 3);
    }

    #[test]
    fn disperse_excludes_uploaded_and_scores_with_server_model() {
        let mut s = server(ModelKind::NeuMf);
        let config = cfg();
        let mut rng = test_rng(5);
        s.train_on_uploads(&[upload(0, &[(3, 0.9), (7, 0.1)])], &config, &mut rng);
        let d = s.disperse_for(0, &[3, 7], &config, &mut rng);
        assert_eq!(d.len(), config.alpha);
        for &(i, score) in &d {
            assert!(i != 3 && i != 7, "uploaded item {i} dispersed back");
            let model_score = s.model().score(0, &[i])[0];
            assert!((score - model_score).abs() < 1e-6, "dispersed score is stale");
        }
    }

    #[test]
    fn a_nan_server_disperses_without_nan() {
        // an MF server trained on an upload holding NaN and ±∞ scores
        // goes NaN for that client and for the uploaded items; dispersal
        // used to abort the process on the first NaN it ranked
        let mut s = server(ModelKind::Mf);
        let mut config = cfg();
        let odd = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.5];
        let ups = [upload(1, &(3..8).zip(odd).collect::<Vec<_>>())];
        s.train_on_uploads(&ups, &config, &mut test_rng(8));
        let nan_items: Vec<u32> =
            (0..30).filter(|&i| s.model().score(0, &[i])[0].is_nan()).collect();
        assert!(!nan_items.is_empty(), "the server must have gone NaN somewhere");
        for strategy in [DisperseStrategy::ConfidenceHard, DisperseStrategy::Random] {
            config.disperse = strategy;
            for client in 0..4 {
                let d = s.disperse_for(client, &[], &config, &mut test_rng(9));
                for &(i, score) in &d {
                    assert!(!score.is_nan(), "client {client}: item {i} dispersed with NaN");
                }
                if client != 1 {
                    assert_eq!(d.len(), config.alpha, "client {client} still has finite items");
                }
            }
        }
    }

    #[test]
    fn empty_round_is_harmless() {
        let mut s = server(ModelKind::Ngcf);
        assert_eq!(s.train_on_uploads(&[], &cfg(), &mut test_rng(6)), 0.0);
    }
}
