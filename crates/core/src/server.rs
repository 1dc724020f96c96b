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
//! participant, and a round scores its participants' catalogues eight at
//! a time (`PtfServer::score_block`): an MF server reads its item table
//! once per block instead of once per participant, and every logit keeps
//! the bits one participant alone would get. The logit rows (where the
//! selection also marks what it has taken) and the selection's buffers
//! are scratch the server keeps from one dispersal to the next. D̃ᵢ comes
//! out in the order [`crate::disperse`] specifies: confidence share, then
//! hard share, each in rank order.

use crate::config::PtfConfig;
use crate::disperse::{rank_by_confidence, select_disperse_items, SelectScratch};
use crate::upload::ClientUpload;
use ptf_models::{build_model, ModelHyper, ModelKind, Recommender};
use ptf_privacy::ScoredItem;
use ptf_tensor::packed::{Reader, Writer};
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// How many participants a round scores in one pass over the hidden
/// model's item table ([`PtfServer::score_block`]).
pub(crate) const DISPERSE_BLOCK: usize = ptf_tensor::kernels::USER_BLOCK;

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
    /// Scratch kept across dispersals: up to [`DISPERSE_BLOCK`]
    /// participants' catalogue-wide logits, the selection's buffers.
    logits: Vec<Vec<f32>>,
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
    /// by the hidden model, in [`crate::disperse`]'s order, excluding the
    /// `uploaded` items (any order). The model hands over logits; the
    /// selection takes the sigmoid only where it needs a score. The
    /// returned set is the call's one allocation.
    ///
    /// The one-client entry: a round scores its participants in blocks of
    /// up to eight, which gives each the same D̃ᵢ.
    pub fn disperse_for(
        &mut self,
        client: u32,
        uploaded: &[u32],
        cfg: &PtfConfig,
        rng: &mut impl Rng,
    ) -> Vec<ScoredItem> {
        self.score_block(&[client]);
        self.select_scored(0, uploaded.iter().copied(), cfg, rng)
    }

    /// Scores the whole catalogue for each of `users` (model user ids, at
    /// most [`DISPERSE_BLOCK`]) in one pass over the hidden model's item
    /// table where the model can
    /// ([`Recommender::block_logits_all_into`]), into the server's logit
    /// rows; [`PtfServer::select_scored`] then takes each user's D̃ᵢ.
    pub(crate) fn score_block(&mut self, users: &[u32]) {
        debug_assert!(users.len() <= DISPERSE_BLOCK, "a block of {} users", users.len());
        if self.logits.len() < users.len() {
            self.logits.resize_with(users.len(), Vec::new);
        }
        self.model.block_logits_all_into(users, &mut self.logits[..users.len()]);
    }

    /// D̃ᵢ of the `k`-th user of the last [`PtfServer::score_block`],
    /// excluding `uploaded`, as [`PtfServer::disperse_for`] builds it.
    /// Once per user: the selection marks what it takes in that user's
    /// logit row.
    pub(crate) fn select_scored(
        &mut self,
        k: usize,
        uploaded: impl IntoIterator<Item = u32>,
        cfg: &PtfConfig,
        rng: &mut impl Rng,
    ) -> Vec<ScoredItem> {
        select_disperse_items(
            &self.confidence_order,
            &mut self.logits[k],
            uploaded,
            cfg,
            rng,
            &mut self.select,
        )
    }

    /// Serializes the server's complete training state through the state
    /// codec — the checkpoint's `server.json`:
    ///
    /// ```text
    /// {"kind":K,"model":<Recommender::write_full_state envelope, verbatim>,"counts":[…],"edge_users":[…],"edge_items":[…],"edge_scores":"<packed f32>"}
    /// ```
    ///
    /// The soft-edge memory is flattened into parallel arrays in
    /// `BTreeMap` (key) order, all three empty unless the hidden model is
    /// a graph model. Returns `None` if the model does not support
    /// full-state export.
    pub fn export_full_state(&self) -> Option<String> {
        let mut text = Vec::new();
        let mut w = Writer::new(&mut text);
        w.open();
        w.key("kind");
        w.str(self.kind.name());
        w.key("model");
        if !self.model.write_full_state(&mut w) {
            return None;
        }
        w.key("counts");
        w.array(&self.item_update_counts, |w, &c| w.uint(c));
        w.key("edge_users");
        w.array(self.edges.keys(), |w, &(u, _)| w.uint(u.into()));
        w.key("edge_items");
        w.array(self.edges.keys(), |w, &(_, i)| w.uint(i.into()));
        w.key("edge_scores");
        w.f32s(&self.edges.values().copied().collect::<Vec<f32>>());
        w.close();
        Some(String::from_utf8(text).expect("an envelope is ASCII"))
    }

    /// Rebuilds a server from [`export_full_state`](Self::export_full_state).
    ///
    /// `num_users`/`num_items`/`kind`/`hyper` must match the exporting
    /// server's construction; `graph_threshold` is needed because the
    /// model's graph is not part of any envelope — it is re-derived here
    /// from the restored soft edges, exactly as `train_on_uploads` would.
    /// Only what the writer writes is accepted: one count per item, and
    /// edges only under a graph model, as three arrays of one length, in
    /// strictly ascending `(user, item)` order, inside users × items.
    /// Every refusal names the field and the byte.
    pub fn import_full_state(
        envelope: &[u8],
        num_users: usize,
        num_items: usize,
        kind: ModelKind,
        hyper: &ModelHyper,
        graph_threshold: f32,
    ) -> Result<Self, String> {
        let mut r = Reader::new(envelope);
        r.open()?;
        r.key("kind")?;
        let found = r.str()?;
        if found != kind.name() {
            return Err(r.error(format_args!(
                "server model mismatch: checkpoint has {found}, run configured {}",
                kind.name()
            )));
        }
        r.key("model")?;
        // throwaway init — every parameter is overwritten by the envelope
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut model = build_model(kind, num_users, num_items, hyper, &mut rng);
        model.read_full_state(&mut r)?;
        let graph = model.uses_graph();

        r.key("counts")?;
        let mut counts = Vec::with_capacity(num_items);
        r.array(|r| r.uint().map(|c| counts.push(c)))?;
        if counts.len() != num_items {
            return Err(r.error(format_args!("{} counts for {num_items} items", counts.len())));
        }
        let (mut users, mut items) = (Vec::new(), Vec::new());
        r.key("edge_users")?;
        r.u32s(&mut users)?;
        if !graph && !users.is_empty() {
            return Err(r.error(format_args!("edges under the graph-less {}", kind.name())));
        }
        r.key("edge_items")?;
        r.u32s(&mut items)?;
        if items.len() != users.len() {
            return Err(r.error(format_args!("{} items for {} users", items.len(), users.len())));
        }
        let keys: Vec<(u32, u32)> = users.into_iter().zip(items).collect();
        let outside = |&&(u, i): &&(u32, u32)| u as usize >= num_users || i as usize >= num_items;
        if let Some((u, i)) = keys.iter().find(outside) {
            return Err(r.error(format_args!("edge ({u}, {i}) outside {num_users}x{num_items}")));
        }
        if let Some(w) = keys.windows(2).find(|w| w[0] >= w[1]) {
            return Err(r.error(format_args!("edge {:?} out of (user, item) order", w[1])));
        }
        r.key("edge_scores")?;
        let packed = r.packed()?;
        if packed.len() != keys.len() {
            return Err(r.error(format_args!("{} scores for {} edges", packed.len(), keys.len())));
        }
        let mut scores = vec![0.0; keys.len()];
        packed.unpack_into(&mut scores)?;
        r.close()?;
        r.finish()?;

        let edges: BTreeMap<(u32, u32), f32> = keys.into_iter().zip(scores).collect();
        if graph {
            // the graph is not part of the model envelope: re-derive it so
            // a resumed server disperses identically even if its first
            // post-resume round trains on nothing
            model.set_graph(&confident_edges(&edges, graph_threshold));
        }
        Ok(Self::assemble(model, kind, counts, edges))
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
        let own = s.export_full_state().unwrap();
        assert!(own.ends_with(r#","edge_users":[],"edge_items":[],"edge_scores":""}"#), "{own}");

        // an envelope that carries edges anyway (a graph server's arrays
        // under a graph-less kind) is refused, naming the field and byte
        let mut graph = server(ModelKind::LightGcn);
        graph.train_on_uploads(&ups, &config, &mut test_rng(4));
        let theirs = graph.export_full_state().unwrap();
        let edges = &theirs[theirs.find(r#","edge_users":"#).unwrap()..];
        assert!(edges.starts_with(r#","edge_users":[0,0],"edge_items":[3,7],"#), "{edges}");
        let envelope = own.replace(r#","edge_users":[],"edge_items":[],"edge_scores":""}"#, edges);
        let at = envelope.find(r#""edge_users":"#).unwrap() + r#""edge_users":"#.len();
        let hyper = ModelHyper::small();
        let err = PtfServer::import_full_state(envelope.as_bytes(), 4, 30, s.kind, &hyper, 0.5)
            .err()
            .expect("edges under a graph-less kind are refused");
        assert_eq!(err, format!("edge_users at byte {at}: edges under the graph-less NeuMF"));
    }

    /// A tiny hyper-parameter set: every server envelope fits on a line.
    fn tiny_hyper() -> ModelHyper {
        ModelHyper {
            dim: 1,
            lr: 0.01,
            gcn_layers: 1,
            mlp_layers: vec![2],
            ngcf_reg: 0.0,
            ngcf_dropout: 0.0,
        }
    }

    /// A tiny MF server (1 user, 2 items) with one count, and a tiny
    /// LightGCN server (2 users, 2 items) holding two soft edges.
    fn tiny_servers() -> [PtfServer; 2] {
        let hyper = tiny_hyper();
        let mut mf = PtfServer::new(1, 2, ModelKind::Mf, &hyper, &mut test_rng(1));
        mf.item_update_counts[1] = 3;
        let mut lightgcn = PtfServer::new(2, 2, ModelKind::LightGcn, &hyper, &mut test_rng(1));
        lightgcn.item_update_counts = vec![1, 1];
        lightgcn.edges.extend([((0, 1), 0.75), ((1, 0), -0.0)]);
        [mf, lightgcn]
    }

    /// `server.json` is part of the checkpoint format
    /// (`docs/checkpoint-format.md`): the model envelope nested verbatim,
    /// field order, id arrays, the packed edge scores.
    #[test]
    fn server_envelopes_are_pinned() {
        let [mf, lightgcn] = tiny_servers();
        assert_eq!(mf.export_full_state().unwrap(), PINNED_MF);
        assert_eq!(lightgcn.export_full_state().unwrap(), PINNED_LIGHTGCN);
        // each reads back into a server that writes the same bytes
        let hyper = tiny_hyper();
        for (text, users, kind) in
            [(PINNED_MF, 1, ModelKind::Mf), (PINNED_LIGHTGCN, 2, ModelKind::LightGcn)]
        {
            let back = PtfServer::import_full_state(text.as_bytes(), users, 2, kind, &hyper, 0.5);
            assert_eq!(back.unwrap().export_full_state().unwrap(), text);
        }
    }

    const PINNED_MF: &str = r#"{"kind":"MF","model":{"arch":"MF","user_emb":{"rows":1,"cols":1,"data":"3baf5062"},"items":{"num_items":2,"cols":2,"ids":null,"data":"3c39382e00000000bd9adeee00000000","init_seed":"8bd2880a432e8659","init_std":0.10000000149011612,"init_cols":1}},"counts":[0,3],"edge_users":[],"edge_items":[],"edge_scores":""}"#;
    const PINNED_LIGHTGCN: &str = r#"{"kind":"LightGCN","model":{"arch":"LightGCN","item_ids":null,"item_seed":"8bd2880a432e8659","params":{"names":["emb"],"mats":[{"rows":4,"cols":1,"data":"3baf50623dbfee6d3c39382ebd9adeee"}]},"adam_t":"0","adam_m":[{"rows":4,"cols":1,"data":"00000000000000000000000000000000"}],"adam_v":[{"rows":4,"cols":1,"data":"00000000000000000000000000000000"}],"rng":null},"counts":[1,1],"edge_users":[0,1],"edge_items":[1,0],"edge_scores":"3f40000080000000"}"#;

    /// The server reader refuses what the writer never writes, naming the
    /// field and the byte: a count per item, edges in key order inside
    /// users × items, and arrays of one length.
    #[test]
    fn malformed_server_envelopes_are_refused_naming_the_field() {
        let hyper = tiny_hyper();
        let read = |text: &str, kind| {
            let users = if kind == ModelKind::Mf { 1 } else { 2 };
            PtfServer::import_full_state(text.as_bytes(), users, 2, kind, &hyper, 0.5).err()
        };
        let lg = ModelKind::LightGcn;
        let cases: &[(&str, String, ModelKind, &str)] = &[
            (
                "a count short",
                PINNED_MF.replace(r#""counts":[0,3]"#, r#""counts":[0]"#),
                ModelKind::Mf,
                "counts at byte",
            ),
            (
                "a count over",
                PINNED_MF.replace(r#""counts":[0,3]"#, r#""counts":[0,3,1]"#),
                ModelKind::Mf,
                "counts at byte",
            ),
            (
                "ragged items",
                PINNED_LIGHTGCN.replace(r#""edge_items":[1,0]"#, r#""edge_items":[1]"#),
                lg,
                "edge_items at byte",
            ),
            (
                "an item over",
                PINNED_LIGHTGCN.replace(r#""edge_items":[1,0]"#, r#""edge_items":[1,0,1]"#),
                lg,
                "edge_items at byte",
            ),
            (
                "ragged scores",
                PINNED_LIGHTGCN.replace(r#"80000000""#, r#"""#),
                lg,
                "edge_scores at byte",
            ),
            (
                "out of order",
                PINNED_LIGHTGCN.replace(r#""edge_users":[0,1]"#, r#""edge_users":[1,0]"#),
                lg,
                "edge_items at byte",
            ),
            (
                "a duplicate",
                PINNED_LIGHTGCN.replace(
                    r#""edge_users":[0,1],"edge_items":[1,0]"#,
                    r#""edge_users":[0,0],"edge_items":[1,1]"#,
                ),
                lg,
                "edge_items at byte",
            ),
            (
                "a user outside",
                PINNED_LIGHTGCN.replace(r#""edge_users":[0,1]"#, r#""edge_users":[0,2]"#),
                lg,
                "edge_items at byte",
            ),
            (
                "an item outside",
                PINNED_LIGHTGCN.replace(r#""edge_items":[1,0]"#, r#""edge_items":[1,2]"#),
                lg,
                "edge_items at byte",
            ),
            (
                "another kind",
                PINNED_MF.replace(r#"{"kind":"MF""#, r#"{"kind":"NeuMF""#),
                ModelKind::Mf,
                "kind at byte",
            ),
            ("trailing bytes", format!("{PINNED_MF} "), ModelKind::Mf, "trailing bytes at byte"),
        ];
        for (what, text, kind, field) in cases {
            assert!(
                text != PINNED_MF && text != PINNED_LIGHTGCN,
                "{what}: the damage did not apply"
            );
            let err = read(text, *kind).unwrap_or_else(|| panic!("{what}: accepted"));
            assert!(err.contains(field), "{what}: {err:?} does not name {field:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The server reader against truncated, flipped and grown pinned
        /// envelopes: it never panics, every refusal names a byte, and
        /// anything it accepts re-exports to exactly the damaged bytes.
        #[test]
        fn damaged_server_envelopes_are_refused_or_reexported_exactly(
            lightgcn in proptest::prelude::any::<bool>(),
            kind in 0u8..3,
            at in 0.0f64..1.0,
            raw in proptest::prelude::any::<u8>(),
            plausible in proptest::prelude::any::<bool>(),
        ) {
            // half the new bytes are ones the format uses, so damage often
            // parses as far as the field it lands in
            const TOKENS: &[u8] = b"0123456789abcdef\",:[]{}-+.eEnul ";
            let byte = if plausible { TOKENS[raw as usize % TOKENS.len()] } else { raw };
            let (text, users, model) = if lightgcn {
                (PINNED_LIGHTGCN, 2, ModelKind::LightGcn)
            } else {
                (PINNED_MF, 1, ModelKind::Mf)
            };
            let mut bytes = text.as_bytes().to_vec();
            let at = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
            match kind {
                0 => bytes.truncate(at),
                1 => bytes[at] ^= byte.max(1),
                _ => bytes.insert(at, byte),
            }
            match PtfServer::import_full_state(&bytes, users, 2, model, &tiny_hyper(), 0.5) {
                Ok(back) => {
                    let again = back.export_full_state().expect("a restored server exports");
                    proptest::prop_assert!(again.as_bytes() == bytes.as_slice(), "accepted damage re-exported differently");
                }
                Err(e) => proptest::prop_assert!(e.contains("byte "), "{} names no byte offset", e),
            }
        }
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
