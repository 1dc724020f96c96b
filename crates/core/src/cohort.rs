//! Cohort-sharded federation: the million-user runtime.
//!
//! [`crate::PtfFedRec`] keeps the whole client fleet resident — one
//! `PtfClient` (model + optimizer state) per user — which is exactly
//! right up to ~10⁵ users and hopeless at 10⁶. [`CohortFedRec`] is the
//! *same* round driver ([`crate::protocol::Round`]) over the [`Stored`]
//! client host, with peak memory `O(cohort)` instead of `O(users)`:
//!
//! * the dataset stays on disk ([`CohortData::Arena`] reads one user row
//!   per client construction — see `ptf_data::arena`);
//! * each round's participants are processed in bounded **cohorts**: a
//!   cohort's clients are constructed (or restored from their envelopes),
//!   trained in parallel, exported back to the client store, and
//!   dropped before the next cohort starts;
//! * a client's cross-round state travels as a `ClientEnvelope` of three
//!   lines, one file per client in the run's on-disk store ([`StoreKind`];
//!   there is no in-process store — a deployed client keeps its state in
//!   local storage, not in the server's RAM): the eviction recency index,
//!   the model's full-state envelope verbatim, and the dispersed set
//!   `D̃_i`. The client phase writes the first two (one tmp+rename);
//!   `deliver` appends the third (one `O_APPEND` write — nothing is read
//!   back, parsed or rewritten).
//!   Everything else a resident client holds is either rebuilt per round
//!   (the ego graph) or capacity-only (upload buffers).
//!
//! **Why appending is safe.** Between a participant's client phase and
//! `deliver` its file has two lines and is not a valid envelope — but
//! nothing reads it then: the next read is the client's next
//! participation, a checkpoint commit copies the store only at a round
//! boundary (every parked file has its third line by then), and a
//! resume never reads the live store at all
//! ([`CohortFedRec::reset_clients_from`] replaces it with the committed
//! envelopes, each restored once as a check). A torn append or a
//! truncation anywhere is a file that is not exactly three lines, which
//! a restore rejects.
//!
//! **Bit-parity.** Every RNG stream in a round is `(seed, round, id)`-
//! derived and client construction is seed-derived, so a client restored
//! from its envelope is indistinguishable from one that stayed resident.
//! The trace of a cohort run is byte-identical to the unsharded engine at
//! any cohort size and thread count — the parity suite in
//! `tests/cohort_parity.rs` asserts exactly that.
//!
//! **Server scope.** The hidden server model has a `users × dim` user
//! table — the one inherently `O(users)` structure in the protocol.
//! Under [`ServerScope::FullFleet`] it is built exactly as the resident
//! host builds it (required for parity with [`crate::PtfFedRec`]).
//! Under [`ServerScope::ActiveParticipants`] the table covers only the
//! users that can ever participate (the union of every round's
//! participation draw — deterministic given the config), keyed by their
//! rank in that set; with partial participation this removes the last
//! `O(users)` term from a scale run's heap. The id compaction is visible
//! only inside the server model — ledger records, dispersal keys, and
//! all RNG streams stay on raw user ids (see
//! [`crate::rounds::server_phase`]).

use crate::client::PtfClient;
use crate::config::{ConfigError, PtfConfig};
use crate::protocol::{ClientHost, ClientPhase, Round};
use crate::rounds;
use crate::server::PtfServer;
use crate::upload::ClientUpload;
use ptf_data::{CsrArena, Dataset};
use ptf_federated::{derive_seed, ClientData, RngStream, RoundScratch};
use ptf_models::mf::LANES;
use ptf_models::{ModelHyper, ModelKind};
use ptf_privacy::ScoredItem;
use ptf_tensor::PackedF32s;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};

/// The interaction data backing a cohort run.
pub enum CohortData {
    /// Fully materialized dataset (parity tests, small presets).
    Mem(Dataset),
    /// On-disk CSR arena — one row resident at a time.
    Arena(CsrArena),
}

impl CohortData {
    pub fn num_users(&self) -> usize {
        match self {
            Self::Mem(d) => d.num_users(),
            Self::Arena(a) => a.num_users(),
        }
    }

    pub fn num_items(&self) -> usize {
        match self {
            Self::Mem(d) => d.num_items(),
            Self::Arena(a) => a.num_items(),
        }
    }

    /// Reads `user`'s positives into `out` (cleared on entry).
    fn row_into(&self, user: u32, out: &mut Vec<u32>) {
        match self {
            Self::Mem(d) => {
                out.clear();
                out.extend_from_slice(d.user_items(user));
            }
            Self::Arena(a) => {
                a.read_user_into(user, out).expect("arena row read");
            }
        }
    }

    /// Users with at least one interaction, ascending.
    fn trainable(&self) -> Vec<u32> {
        match self {
            Self::Mem(d) => {
                (0..d.num_users() as u32).filter(|&u| !d.user_items(u).is_empty()).collect()
            }
            Self::Arena(a) => a.nonempty_users().expect("arena indptr sweep"),
        }
    }
}

/// Where client envelopes live between participations: an on-disk store
/// rooted at the given directory, laid out `<root>/{id%256:02x}/{id}.json`.
/// The run's heap stays `O(cohort)`; the directory grows
/// `O(touched clients)`. The directory belongs to the run: construction
/// empties it (or creates it), so a fresh run never restores an earlier
/// run's clients, and a resume refills it from the committed envelopes.
///
/// There is one store; the enum keeps its single variant because callers
/// outside this workspace name `StoreKind::Disk`.
#[derive(Clone, Debug)]
pub enum StoreKind {
    Disk(PathBuf),
}

/// How the hidden server model's user table is scoped (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerScope {
    /// One row per fleet user — bit-identical to the unsharded engine.
    FullFleet,
    /// One row per ever-participating user (compact ids). Scale mode;
    /// self-consistent across cohort sizes/threads/resume, but a
    /// different run than `FullFleet` (different server init draws).
    ActiveParticipants,
}

/// Construction knobs for [`CohortFedRec`].
#[derive(Clone, Debug)]
pub struct CohortOptions {
    /// Max clients resident during the parallel client phase
    /// (0 = all of the round's participants in one cohort).
    pub cohort: usize,
    pub store: StoreKind,
    pub server_scope: ServerScope,
}

/// A client's cross-round state at rest, as read back: a parked file is
/// exactly three newline-terminated lines —
///
/// ```text
/// {"round":R,"local_rounds":L,"touched_items":[…],"touched_rounds":[…]}
/// <Recommender::export_full_state envelope, verbatim>
/// {"round":R,"disp_items":[…],"disp_scores":"<packed f32>"}
/// ```
///
/// — whose `round`s agree (see `docs/checkpoint-format.md`). The model
/// line is compact JSON, so it holds no raw newline and needs no
/// escaping. Parallel arrays instead of tuple vectors keep the other two
/// lines in the workspace's minimal JSON vocabulary: ids and counters are
/// decimal, the dispersed scores one packed string ([`PackedF32s`], like
/// every `f32` buffer at rest).
struct ClientEnvelope<'a> {
    head: EnvelopeHead,
    /// The model's full-state envelope; its import checks it.
    model: &'a str,
    /// The dispersed set `D̃_i`, zipped back into pairs.
    dispersal: Vec<ScoredItem>,
}

/// Line 1, written by the client phase.
#[derive(Serialize, Deserialize)]
struct EnvelopeHead {
    /// Global round the client last trained in.
    round: u32,
    /// Eviction schedule: the client's local-round counter…
    local_rounds: u32,
    /// …and the recency index, split `(item, last-touched round)`.
    touched_items: Vec<u32>,
    touched_rounds: Vec<u32>,
}

/// Line 3, appended by [`ClientHost::deliver`].
#[derive(Serialize, Deserialize)]
struct EnvelopeDispersal {
    /// Must equal the head's: the dispersal of the round the client
    /// trained in.
    round: u32,
    disp_items: Vec<u32>,
    disp_scores: PackedF32s,
}

impl<'a> ClientEnvelope<'a> {
    /// Splits and decodes client `id`'s parked file over a catalogue of
    /// `num_items`. Anything but three newline-terminated lines with
    /// agreeing rounds, ragged pairs, unsorted recency ids or an item
    /// outside the catalogue is an error naming the client — never a
    /// panic, here or in the client's next round.
    fn parse(id: u32, text: &'a str, num_items: usize) -> Result<Self, String> {
        let fail = |what: &str| format!("client {id} envelope: {what}");
        let mut lines = text.split_inclusive('\n').map(|line| line.strip_suffix('\n'));
        let (Some(Some(head)), Some(Some(model)), Some(Some(disp)), None) =
            (lines.next(), lines.next(), lines.next(), lines.next())
        else {
            return Err(fail("not three newline-terminated lines"));
        };
        let head: EnvelopeHead =
            serde_json::from_str(head).map_err(|e| fail(&format!("head: {e}")))?;
        let disp: EnvelopeDispersal =
            serde_json::from_str(disp).map_err(|e| fail(&format!("dispersal: {e}")))?;
        if disp.round != head.round {
            return Err(fail(&format!(
                "dispersal of round {} after training in round {}",
                disp.round, head.round
            )));
        }
        if head.touched_items.len() != head.touched_rounds.len() {
            return Err(fail("ragged recency index"));
        }
        if !head.touched_items.windows(2).all(|w| w[0] < w[1]) {
            return Err(fail("recency index not sorted by item"));
        }
        let scores = disp.disp_scores.unpack("disp_scores").map_err(|e| fail(&e))?;
        if disp.disp_items.len() != scores.len() {
            return Err(fail("ragged dispersed set"));
        }
        let in_catalogue = |items: &[u32]| items.iter().all(|&i| (i as usize) < num_items);
        if !in_catalogue(&head.touched_items) || !in_catalogue(&disp.disp_items) {
            return Err(fail(&format!("item id outside the {num_items}-item catalogue")));
        }
        let dispersal = disp.disp_items.into_iter().zip(scores).collect();
        Ok(Self { head, model, dispersal })
    }
}

/// The parked clients' envelope files under one root directory: load is
/// read-only (called from parallel workers); save and append are serial.
struct ClientStore {
    root: PathBuf,
}

/// `id`-sharded relative path of a client's envelope file.
fn envelope_rel(id: u32) -> (String, String) {
    (format!("{:02x}", id % 256), format!("{id}.json"))
}

impl ClientStore {
    /// Opens an empty store at `root`, removing whatever was there.
    fn empty_at(root: PathBuf) -> std::io::Result<Self> {
        if root.is_dir() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    fn path(&self, id: u32) -> PathBuf {
        let (shard, file) = envelope_rel(id);
        self.root.join(shard).join(file)
    }

    fn load(&self, id: u32) -> Option<String> {
        match std::fs::read_to_string(self.path(id)) {
            Ok(s) => Some(s),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => panic!("client store read for {id}: {e}"),
        }
    }

    /// Replaces `id`'s envelope with `text`.
    fn save(&mut self, id: u32, text: String) {
        let (shard, file) = envelope_rel(id);
        let dir = self.root.join(shard);
        // tmp + rename so a crash mid-write never leaves a torn
        // envelope where a resume would read it
        let tmp = dir.join(format!("{id}.json.tmp"));
        let written = std::fs::write(&tmp, &text).or_else(|e| {
            if e.kind() != std::io::ErrorKind::NotFound {
                return Err(e);
            }
            // the shard's first envelope: its directory is missing
            std::fs::create_dir_all(&dir)?;
            std::fs::write(&tmp, &text)
        });
        written.unwrap_or_else(|e| panic!("client store write: {e}"));
        std::fs::rename(&tmp, dir.join(file))
            .unwrap_or_else(|e| panic!("client store rename: {e}"));
    }

    /// Appends `line` to `id`'s envelope, which must exist: one
    /// `O_APPEND` write (see the module docs for why no rename is needed).
    fn append(&mut self, id: u32, line: &str) {
        std::fs::OpenOptions::new()
            .append(true)
            .open(self.path(id))
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .unwrap_or_else(|e| panic!("client store append for {id}: {e}"));
    }
}

/// The host whose clients live in envelopes between participations (see
/// module docs): a round's participants are rebuilt, trained and parked
/// again in cohort-sized slices.
pub struct Stored {
    client_kind: ModelKind,
    hyper: ModelHyper,
    data: CohortData,
    store: ClientStore,
    cohort: usize,
}

/// Cohort-sharded PTF-FedRec (see module docs).
pub type CohortFedRec = Round<Stored>;

impl Round<Stored> {
    /// Builds the cohort runtime. Unlike [`crate::PtfFedRec::try_new`]
    /// this constructs *no* clients — they materialize lazily, cohort by
    /// cohort, as rounds sample them. The store root is emptied, so the
    /// run starts with no parked client (a resume refills it through
    /// [`reset_clients_from`](Self::reset_clients_from)). Fails if `cfg`
    /// is inconsistent or the store root cannot be emptied or created.
    pub fn try_new(
        data: CohortData,
        client_kind: ModelKind,
        server_kind: ModelKind,
        hyper: &ModelHyper,
        cfg: PtfConfig,
        opts: CohortOptions,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let StoreKind::Disk(root) = opts.store;
        let store = ClientStore::empty_at(root.clone())
            .map_err(|e| ConfigError::StoreRoot { path: root, reason: e.to_string() })?;
        let trainable = data.trainable();
        let user_map = match opts.server_scope {
            ServerScope::FullFleet => None,
            ServerScope::ActiveParticipants => Some(active_users(&cfg, &trainable)),
        };
        let server_users = user_map.as_ref().map_or(data.num_users(), Vec::len);
        let server = rounds::build_server(server_users, data.num_items(), server_kind, hyper, &cfg);
        let host = Stored { client_kind, hyper: hyper.clone(), data, store, cohort: opts.cohort };
        Ok(Self::new(cfg, host, server, user_map, trainable))
    }

    /// Rows of the hidden server model's user table — `num_users` under
    /// [`ServerScope::FullFleet`], the active-participant count under
    /// [`ServerScope::ActiveParticipants`].
    pub fn server_users(&self) -> usize {
        self.server.model().num_users()
    }

    /// Serializes the server's full state for a checkpoint manifest.
    pub fn export_server_state(&self) -> Option<String> {
        self.server.export_full_state()
    }

    /// Restores the server from a checkpoint manifest's envelope.
    pub fn restore_server_state(&mut self, envelope: &str) -> Result<(), String> {
        self.server = PtfServer::import_full_state(
            envelope,
            self.server_users(),
            self.host.data.num_items(),
            self.server.model_kind(),
            &self.host.hyper,
            self.cfg.graph_threshold,
        )?;
        Ok(())
    }

    /// Fast-forwards the round counter to a checkpoint's `next_round`.
    /// Only meaningful right after construction, together with
    /// [`restore_server_state`](Self::restore_server_state) and
    /// [`reset_clients_from`](Self::reset_clients_from); the engine must
    /// be resumed at the same round (`ptf_federated::Engine::resume`).
    pub fn set_rounds_completed(&mut self, round: u32) {
        self.round = round;
    }

    /// Copies every stored client envelope into `dir` (created fresh) —
    /// the client half of a checkpoint commit.
    pub fn snapshot_clients_to(&self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("snapshot dir: {e}"))?;
        copy_envelopes(&self.host.store.root, dir, |_, _| Ok(()))
    }

    /// Replaces the live client store with the committed envelopes in
    /// `dir` — the client half of a resume. Every envelope is restored
    /// once, exactly as its next participation will restore it, so a
    /// damaged one fails the resume here, not mid-round.
    pub fn reset_clients_from(&mut self, dir: &Path) -> Result<(), String> {
        let (host, cfg) = (&mut self.host, &self.cfg);
        // drop any post-checkpoint state from the interrupted run
        host.store = ClientStore::empty_at(host.store.root.clone())
            .map_err(|e| format!("clear store: {e}"))?;
        copy_envelopes(dir, &host.store.root, |id, src| {
            let text = std::fs::read_to_string(src)
                .map_err(|e| format!("committed envelope for client {id}: {e}"))?;
            host.restore_client(id, &text, cfg).map(drop)
        })
    }
}

impl Stored {
    /// Builds user `id`'s client exactly as the resident fleet would —
    /// same partition, same derived `ClientInit` seed.
    fn build_fresh(&self, id: u32, cfg: &PtfConfig) -> PtfClient {
        let mut positives = Vec::new();
        self.data.row_into(id, &mut positives);
        let seed = derive_seed(cfg.seed, 0, RngStream::ClientInit(id).id());
        PtfClient::new(
            ClientData { id, positives },
            self.client_kind,
            &self.hyper,
            self.data.num_items(),
            seed,
            cfg,
        )
    }

    /// Builds the client, then replays its envelope (model state,
    /// dispersed set, eviction index) onto it. A damaged envelope is an
    /// error naming the client.
    fn restore_client(&self, id: u32, text: &str, cfg: &PtfConfig) -> Result<PtfClient, String> {
        let env = ClientEnvelope::parse(id, text, self.data.num_items())?;
        let mut client = self.build_fresh(id, cfg);
        client
            .import_model_state(env.model)
            .map_err(|e| format!("client {id} envelope: model: {e}"))?;
        let EnvelopeHead { local_rounds, touched_items, touched_rounds, .. } = env.head;
        client.restore_eviction_state(
            local_rounds,
            touched_items.into_iter().zip(touched_rounds).collect(),
        );
        client.receive_disperse(env.dispersal);
        Ok(client)
    }

    /// Parks a trained client: lines 1–2 of its envelope, in one write.
    /// [`ClientHost::deliver`] appends line 3.
    fn park(&mut self, client: &PtfClient, round: u32) {
        let model =
            client.export_model_state().expect("cohort runtime requires full-state model support");
        debug_assert!(!model.contains('\n'), "a model envelope is one line");
        let (local_rounds, touched) = client.eviction_state();
        let head = EnvelopeHead {
            round,
            local_rounds,
            touched_items: touched.iter().map(|&(i, _)| i).collect(),
            touched_rounds: touched.iter().map(|&(_, r)| r).collect(),
        };
        let mut text = serde_json::to_string(&head).expect("envelope head encodes");
        text.reserve(model.len() + 2);
        text.push('\n');
        text.push_str(&model);
        text.push('\n');
        self.store.save(client.id, text);
    }
}

impl ClientHost for Stored {
    const NAME: &'static str = "PTF-FedRec/cohort";

    fn client_phase(
        &mut self,
        phase: &ClientPhase<'_>,
        participants: &[u32],
    ) -> (Vec<ClientUpload>, Vec<f32>) {
        let cohort = if self.cohort == 0 { participants.len().max(1) } else { self.cohort };
        let mut uploads: Vec<ClientUpload> = Vec::with_capacity(participants.len());
        let mut losses: Vec<f32> = Vec::with_capacity(participants.len());
        for chunk in participants.chunks(cohort) {
            // parallel: construct-or-restore + local round in the lanes of
            // each worker, one derived RNG stream per client — bit-identical
            // regardless of chunking, lanes or thread count
            let this = &*self;
            let mut ids = chunk.to_vec();
            let trained = phase.scheduler.map_slices_with(
                phase.scratch,
                &mut ids,
                |scratch: &mut [RoundScratch; LANES], ids| {
                    let mut out: Vec<Option<(PtfClient, ClientUpload, f32)>> =
                        ids.iter().map(|_| None).collect();
                    let clients = ids.iter().map(|&id| match this.store.load(id) {
                        Some(text) => this
                            .restore_client(id, &text, phase.cfg)
                            .unwrap_or_else(|e| panic!("{e}")),
                        None => this.build_fresh(id, phase.cfg),
                    });
                    rounds::train_in_lanes(
                        phase.cfg,
                        phase.round,
                        scratch,
                        clients,
                        |at, c, up, loss| {
                            out[at] = Some((c, up, loss));
                        },
                    );
                    out
                },
            );
            // serial: park post-training clients, collect uploads in
            // participant order, drop the cohort's clients
            for (client, upload, loss) in
                trained.into_iter().flatten().map(|r| r.expect("every participant trained"))
            {
                self.park(&client, phase.round);
                uploads.push(upload);
                losses.push(loss);
            }
        }
        (uploads, losses)
    }

    /// Appends the round's dispersal to each participant's parked
    /// envelope — the stored counterpart of
    /// [`PtfClient::receive_disperse`].
    fn deliver(&mut self, round: u32, dispersals: Vec<(u32, Vec<ScoredItem>)>) {
        for (client, items) in dispersals {
            let scores: Vec<f32> = items.iter().map(|&(_, s)| s).collect();
            let line = EnvelopeDispersal {
                round,
                disp_items: items.iter().map(|&(i, _)| i).collect(),
                disp_scores: PackedF32s::pack(&scores),
            };
            let mut line = serde_json::to_string(&line).expect("dispersal line encodes");
            line.push('\n');
            self.store.append(client, &line);
        }
    }
}

/// The union of every round's participation draw — the users the server
/// can ever see. Deterministic given the config, so an unsharded, a
/// cohort-sharded, and a resumed run all compute the same set.
fn active_users(cfg: &PtfConfig, trainable: &[u32]) -> Vec<u32> {
    if cfg.participation.fraction >= 1.0 {
        return trainable.to_vec();
    }
    let mut active: Vec<u32> = Vec::new();
    for round in 0..cfg.rounds {
        let p = rounds::sample_participants(cfg, trainable, round);
        active.extend(p);
        active.sort_unstable();
        active.dedup();
    }
    active
}

/// Copies every envelope file under the sharded store directory `from`
/// to the same place under `to`, after `check(client id, source path)`
/// accepts it. Filesystem iteration order is irrelevant: the copy only
/// moves bytes keyed by id.
fn copy_envelopes(
    from: &Path,
    to: &Path,
    mut check: impl FnMut(u32, &Path) -> Result<(), String>,
) -> Result<(), String> {
    let shards =
        std::fs::read_dir(from).map_err(|e| format!("store dir {}: {e}", from.display()))?;
    for shard in shards {
        let shard = shard.map_err(|e| format!("store dir entry: {e}"))?;
        if !shard.file_type().map_err(|e| format!("store entry type: {e}"))?.is_dir() {
            continue;
        }
        let files =
            std::fs::read_dir(shard.path()).map_err(|e| format!("store shard read: {e}"))?;
        for file in files {
            let file = file.map_err(|e| format!("store shard entry: {e}"))?;
            let path = file.path();
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else { continue };
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let id: u32 = stem
                .parse()
                .map_err(|_| format!("unexpected file in client store: {}", path.display()))?;
            check(id, &path)?;
            let (shard, file) = envelope_rel(id);
            let dir = to.join(shard);
            std::fs::create_dir_all(&dir).map_err(|e| format!("copy shard: {e}"))?;
            std::fs::copy(&path, dir.join(file))
                .map_err(|e| format!("copy envelope of client {id}: {e}"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use ptf_data::SyntheticConfig;
    use ptf_federated::{RoundCtx, Scheduler, ScratchPool};
    use ptf_models::{MfModel, NeuMf, NeuMfConfig, Recommender, ScopeView};
    use ptf_tensor::{test_rng, Matrix, RowTable};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A store root of its own under the temp dir, removed when dropped.
    pub(crate) struct TempRoot(pub(crate) PathBuf);

    impl TempRoot {
        pub(crate) fn new(tag: &str) -> Self {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let k = NEXT.fetch_add(1, Ordering::Relaxed);
            let name = format!("ptf-cohort-{tag}-{}-{k}", std::process::id());
            Self(std::env::temp_dir().join(name))
        }
    }

    impl Drop for TempRoot {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// `-0.0`, a NaN with payload bits, both infinities, a subnormal.
    const ODD: [u32; 5] = [0x8000_0000, 0x7fc0_1234, 0x7f80_0000, 0xff80_0000, 0x0000_0001];
    const ODD_HEX: &str = "800000007fc012347f800000ff80000000000001";

    fn odd() -> Vec<f32> {
        ODD.iter().map(|&b| f32::from_bits(b)).collect()
    }

    fn bits(values: impl IntoIterator<Item = f32>) -> Vec<u32> {
        values.into_iter().map(f32::to_bits).collect()
    }

    /// The decimal encoding lost the sign of `-0.0` on a "bit-identical"
    /// restore, and one non-finite value made the whole export fail — the
    /// cohort host turned that into a panic, `save_checkpoint` into
    /// "server model does not support full-state export". Every state
    /// envelope must carry every bit pattern, export → import → export.
    #[test]
    fn odd_bit_patterns_survive_every_state_envelope() {
        let m = Matrix::from_vec(1, 5, odd());
        let json = serde_json::to_string(&m).expect("a NaN matrix serializes");
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(bits(back.as_slice().iter().copied()), ODD);

        let mut t = RowTable::sparse_zeroed(9, 5);
        t.ensure_many_with(&[4], |_, row| row.copy_from_slice(&odd()));
        let json = serde_json::to_string(&t).expect("a NaN row table serializes");
        let back: RowTable = serde_json::from_str(&json).unwrap();
        assert_eq!(bits(back.row(0).iter().copied()), ODD);

        // MF full-state envelope: the user table is public
        let scope = ScopeView::Rows { num_items: 9, ids: &[1, 4] };
        let mut mf = MfModel::new_scoped(2, 5, 0.1, scope, 7);
        mf.user_emb.row_mut(1).copy_from_slice(&odd());
        let envelope = mf.export_full_state().expect("non-finite parameters still export");
        let mut fresh = MfModel::new_scoped(2, 5, 0.1, scope, 8);
        fresh.import_full_state(&envelope).unwrap();
        assert_eq!(bits(fresh.user_emb.row(1).iter().copied()), ODD);
        assert_eq!(fresh.export_full_state().unwrap(), envelope);

        // NeuMF full-state envelope: its parameters are private, so the
        // odd values go into the first buffer (user_emb, 2x4) as text
        let cfg = NeuMfConfig { dim: 4, layers: vec![8, 4], lr: 0.01 };
        let mut envelope = NeuMf::new_scoped(2, &cfg, scope, 7).export_full_state().unwrap();
        let at = envelope.find(r#""data":""#).expect("parameters are packed strings") + 8;
        envelope.replace_range(at..at + ODD_HEX.len(), ODD_HEX);
        let mut fresh = NeuMf::new_scoped(2, &cfg, scope, 8);
        fresh.import_full_state(&envelope).unwrap();
        assert_eq!(fresh.export_full_state().expect("NaN parameters still export"), envelope);

        // server envelope: a graph server keeps every uploaded score in its
        // soft-edge memory. The graph models reject targets outside
        // [0, 1] in debug builds, so the odd values go in as text.
        let cfg = PtfConfig::small();
        let hyper = ModelHyper::small();
        let trained = |kind: ModelKind, scores: &[f32]| {
            let mut server = PtfServer::new(2, 9, kind, &hyper, &mut test_rng(1));
            let predictions = (3..8).zip(scores.iter().copied()).collect();
            let upload = ClientUpload { client: 1, predictions, audit_positives: vec![] };
            server.train_on_uploads(&[upload], &cfg, &mut test_rng(2));
            server.export_full_state().expect("the server exports")
        };
        let tame = [0.25, 0.5, 0.75, 1.0, 0.0];
        let envelope = trained(ModelKind::LightGcn, &tame);
        let tame_hex = serde_json::to_string(&PackedF32s::pack(&tame)).unwrap();
        let field = format!(r#""edge_scores":{tame_hex}"#);
        assert!(envelope.contains(&field), "{envelope}");
        let envelope = envelope.replace(&field, &format!(r#""edge_scores":"{ODD_HEX}""#));
        let back = PtfServer::import_full_state(&envelope, 2, 9, ModelKind::LightGcn, &hyper, 0.5);
        assert_eq!(back.unwrap().export_full_state().unwrap(), envelope);

        // a graph-less server keeps no edge memory, whatever it trains on
        // (the odd scores drive the hidden MF model itself to NaN): its
        // edge arrays are empty, and stay empty through import and re-export
        let envelope = trained(ModelKind::Mf, &odd());
        let empty = r#""edge_users":[],"edge_items":[],"edge_scores":"""#;
        assert!(envelope.contains(empty), "{envelope}");
        let back = PtfServer::import_full_state(&envelope, 2, 9, ModelKind::Mf, &hyper, 0.5);
        assert_eq!(back.unwrap().export_full_state().unwrap(), envelope);

        // a parked cohort client whose dispersed set holds such scores
        let scored: Vec<ScoredItem> = (3..8).zip(odd()).collect();
        let data = SyntheticConfig::new("odd", 2, 9, 3.0).generate(&mut test_rng(3));
        let root = TempRoot::new("odd");
        let mut host = Stored {
            client_kind: ModelKind::Mf,
            hyper,
            data: CohortData::Mem(data),
            store: ClientStore::empty_at(root.0.clone()).expect("temp store root"),
            cohort: 0,
        };
        let client = host.build_fresh(1, &cfg);
        host.park(&client, 0);
        host.deliver(0, vec![(1, scored)]);
        let parked = host.store.load(1).unwrap();
        let restored = host.restore_client(1, &parked, &cfg).unwrap();
        assert_eq!(bits(restored.server_data().iter().map(|&(_, s)| s)), ODD);
        host.park(&restored, 0);
        host.deliver(0, vec![(1, restored.server_data().to_vec())]);
        assert_eq!(host.store.load(1).unwrap(), parked, "re-parking changed the envelope");
    }

    /// A cohort runtime of MF clients over `users` synthetic users, with
    /// eviction on so every envelope line has content.
    pub(crate) fn small_fed(root: &TempRoot, users: usize) -> CohortFedRec {
        let data = SyntheticConfig::new("parked", users, 60, 6.0).generate(&mut test_rng(5));
        let mut cfg = PtfConfig::small();
        cfg.alpha = 6;
        cfg.storage.evict_interval = 1;
        cfg.storage.evict_budget = 24;
        let opts = CohortOptions {
            cohort: 2,
            store: StoreKind::Disk(root.0.clone()),
            server_scope: ServerScope::FullFleet,
        };
        let hyper = ModelHyper::small();
        CohortFedRec::try_new(
            CohortData::Mem(data),
            ModelKind::Mf,
            ModelKind::Mf,
            &hyper,
            cfg,
            opts,
        )
        .expect("valid config")
    }

    /// One round of the driver's order by hand, with `between` seeing the
    /// host after its client phase and before `deliver`.
    fn round_by_hand(fed: &mut CohortFedRec, round: u32, between: impl FnOnce(&Stored)) {
        let participants = fed.trainable().to_vec();
        let scratch = ScratchPool::new();
        let phase =
            ClientPhase { cfg: &fed.cfg, round, scheduler: Scheduler::new(1), scratch: &scratch };
        let (uploads, _) = fed.host.client_phase(&phase, &participants);
        between(&fed.host);
        let mut ctx = RoundCtx::detached(round);
        let (_, dispersals) =
            rounds::server_phase(&mut fed.server, &fed.cfg, round, &uploads, &mut ctx, None);
        fed.host.deliver(round, dispersals);
    }

    /// Every file under a store root, by path.
    fn store_files(root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
        let mut files = BTreeMap::new();
        for shard in std::fs::read_dir(root).unwrap().flatten() {
            for file in std::fs::read_dir(shard.path()).unwrap().flatten() {
                files.insert(file.path(), std::fs::read(file.path()).unwrap());
            }
        }
        files
    }

    /// `deliver` adds one line to each parked file and touches nothing
    /// else: the client phase's bytes stay as written, no tmp file is
    /// left behind, and the result restores.
    #[test]
    fn deliver_appends_exactly_one_line_to_each_parked_file() {
        let root = TempRoot::new("append");
        let mut fed = small_fed(&root, 5);
        for round in 0..3 {
            let mut parked = BTreeMap::new();
            round_by_hand(&mut fed, round, |_| parked = store_files(&root.0));
            let delivered = store_files(&root.0);
            assert_eq!(parked.len(), fed.trainable().len(), "one file per participant");
            assert_eq!(
                delivered.keys().collect::<Vec<_>>(),
                parked.keys().collect::<Vec<_>>(),
                "deliver created or removed a file"
            );
            for (path, before) in &parked {
                assert_eq!(path.extension().and_then(|e| e.to_str()), Some("json"), "{path:?}");
                assert_eq!(before.iter().filter(|&&b| b == b'\n').count(), 2, "{path:?}");
                let after = &delivered[path];
                let line = after.strip_prefix(before.as_slice()).expect("parked bytes unchanged");
                assert_eq!(line.iter().position(|&b| b == b'\n'), Some(line.len() - 1), "{path:?}");
                let id = path.file_stem().unwrap().to_str().unwrap().parse().unwrap();
                let text = String::from_utf8(after.clone()).unwrap();
                fed.host
                    .restore_client(id, &text, &fed.cfg)
                    .expect("a delivered envelope restores");
            }
        }
    }

    /// One way to damage a parked envelope.
    #[derive(Debug)]
    enum Damage {
        Truncate(usize),
        Flip(usize, u8),
        Drop(usize),
        Duplicate(usize),
        Swap(usize, usize),
        NextRoundDispersal,
    }

    impl Damage {
        /// `pick`/`at`/`mask` are raw draws, mapped onto `text`.
        fn of(kind: u8, at: f64, mask: u8, pick: usize, text: &str) -> Self {
            let offset = ((at * text.len() as f64) as usize).min(text.len() - 1);
            match kind {
                0 => Self::Truncate(offset),
                1 => Self::Flip(offset, mask),
                2 => Self::Drop(pick % 3),
                3 => Self::Duplicate(pick % 3),
                4 => Self::Swap(pick % 3, (pick % 3 + 1 + pick / 3 % 2) % 3),
                _ => Self::NextRoundDispersal,
            }
        }

        /// The damaged bytes, or `None` where they are not UTF-8 (which
        /// the store's reader refuses before any decoder sees them).
        fn apply(&self, text: &str) -> Option<String> {
            let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
            match *self {
                Self::Truncate(at) => return Some(text[..at].to_string()),
                Self::Flip(at, mask) => {
                    let mut bytes = text.as_bytes().to_vec();
                    bytes[at] ^= mask;
                    return String::from_utf8(bytes).ok();
                }
                Self::Drop(k) => drop(lines.remove(k)),
                Self::Duplicate(k) => lines.insert(k, lines[k]),
                Self::Swap(a, b) => lines.swap(a, b),
                Self::NextRoundDispersal => {
                    let round: u32 = text
                        .strip_prefix(r#"{"round":"#)
                        .and_then(|rest| rest.split(',').next()?.parse().ok())
                        .expect("line 1 opens with the round");
                    let from = format!(r#"{{"round":{round},"#);
                    let line = lines[2].replacen(&from, &format!(r#"{{"round":{},"#, round + 1), 1);
                    assert_ne!(line, lines[2], "line 3 opens with the same round");
                    return Some(format!("{}{}{line}", lines[0], lines[1]));
                }
            }
            Some(lines.concat())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The envelope decoder against damaged real envelopes: it never
        /// panics, and every damage but some byte flips is rejected. The
        /// intact envelope restores, re-parks and re-delivers to the same
        /// bytes.
        #[test]
        fn damaged_envelopes_are_rejected_never_panicked_on(
            kind in 0u8..6, at in 0.0f64..1.0, mask in 1u8..=255, pick in 0usize..6
        ) {
            let root = TempRoot::new("damage");
            let mut fed = small_fed(&root, 3);
            for round in 0..2 {
                round_by_hand(&mut fed, round, |_| {});
            }
            let id = fed.trainable()[pick % fed.trainable().len()];
            let intact = fed.host.store.load(id).expect("every participant is parked");
            let client = fed.host.restore_client(id, &intact, &fed.cfg).map_err(TestCaseError::fail)?;
            fed.host.park(&client, 1);
            fed.host.deliver(1, vec![(id, client.server_data().to_vec())]);
            prop_assert!(fed.host.store.load(id).as_ref() == Some(&intact), "re-parking changed the envelope");

            let damage = Damage::of(kind, at, mask, pick, &intact);
            let Some(damaged) = damage.apply(&intact) else { return Ok(()) };
            match fed.host.restore_client(id, &damaged, &fed.cfg) {
                Ok(_) => prop_assert!(matches!(damage, Damage::Flip(..)), "{damage:?} was accepted"),
                Err(e) => prop_assert!(e.starts_with(&format!("client {id} envelope: ")), "{e}"),
            }
        }
    }

    /// The active-scope server table is sized by sampling every round's
    /// participants inside `try_new`, so a bad fraction used to panic
    /// there instead of coming back as an error.
    #[test]
    fn active_scope_rejects_a_bad_participation_fraction() {
        let data = SyntheticConfig::new("scope", 12, 20, 4.0).generate(&mut test_rng(4));
        let root = TempRoot::new("scope");
        for fraction in [1.5, -0.5, f64::NAN] {
            let mut cfg = PtfConfig::small();
            cfg.participation.fraction = fraction;
            let built = CohortFedRec::try_new(
                CohortData::Mem(data.clone()),
                ModelKind::Mf,
                ModelKind::Mf,
                &ModelHyper::small(),
                cfg,
                CohortOptions {
                    cohort: 0,
                    store: StoreKind::Disk(root.0.clone()),
                    server_scope: ServerScope::ActiveParticipants,
                },
            );
            assert!(
                matches!(
                    built.err(),
                    Some(ConfigError::OutOfUnitRange { field: "participation.fraction", .. })
                ),
                "fraction {fraction} was accepted"
            );
        }
    }
}
