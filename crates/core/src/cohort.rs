//! Cohort-sharded federation: the million-user runtime.
//!
//! [`crate::PtfFedRec`] keeps the whole client fleet resident — one
//! `PtfClient` (model + optimizer state) per user — which is exactly
//! right up to ~10⁵ users and hopeless at 10⁶. [`CohortFedRec`] is the
//! *same* round driver ([`crate::protocol::Round`]) over the [`Stored`]
//! client host, whose clients are alive only while they train:
//!
//! * the dataset stays on disk ([`CohortData::Arena`] reads one user row
//!   per client construction — see `ptf_data::arena`);
//! * each worker pulls its share of the round's participants into its
//!   lanes ([`rounds::train_in_lanes`]) one at a time, constructing each
//!   client (or restoring it from its envelope) as a lane frees up, and
//!   parks it back in the client store the moment its lane finishes, so
//!   at most `threads × LANES` clients are alive at once whatever the
//!   round's size ([`CohortOptions::cohort`] no longer bounds anything);
//! * a client's cross-round state travels as an envelope of three
//!   lines, one file per client in the run's on-disk store ([`StoreKind`];
//!   there is no in-process store — a deployed client keeps its state in
//!   local storage, not in the server's RAM): the eviction recency index,
//!   the model's full-state envelope verbatim, and the dispersed set
//!   `D̃_i`. The client phase writes the first two over the file in
//!   place (one write at offset 0 and a `set_len`); `deliver` appends the
//!   third (one `O_APPEND` write — nothing is read back, parsed or
//!   rewritten). All three lines go through the one state codec
//!   ([`ptf_tensor::packed`]): a park writes the head and the model's
//!   envelope straight into its worker's reused buffer, and a restore reads
//!   the file into the worker's second one and each line with a cursor that decodes
//!   ids and packed buffers into their destinations — no JSON value tree,
//!   no intermediate copy of the model text — and takes only the writer's
//!   canonical spelling.
//!   Everything else a resident client holds is either rebuilt per round
//!   (the ego graph) or capacity-only (upload buffers).
//!
//! A checkpoint commit copies the store beside the server's envelope,
//! which goes through the same codec:
//!
//! ```text
//! CKPT/commit-r{N}/server.json                hidden server, as of round N
//! CKPT/commit-r{N}/{id % 256:02x}/{id}.json   the store's client envelopes
//! ```
//!
//! **Why writing in place is safe.** Between a participant's client
//! phase and `deliver` its file has two lines and is not a valid
//! envelope, and a crash mid-write leaves a torn one — but nothing reads
//! it then: the next read is the client's next participation, a
//! checkpoint commit copies the store only at a round boundary (every
//! parked file has its third line by then), and a resume never reads the
//! live store at all ([`CohortFedRec::reset_clients_from`] replaces it
//! with the committed envelopes, each restored once as a check). So the
//! live store needs neither a tmp + rename nor an `O_TRUNC`, and it gets
//! neither: on ext4 both are replace patterns that `auto_da_alloc` flushes,
//! and on `scale100k-cohort-disk` the rename made every park pay for that
//! (in-place parking took `round_s` to 0.68–0.76× of the rename's; an
//! `O_TRUNC` open kept most of that cost). A torn write or a truncation
//! anywhere is a file that is not exactly three lines, which a restore
//! rejects.
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
use crate::protocol::{ClientHost, Round};
use crate::rounds;
use crate::server::PtfServer;
use crate::upload::ClientUpload;
use ptf_data::{CsrArena, Dataset};
use ptf_federated::{derive_seed, ClientData, RngStream, RoundScratch};
use ptf_models::mf::LANES;
use ptf_models::{build_model_scoped, ModelHyper, ModelKind, ScopeView};
use ptf_privacy::ScoredItem;
use ptf_tensor::packed::{Reader, Writer};
use ptf_tensor::par::map_chunks;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
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
/// The run's heap holds no parked client; the directory grows
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
    /// Ignored: every client is parked as soon as it finishes training,
    /// so at most `threads × LANES` are resident whatever this says. The
    /// field stays because callers outside this workspace construct it.
    pub cohort: usize,
    pub store: StoreKind,
    pub server_scope: ServerScope,
}

/// Writes line 1 (without its newline), for the client phase.
fn write_head(w: &mut Writer<'_>, round: u32, local_rounds: u32, touched: &[(u32, u32)]) {
    w.open();
    w.key("round");
    w.uint(round.into());
    w.key("local_rounds");
    w.uint(local_rounds.into());
    w.key("touched_items");
    w.array(touched, |w, &(item, _)| w.uint(item.into()));
    w.key("touched_rounds");
    w.array(touched, |w, &(_, round)| w.uint(round.into()));
    w.close();
}

/// Writes line 3 (without its newline), for [`ClientHost::deliver`]:
/// the dispersal of the round the client trained in, its scores packed
/// from `scores`.
fn write_dispersal(w: &mut Writer<'_>, round: u32, items: &[ScoredItem], scores: &[f32]) {
    w.open();
    w.key("round");
    w.uint(round.into());
    w.key("disp_items");
    w.array(items, |w, &(item, _)| w.uint(item.into()));
    w.key("disp_scores");
    w.f32s(scores);
    w.close();
}

/// Decodes `client`'s parked file `text` onto the client, rebuilt over
/// no item rows. The file is exactly three newline-terminated lines —
///
/// ```text
/// {"round":R,"local_rounds":L,"touched_items":[…],"touched_rounds":[…]}
/// <Recommender::write_full_state envelope, verbatim>
/// {"round":R,"disp_items":[…],"disp_scores":"<packed f32>"}
/// ```
///
/// — whose `round`s agree (see `docs/checkpoint-format.md`). Every line
/// is canonical JSON from the state codec ([`ptf_tensor::packed`]), read
/// by its [`Reader`], which takes nothing but the writer's spelling; the
/// model line holds no raw newline and needs no escaping. Parallel arrays
/// instead of tuple vectors keep the other two lines in the codec's
/// vocabulary: ids and counters are decimal, the dispersed scores one
/// packed string, like every `f32` buffer at rest.
///
/// Each line is decoded straight into the client: the recency index
/// `(item, last-touched round)` from the split arrays, with room for one
/// more round's pool when `cfg` evicts, so the next round's merge grows
/// nothing; the dispersed set `D̃ᵢ` from its ids and scores; the model
/// through its own import, which checks it. Anything but three
/// newline-terminated lines with agreeing rounds, ragged pairs, unsorted
/// recency ids or an item outside the catalogue of `num_items` is an
/// error naming the client — never a panic, here or in the client's next
/// round.
fn read_envelope(
    client: &mut PtfClient,
    text: &[u8],
    num_items: usize,
    cfg: &PtfConfig,
) -> Result<(), String> {
    let id = client.id;
    let fail = |what: &dyn std::fmt::Display| format!("client {id} envelope: {what}");
    // lines 1 and 3 are short: their ends are found from either side, so
    // nothing scans the long model line before its own reader, which
    // takes no newline (a fourth line fails there)
    let lines = text.strip_suffix(b"\n").and_then(|body| {
        let head_end = body.iter().position(|&b| b == b'\n')?;
        let disp_at = body.iter().rposition(|&b| b == b'\n')? + 1;
        let model = body.get(head_end + 1..disp_at - 1)?;
        Some((&body[..head_end], model, &body[disp_at..]))
    });
    let Some((head, model, disp)) = lines else {
        return Err(fail(&"not three newline-terminated lines"));
    };
    let pool = if cfg.storage.evict_interval > 0 {
        client.num_positives() * (1 + cfg.neg_ratio) + cfg.alpha
    } else {
        0
    };
    let (local_rounds, touched, dispersal) = client.parked_state_mut();

    let mut r = Reader::new(head);
    let head = (|| {
        r.open()?;
        r.key("round")?;
        let round = r.u32()?;
        r.key("local_rounds")?;
        *local_rounds = r.u32()?;
        r.key("touched_items")?;
        touched.reserve_exact(r.array_len() + pool);
        r.array(|r| {
            touched.push((r.u32()?, 0));
            Ok(())
        })?;
        r.key("touched_rounds")?;
        let mut k = 0;
        let rounds = r.array(|r| {
            let round = r.u32()?;
            if let Some(entry) = touched.get_mut(k) {
                entry.1 = round;
            }
            k += 1;
            Ok(())
        })?;
        r.close()?;
        Ok::<_, String>((round, rounds))
    })()
    .and_then(|head| r.finish().map(|()| head));
    let (round, rounds) = head.map_err(|e| fail(&format_args!("head: {e}")))?;

    let mut r = Reader::new(disp);
    let disp = (|| {
        r.open()?;
        r.key("round")?;
        let round = r.u32()?;
        r.key("disp_items")?;
        dispersal.reserve_exact(r.array_len());
        r.array(|r| {
            dispersal.push((r.u32()?, 0.0));
            Ok(())
        })?;
        r.key("disp_scores")?;
        let scores = r.packed()?;
        r.close()?;
        Ok::<_, String>((round, scores))
    })()
    .and_then(|disp| r.finish().map(|()| disp));
    let (disp_round, scores) = disp.map_err(|e| fail(&format_args!("dispersal: {e}")))?;

    if disp_round != round {
        return Err(fail(&format_args!(
            "dispersal of round {disp_round} after training in round {round}"
        )));
    }
    if rounds != touched.len() {
        return Err(fail(&"ragged recency index"));
    }
    if !touched.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err(fail(&"recency index not sorted by item"));
    }
    if dispersal.len() != scores.len() {
        return Err(fail(&"ragged dispersed set"));
    }
    let mut entries = dispersal.iter_mut();
    scores
        .unpack_each(|score| entries.next().expect("one entry per score").1 = score)
        .map_err(|e| fail(&format_args!("dispersal: {e}")))?;
    let outside = |item: u32| item as usize >= num_items;
    if touched.iter().any(|&(i, _)| outside(i)) || dispersal.iter().any(|&(i, _)| outside(i)) {
        return Err(fail(&format_args!("item id outside the {num_items}-item catalogue")));
    }
    client.read_model_state(model).map_err(|e| fail(&format_args!("model: {e}")))
}

/// The parked clients' envelope files under one root directory. Load and
/// save run on the parallel workers, each client's file written by the
/// one worker that trained it; save and append write through a buffer the
/// caller keeps.
struct ClientStore {
    root: PathBuf,
}

/// `id`'s envelope file under `root`: `<id % 256, two hex digits>/<id>.json`,
/// built in one allocation sized to fit. The name is formatted on the
/// stack and `root` is pushed as it is, UTF-8 or not.
fn envelope_path(root: &Path, id: u32) -> PathBuf {
    let mut name = [0u8; 18]; // "ff/4294967295.json"
    let mut rest = &mut name[..];
    write!(rest, "{:02x}/{id}.json", id % 256).expect("an envelope name fits 18 bytes");
    let len = 18 - rest.len();
    let name = std::str::from_utf8(&name[..len]).expect("ASCII");
    let mut path = PathBuf::with_capacity(root.as_os_str().len() + 1 + len);
    path.push(root);
    path.push(name);
    path
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
        envelope_path(&self.root, id)
    }

    /// Reads `id`'s envelope into `text` (emptied first), the buffer the
    /// caller keeps; false if the client was never parked.
    fn load(&self, id: u32, text: &mut Vec<u8>) -> bool {
        text.clear();
        match File::open(self.path(id)).and_then(|mut f| f.read_to_end(text)) {
            Ok(_) => true,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(e) => panic!("client store read for {id}: {e}"),
        }
    }

    /// Writes what `write` puts in `text`, emptied first — lines 1–2 of
    /// `id`'s envelope — over its file in place: one write at offset 0,
    /// then `set_len` drops the rest of the previous envelope (the module
    /// docs say why not tmp + rename).
    fn save(&self, id: u32, text: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
        let path = self.path(id);
        let shard = path.parent().expect("an envelope path ends in its shard directory");
        text.clear();
        write(text);
        let open = || OpenOptions::new().write(true).create(true).truncate(false).open(&path);
        let written = open()
            // the shard's first envelope: its directory is missing
            .or_else(|_| std::fs::create_dir_all(shard).and_then(|()| open()))
            .and_then(|mut f| {
                f.write_all(text)?;
                f.set_len(text.len() as u64)
            });
        written.unwrap_or_else(|e| panic!("client store write for {id}: {e}"));
    }

    /// Appends what `write` puts in `line`, emptied first, to `id`'s
    /// envelope, which must exist: one `O_APPEND` write.
    fn append(&self, id: u32, line: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
        line.clear();
        write(line);
        OpenOptions::new()
            .append(true)
            .open(self.path(id))
            .and_then(|mut f| f.write_all(line))
            .unwrap_or_else(|e| panic!("client store append for {id}: {e}"));
    }
}

/// The host whose clients live in envelopes between participations (see
/// module docs): each participant is rebuilt, trained and parked again
/// within its lane.
pub struct Stored {
    client_kind: ModelKind,
    hyper: ModelHyper,
    data: CohortData,
    store: ClientStore,
    /// Each client-phase worker's state, kept across rounds.
    workers: Vec<StoredWorker>,
    /// The line buffer `deliver` writes each dispersal through.
    line: Vec<u8>,
}

/// One [`Stored`] worker's reusable buffers: its lanes' scratch and two
/// envelope texts, one a restore reads into and one a park writes
/// through.
#[derive(Default)]
struct StoredWorker {
    scratch: [RoundScratch; LANES],
    read: Vec<u8>,
    text: Vec<u8>,
}

/// Cohort-sharded PTF-FedRec (see module docs).
pub type CohortFedRec = Round<Stored>;

impl Round<Stored> {
    /// Builds the cohort runtime. Unlike [`crate::PtfFedRec::try_new`]
    /// this constructs *no* clients — they materialize lazily, lane by
    /// lane, as rounds sample them. The store root is emptied, so the
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
        let (workers, line) = (Vec::new(), Vec::new());
        let host = Stored { client_kind, hyper: hyper.clone(), data, store, workers, line };
        Ok(Self::new(cfg, host, server, user_map, trainable))
    }

    /// Rows of the hidden server model's user table — `num_users` under
    /// [`ServerScope::FullFleet`], the active-participant count under
    /// [`ServerScope::ActiveParticipants`].
    pub fn server_users(&self) -> usize {
        self.server.model().num_users()
    }

    /// Serializes the server's full state: a checkpoint's `server.json`.
    pub fn export_server_state(&self) -> Option<String> {
        self.server.export_full_state()
    }

    /// Restores the server from a checkpoint's `server.json`.
    pub fn restore_server_state(&mut self, envelope: &[u8]) -> Result<(), String> {
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
            let text = std::fs::read(src)
                .map_err(|e| format!("committed envelope for client {id}: {e}"))?;
            host.restore_client(id, &text, cfg).map(drop)
        })
    }
}

impl Stored {
    /// Builds user `id`'s client exactly as the resident fleet would —
    /// same partition, same derived `ClientInit` seed — or, to `restore`
    /// it, the same client over no item rows.
    fn build(&self, id: u32, cfg: &PtfConfig, restore: bool) -> PtfClient {
        let mut positives = Vec::new();
        self.data.row_into(id, &mut positives);
        let seed = derive_seed(cfg.seed, 0, RngStream::ClientInit(id).id());
        let (data, kind, num_items) =
            (ClientData { id, positives }, self.client_kind, self.data.num_items());
        if !restore {
            return PtfClient::new(data, kind, &self.hyper, num_items, seed, cfg);
        }
        let model =
            build_model_scoped(kind, 1, &self.hyper, ScopeView::Rows { num_items, ids: &[] }, seed);
        PtfClient::with_model(data, kind, model)
    }

    /// Builds the client over no item rows, then replays its envelope
    /// (model state with its scope, dispersed set, eviction index) onto
    /// it. A damaged envelope is an error naming the client.
    fn restore_client(&self, id: u32, text: &[u8], cfg: &PtfConfig) -> Result<PtfClient, String> {
        let mut client = self.build(id, cfg, true);
        read_envelope(&mut client, text, self.data.num_items(), cfg)?;
        Ok(client)
    }

    /// Parks a trained client: lines 1–2 of its envelope, written
    /// straight into `text` and out in one write.
    /// [`ClientHost::deliver`] appends line 3.
    fn park(&self, client: &PtfClient, round: u32, text: &mut Vec<u8>) {
        let (local_rounds, touched) = client.eviction_state();
        self.store.save(client.id, text, |text| {
            write_head(&mut Writer::new(text), round, local_rounds, touched);
            text.push(b'\n');
            let supported = client.write_model_state(&mut Writer::new(text));
            assert!(supported, "cohort runtime requires full-state model support");
            text.push(b'\n');
        });
    }
}

impl ClientHost for Stored {
    const NAME: &'static str = "PTF-FedRec/cohort";

    fn client_phase(
        &mut self,
        cfg: &PtfConfig,
        round: u32,
        participants: &[u32],
    ) -> (Vec<ClientUpload>, Vec<f32>) {
        // parallel: each worker restores (or builds) its participants as
        // its lanes free up, one derived RNG stream per client, and parks
        // each one as its lane finishes — bit-identical regardless of
        // lanes or thread count. The workers leave `self` for the phase,
        // which every worker reads.
        let mut workers = std::mem::take(&mut self.workers);
        let this = &*self;
        let mut ids = participants.to_vec();
        let trained = map_chunks(cfg.threads, &mut ids, &mut workers, |_, ids, w| {
            let StoredWorker { scratch, read, text } = w;
            let mut out: Vec<Option<(ClientUpload, f32)>> = ids.iter().map(|_| None).collect();
            let clients = ids.iter().map(|&id| {
                if this.store.load(id, read) {
                    this.restore_client(id, read, cfg).unwrap_or_else(|e| panic!("{e}"))
                } else {
                    this.build(id, cfg, false)
                }
            });
            rounds::train_in_lanes(cfg, round, scratch, clients, |at, c, up, loss| {
                this.park(&c, round, text);
                out[at] = Some((up, loss));
            });
            out
        });
        self.workers = workers;
        // uploads in participant order
        trained.into_iter().flatten().map(|r| r.expect("every participant trained")).unzip()
    }

    /// Appends the round's dispersal to each participant's parked
    /// envelope — the stored counterpart of
    /// [`PtfClient::receive_disperse`].
    fn deliver(&mut self, round: u32, dispersals: Vec<(u32, Vec<ScoredItem>)>) {
        let mut scores = Vec::new();
        for (client, items) in dispersals {
            scores.clear();
            scores.extend(items.iter().map(|&(_, s)| s));
            self.store.append(client, &mut self.line, |line| {
                write_dispersal(&mut Writer::new(line), round, &items, &scores);
                line.push(b'\n');
            });
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
            let dest = envelope_path(to, id);
            let shard = dest.parent().expect("an envelope path ends in its shard directory");
            std::fs::create_dir_all(shard).map_err(|e| format!("copy shard: {e}"))?;
            // a copy, never a hard link: the live file is rewritten in place
            std::fs::copy(&path, &dest)
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
    use ptf_federated::RoundCtx;
    use ptf_models::{MfModel, ModelHyper, NeuMf, Recommender, ScopeView};
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

    /// An envelope path is `root/<shard>/<id>.json` under a root that need
    /// not be UTF-8, in a buffer allocated once at its final length.
    #[cfg(unix)]
    #[test]
    fn envelope_paths_shard_by_id_under_any_root() {
        use std::os::unix::ffi::OsStrExt;
        let root = Path::new(std::ffi::OsStr::from_bytes(b"store-\xff"));
        for (id, shard, file) in [(7, "07", "7.json"), (u32::MAX, "ff", "4294967295.json")] {
            let path = envelope_path(root, id);
            assert_eq!(path, root.join(shard).join(file));
            assert_eq!(path.capacity(), path.as_os_str().len());
        }
    }

    /// The decimal encoding lost the sign of `-0.0` on a "bit-identical"
    /// restore, and one non-finite value made the whole export fail — the
    /// cohort host turned that into a panic, `save_checkpoint` into
    /// "server model does not support full-state export". Every state
    /// envelope must carry every bit pattern, export → import → export.
    #[test]
    fn odd_bit_patterns_survive_every_state_envelope() {
        let m = Matrix::from_vec(1, 5, odd());
        let mut json = Vec::new();
        m.write_state(&mut Writer::new(&mut json));
        let mut back = Matrix::default();
        back.read_state(&mut Reader::new(&json), |_, _| Ok(())).unwrap();
        assert_eq!(bits(back.as_slice().iter().copied()), ODD);

        let mut t = RowTable::sparse_zeroed(9, 5);
        t.ensure_many_with(&[4], |_, row| row.copy_from_slice(&odd()));
        let mut json = Vec::new();
        t.write_state(&mut Writer::new(&mut json));
        let mut back = RowTable::sparse_zeroed(0, 0);
        back.read_state(&mut Reader::new(&json), |_, _| Ok(())).unwrap();
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
        let cfg = ModelHyper { dim: 4, mlp_layers: vec![8, 4], lr: 0.01, ..ModelHyper::default() };
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
            let upload = ClientUpload { client: 1, predictions };
            server.train_on_uploads(&[upload], &cfg, &mut test_rng(2));
            server.export_full_state().expect("the server exports")
        };
        let tame = [0.25, 0.5, 0.75, 1.0, 0.0];
        let envelope = trained(ModelKind::LightGcn, &tame);
        let mut field = br#""edge_scores":"#.to_vec();
        Writer::new(&mut field).f32s(&tame);
        let field = String::from_utf8(field).unwrap();
        assert!(envelope.contains(&field), "{envelope}");
        let envelope = envelope.replace(&field, &format!(r#""edge_scores":"{ODD_HEX}""#));
        let back = PtfServer::import_full_state(
            envelope.as_bytes(),
            2,
            9,
            ModelKind::LightGcn,
            &hyper,
            0.5,
        );
        assert_eq!(back.unwrap().export_full_state().unwrap(), envelope);

        // a graph-less server keeps no edge memory, whatever it trains on
        // (the odd scores drive the hidden MF model itself to NaN): its
        // edge arrays are empty, and stay empty through import and re-export
        let envelope = trained(ModelKind::Mf, &odd());
        let empty = r#""edge_users":[],"edge_items":[],"edge_scores":"""#;
        assert!(envelope.contains(empty), "{envelope}");
        let back =
            PtfServer::import_full_state(envelope.as_bytes(), 2, 9, ModelKind::Mf, &hyper, 0.5);
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
            workers: Vec::new(),
            line: Vec::new(),
        };
        let client = host.build(1, &cfg, false);
        host.park(&client, 0, &mut Vec::new());
        host.deliver(0, vec![(1, scored)]);
        let parked = parked_file(&host, 1).unwrap();
        let restored = host.restore_client(1, &parked, &cfg).unwrap();
        assert_eq!(bits(restored.server_data().iter().map(|&(_, s)| s)), ODD);
        host.park(&restored, 0, &mut Vec::new());
        host.deliver(0, vec![(1, restored.server_data().to_vec())]);
        assert_eq!(parked_file(&host, 1).unwrap(), parked, "re-parking changed the envelope");
    }

    /// Client `id`'s parked file, read as a round reads it.
    fn parked_file(host: &Stored, id: u32) -> Option<Vec<u8>> {
        let mut text = vec![b'x'; 3];
        host.store.load(id, &mut text).then_some(text)
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
        let (uploads, _) = fed.host.client_phase(&fed.cfg, round, &participants);
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
    /// left behind, and the result restores. A park writes over the
    /// previous round's longer file in place and must leave exactly its
    /// own two lines, not a tail of the old third.
    #[test]
    fn deliver_appends_exactly_one_line_to_each_parked_file() {
        let root = TempRoot::new("append");
        let mut fed = small_fed(&root, 5);
        let mut overwrote_longer = 0;
        for round in 0..3 {
            let previous = store_files(&root.0);
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
                overwrote_longer +=
                    previous.get(path).is_some_and(|p| p.len() > before.len()) as usize;
                assert_eq!(before.iter().filter(|&&b| b == b'\n').count(), 2, "{path:?}");
                assert_eq!(before.last(), Some(&b'\n'), "{path:?}");
                let head = std::str::from_utf8(before).unwrap().lines().next().unwrap();
                let mut head = Reader::new(head.as_bytes());
                head.open().and_then(|()| head.key("round")).expect("line 1 is a head");
                assert_eq!(head.u32(), Ok(round), "{path:?}");
                let after = &delivered[path];
                let line = after.strip_prefix(before.as_slice()).expect("parked bytes unchanged");
                assert_eq!(line.iter().position(|&b| b == b'\n'), Some(line.len() - 1), "{path:?}");
                let id = path.file_stem().unwrap().to_str().unwrap().parse().unwrap();
                fed.host
                    .restore_client(id, after, &fed.cfg)
                    .expect("a delivered envelope restores");
            }
        }
        assert!(overwrote_longer > 0, "no park wrote over a longer envelope");
    }

    /// A parked client file is part of the checkpoint format
    /// (`docs/checkpoint-format.md`): a tiny one is pinned as text, and a
    /// client of [`small_fed`] after three rounds with eviction by its
    /// length and FNV-1a digest.
    #[test]
    fn a_parked_client_file_is_pinned() {
        let cfg = PtfConfig::small();
        let hyper = ModelHyper { dim: 1, ..ModelHyper::small() };
        let data = SyntheticConfig::new("pin", 2, 8, 2.0).generate(&mut test_rng(3));
        let root = TempRoot::new("pin");
        let mut host = Stored {
            client_kind: ModelKind::Mf,
            hyper,
            data: CohortData::Mem(data),
            store: ClientStore::empty_at(root.0.clone()).expect("temp store root"),
            workers: Vec::new(),
            line: Vec::new(),
        };
        let mut client = host.build(1, &cfg, false);
        client.restore_eviction_state(3, vec![(2, 1), (5, 0)]);
        host.park(&client, 1, &mut Vec::new());
        host.deliver(1, vec![(1, vec![(3, 0.5), (0, -0.0)])]);
        assert_eq!(
            String::from_utf8(parked_file(&host, 1).unwrap()).unwrap(),
            concat!(
                r#"{"round":1,"local_rounds":3,"touched_items":[2,5],"touched_rounds":[1,0]}"#,
                "\n",
                r#"{"arch":"MF","user_emb":{"rows":1,"cols":1,"data":"3d46be27"},"items":{"num_items":8,"cols":2,"ids":[0,1,2,3,5],"data":"bdf521ff000000003df9e66100000000bde12d4e00000000be2821c1000000003dbbdc9000000000","init_seed":"8272495485c8a93b","init_std":0.10000000149011612,"init_cols":1}}"#,
                "\n",
                r#"{"round":1,"disp_items":[3,0],"disp_scores":"3f00000080000000"}"#,
                "\n",
            )
        );

        let root = TempRoot::new("pin-fed");
        let mut fed = small_fed(&root, 5);
        for round in 0..3 {
            round_by_hand(&mut fed, round, |_| {});
        }
        let id = fed.trainable()[1];
        let parked = parked_file(&fed.host, id).unwrap();
        assert_eq!(parked.iter().filter(|&&b| b == b'\n').count(), 3);
        let got = (parked.len(), crate::fingerprint::fnv1a64(&parked));
        assert_eq!(got, (4_514, 0x3fc6_b192_baf0_5d73), "client {id}'s parked file drifted");
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
        fn of(kind: u8, at: f64, mask: u8, pick: usize, text: &[u8]) -> Self {
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

        /// The damaged bytes; a flip may leave them not UTF-8, which the
        /// decoder sees like any other damage.
        fn apply(&self, text: &[u8]) -> Vec<u8> {
            let mut lines: Vec<&[u8]> = text.split_inclusive(|&b| b == b'\n').collect();
            match *self {
                Self::Truncate(at) => return text[..at].to_vec(),
                Self::Flip(at, mask) => {
                    let mut bytes = text.to_vec();
                    bytes[at] ^= mask;
                    return bytes;
                }
                Self::Drop(k) => drop(lines.remove(k)),
                Self::Duplicate(k) => lines.insert(k, lines[k]),
                Self::Swap(a, b) => lines.swap(a, b),
                Self::NextRoundDispersal => {
                    let [head, model, disp] =
                        [0, 1, 2].map(|k| std::str::from_utf8(lines[k]).expect("UTF-8 lines"));
                    let round: u32 = head
                        .strip_prefix(r#"{"round":"#)
                        .and_then(|rest| rest.split(',').next()?.parse().ok())
                        .expect("line 1 opens with the round");
                    let from = format!(r#"{{"round":{round},"#);
                    let line = disp.replacen(&from, &format!(r#"{{"round":{},"#, round + 1), 1);
                    assert_ne!(line, disp, "line 3 opens with the same round");
                    return format!("{head}{model}{line}").into_bytes();
                }
            }
            lines.concat()
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
            let intact = parked_file(&fed.host, id).expect("every participant is parked");
            let client = fed.host.restore_client(id, &intact, &fed.cfg).map_err(TestCaseError::fail)?;
            fed.host.park(&client, 1, &mut Vec::new());
            fed.host.deliver(1, vec![(id, client.server_data().to_vec())]);
            prop_assert!(parked_file(&fed.host, id).as_ref() == Some(&intact), "re-parking changed the envelope");

            let damage = Damage::of(kind, at, mask, pick, &intact);
            let damaged = damage.apply(&intact);
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
