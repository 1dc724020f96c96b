//! The cohort runtime's flat-heap guarantee: peak heap is bounded by the
//! clients in training, not the fleet.
//!
//! This binary installs the `ptf_tensor::alloc::CountingAlloc` shim and
//! runs the same few `CohortFedRec` rounds (streamed on-disk arena, disk
//! envelope store, `ServerScope::ActiveParticipants`, same cohort and
//! participant count) at growing user counts. The runtime's heap has two
//! parts:
//!
//! * a part bounded by the clients in training (each is parked as its
//!   lane finishes, so at most threads × 4 are live) — their models,
//!   server state, scratch — identical across user counts, and
//! * O(users) *index* transients that are fundamental and cheap: the
//!   arena writer's u64 indptr (8 B/user, freed when generation
//!   finishes), the trainable-user sweep and the per-round partial
//!   Fisher-Yates participation draw (4 B/user of u32 each).
//!
//! So `peak(large) − peak(small)` may reach
//! `PER_USER_BYTES × Δusers + ABS_SLACK_BYTES` and nothing more; any
//! per-user *model* state (tens of KB per user) exceeds the bound by
//! orders of magnitude. Measured (MF/MF, 3 rounds, 256 participants,
//! release build): 10k users → 2.8 MB peak, 100k → 3.7 MB, 1M → 10.6 MB
//! — ~8 B/user of growth, i.e. the indptr.
//!
//! `alloc::peak_bytes` is process-wide, so the two tests below serialize
//! on [`MEASURING`]; keep every test in this binary behind it.

use ptf_fedrec::core::{
    CohortData, CohortFedRec, CohortOptions, DefenseKind, PtfConfig, ServerScope, StoreKind,
};
use ptf_fedrec::data::{CsrArena, ScaleConfig};
use ptf_fedrec::federated::{Engine, Participation};
use ptf_fedrec::models::{ModelHyper, ModelKind};
use ptf_fedrec::tensor::alloc;
use std::path::PathBuf;
use std::sync::Mutex;

#[global_allocator]
static COUNTER: alloc::CountingAlloc = alloc::CountingAlloc;

static MEASURING: Mutex<()> = Mutex::new(());

/// 2× the measured ~8 B/user, so variance in transient high-water marks
/// cannot flake the bound while per-user model state still fails it.
const PER_USER_BYTES: usize = 16;
const ABS_SLACK_BYTES: usize = 8 << 20;

/// The small fleet every larger one is compared against.
const BASE_USERS: usize = 10_000;
const ROUNDS: u32 = 3;
const PARTICIPANTS: usize = 256;
const COHORT: usize = 1024;
const SEED: u64 = 2024;

struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Live-heap high-water mark over arena generation, `CohortFedRec`
/// construction and [`ROUNDS`] rounds at `users` users.
fn peak_heap_at(users: usize) -> usize {
    let sc = ScaleConfig::new(format!("flat-heap-{users}"), users);
    let root = std::env::temp_dir().join(format!("ptf-flat-heap-{}-{users}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let _cleanup = RemoveOnDrop(root.clone());
    std::fs::create_dir_all(&root).expect("scratch dir");
    let arena_path = root.join("data.arena");

    let mut cfg = PtfConfig::paper();
    cfg.rounds = ROUNDS;
    cfg.client_epochs = 1;
    cfg.seed = SEED;
    cfg.defense = DefenseKind::NoDefense;
    cfg.participation = Participation { fraction: 0.0, min_clients: PARTICIPANTS };

    alloc::reset_peak();
    sc.write_arena(SEED, &arena_path).expect("arena generation");
    let arena = CsrArena::open(&arena_path).expect("arena open");
    let opts = CohortOptions {
        cohort: COHORT,
        store: StoreKind::Disk(root.join("clients")),
        server_scope: ServerScope::ActiveParticipants,
    };
    let fed = CohortFedRec::try_new(
        CohortData::Arena(arena),
        ModelKind::Mf,
        ModelKind::Mf,
        &ModelHyper::default(),
        cfg,
        opts,
    )
    .expect("scale config is valid");
    let mut engine = Engine::new(fed);
    let trace = engine.run();
    let peak = alloc::peak_bytes();
    assert_eq!(trace.num_rounds(), ROUNDS as usize);
    peak
}

/// Asserts the bound on the heap growth from [`BASE_USERS`] to `large` users.
fn assert_flat(large: usize) {
    let small = BASE_USERS;
    let _serial = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let base = peak_heap_at(small);
    assert!(alloc::total_allocs() > 0, "the counting shim must be live in this binary");
    let peak = peak_heap_at(large);
    let growth = peak.saturating_sub(base);
    let allowed = PER_USER_BYTES * (large - small) + ABS_SLACK_BYTES;
    println!(
        "{small} -> {large} users: peak heap {:.1} -> {:.1} MB, growth {growth} B (allowed {allowed} B)",
        base as f64 / (1 << 20) as f64,
        peak as f64 / (1 << 20) as f64,
    );
    assert!(
        growth <= allowed,
        "peak heap grew {growth} bytes from {small} to {large} users (> {allowed} = \
         {PER_USER_BYTES} B/user + slack) — per-user state leaked into the cohort runtime"
    );
}

#[test]
fn peak_heap_is_bounded_by_the_cohort_not_the_fleet() {
    assert_flat(100_000);
}

/// The million-user point: an 84 MB arena and minutes in a debug build,
/// so the CI `scale-smoke` leg runs it in release (`--include-ignored`).
#[test]
#[ignore = "1M-user arena: run in release with --include-ignored"]
fn peak_heap_stays_flat_at_a_million_users() {
    assert_flat(1_000_000);
}
