//! Deterministic parallel client execution.
//!
//! Every protocol round in this workspace is a two-phase map/reduce:
//!
//! 1. **Parallel client phase** — each sampled participant's local work
//!    (training, negative sampling, upload construction) runs on a
//!    [`Scheduler`] worker, touching only client-local state plus
//!    read-only server state.
//! 2. **Serial aggregation phase** — the buffered per-client results are
//!    replayed on the caller's thread **in participant order**: wire
//!    events go into the [`crate::RoundCtx`] exactly as a serial loop
//!    would have emitted them, and server state is updated.
//!
//! # Why runs are bit-identical at any thread count
//!
//! Two things traditionally make parallel simulations drift:
//!
//! * **Shared RNG streams.** A single `StdRng` threaded through the
//!   client loop makes every draw depend on every previous client's draw
//!   count. This module replaces it with *derived streams*: each logical
//!   consumer gets its own generator seeded by [`round_rng`] from the
//!   triple `(master seed, round, stream)` via two rounds of
//!   SplitMix64-style finalization (see [`derive_seed`]). A client's
//!   stream depends only on *who it is and which round it is* — never on
//!   scheduling, thread count, or sibling clients.
//! * **Reduction order.** Floating-point accumulation does not commute
//!   bit-for-bit, so all cross-client reductions (loss averaging, delta
//!   aggregation, observer callbacks) happen in the serial phase in
//!   participant order. The parallel phase only produces per-client
//!   values; [`ptf_tensor::par`] returns them in input order regardless
//!   of which worker computed what.
//!
//! Together these give the headline guarantee: for a fixed seed, a run is
//! **byte-identical at 1, 2, or 64 threads** — serial execution is just
//! the `threads = 1` special case of the same code path.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Reusable per-worker buffers for the parallel client phase.
///
/// Every protocol's hot path used to allocate fresh vectors per client
/// per round — negative-sample pools, training triples, score buffers,
/// upload staging. A `RoundScratch` owns all of them; workers check one
/// out of a [`ScratchPool`] for each client task, every consumer clears
/// a buffer before reading it, and capacities survive across rounds, so
/// a steady-state round allocates nothing on the client path (asserted
/// end-to-end by the release-mode allocator-shim test; see
/// `ptf_tensor::alloc`).
///
/// Reuse is observationally pure: results depend only on
/// `(client, round, seed)`, never on which warmed buffer served the task
/// — thread-count parity already hands each client a different buffer at
/// 1 vs 8 threads, and this module's tests compare the pooled map with
/// every client served a fresh `RoundScratch`.
#[derive(Default)]
pub struct RoundScratch {
    /// Sampled negative item ids ([`ptf_data::negative::sample_negatives_into`]).
    pub negatives: Vec<u32>,
    /// Sorted unique ids of the round's whole trained pool, handed to
    /// `Recommender::prepare_items` so scoped models batch-materialize
    /// their rows in one pass.
    pub pool_ids: Vec<u32>,
    /// One bit per catalogue item, left empty by every call: the
    /// rejection-sampling workspace of negative sampling, and the union
    /// that lays out `pool_ids`.
    pub seen: ptf_data::negative::ItemBits,
    /// `(user, item, label)` training triples.
    pub triples: Vec<(u32, u32, f32)>,
    /// `(item row, label)` training samples of a one-user MF client, each
    /// item id resolved to its table row once a round, after the round's
    /// rows are prepared (`ptf_models::mf::MfLane`).
    pub row_samples: Vec<(u32, f32)>,
    /// `(item, label-or-score)` pairs (single-user sample lists).
    pub pairs: Vec<(u32, f32)>,
    /// Weighted `(user, item, weight)` edges for graph-model clients.
    pub edges: Vec<(u32, u32, f32)>,
    /// Model scores for the positive pool.
    pub scores_pos: Vec<f32>,
    /// Model scores for the negative pool.
    pub scores_neg: Vec<f32>,
    /// Scored positives (upload staging).
    pub scored_pos: Vec<(u32, f32)>,
    /// Scored negatives (upload staging).
    pub scored_neg: Vec<(u32, f32)>,
    /// The pairs a sampling defense keeps of one scored pool.
    pub picked: Vec<(u32, f32)>,
    /// Index workspaces of the sampling and swap defenses: the sampled
    /// positions in the positive and negative pools, then the positives'
    /// rank order and the negatives' swap partners.
    pub pos_idx: Vec<usize>,
    pub neg_idx: Vec<usize>,
    /// An eviction pass's keep set (sorted ids) and the last-touched
    /// rounds it ranks the rows outside the pool by.
    pub keep: Vec<u32>,
    pub recency: Vec<u32>,
}

/// A shared checkout/restore pool of [`RoundScratch`] values — a thin
/// alias over the generic [`ptf_tensor::par::Pool`].
pub type ScratchPool = ptf_tensor::par::Pool<RoundScratch>;

/// A logical random stream within one `(seed, round)` scope.
///
/// Streams are spaced so that no two variants can collide for any client
/// id: the discriminant occupies the high bits of the mixed word while
/// the client id occupies the low 32.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RngStream {
    /// Participant sampling (one draw sequence per round).
    Participation,
    /// One client's local phase (training, negative sampling, defenses).
    Client(u32),
    /// Server-side training for the round.
    Server,
    /// Server-side dispersal targeted at one client.
    Disperse(u32),
    /// Sample shuffling in protocols that shuffle a global pool.
    Shuffle,
    /// Per-client model construction during the federation build (the
    /// parallel build derives one stream per client, so client `c`'s
    /// initial model never depends on how many siblings built before it).
    ClientInit(u32),
    /// Server model construction during the federation build.
    ServerInit,
}

impl RngStream {
    /// The stream discriminant mixed into [`derive_seed`] (public so
    /// callers outside the round loop — e.g. scoped model construction —
    /// can derive seeds on the same namespace without collisions).
    pub fn id(self) -> u64 {
        match self {
            Self::Participation => 0x0100_0000_0000,
            Self::Client(c) => 0x0200_0000_0000 | c as u64,
            Self::Server => 0x0300_0000_0000,
            Self::Disperse(c) => 0x0400_0000_0000 | c as u64,
            Self::Shuffle => 0x0500_0000_0000,
            Self::ClientInit(c) => 0x0600_0000_0000 | c as u64,
            Self::ServerInit => 0x0700_0000_0000,
            // 0x0800_0000_0000 is reserved by `ptf_data::scale::SCALE_STREAM`
            // (per-user synthetic row generation) — keep new variants clear
            // of it.
        }
    }
}

/// Mixes `(master, round, stream)` into one well-distributed 64-bit seed
/// — re-exported from [`ptf_tensor::rowtable`], which owns the
/// workspace's single SplitMix-style derivation primitive (scoped
/// embedding tables derive their per-row initializers from the same
/// function, which is what keeps rows grown in any round deterministic).
pub use ptf_tensor::rowtable::derive_seed;

/// The per-round generator of one [`RngStream`] under `master`.
pub fn round_rng(master: u64, round: u32, stream: RngStream) -> StdRng {
    StdRng::seed_from_u64(derive_seed(master, round as u64, stream.id()))
}

/// A worker pool handle for the parallel client phase.
///
/// Thin wrapper over [`ptf_tensor::par`] carrying the resolved thread
/// count; protocols build one from their config's `threads` knob
/// (`0` = every hardware thread) and reuse it each round.
#[derive(Clone, Copy, Debug)]
pub struct Scheduler {
    threads: usize,
}

impl Scheduler {
    /// `requested == 0` resolves to the number of hardware threads.
    pub fn new(requested: usize) -> Self {
        Self { threads: ptf_tensor::par::resolve_threads(requested) }
    }

    /// The resolved worker count (≥ 1).
    pub fn threads(self) -> usize {
        self.threads
    }

    /// Ordered parallel map over `0..n` (e.g. one task per user).
    pub fn map_indices<R, F>(self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        ptf_tensor::par::map_indices(self.threads, n, f)
    }

    /// Ordered parallel map over mutably borrowed per-client state, with a
    /// per-task [`RoundScratch`] checked out of `pool` — the
    /// allocation-free client phase every protocol's round loop runs on.
    pub fn map_clients_with<T, R, F>(self, pool: &ScratchPool, clients: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut RoundScratch, usize, &mut T) -> R + Sync,
    {
        ptf_tensor::par::map_slice_mut(self.threads, clients, |i, t| {
            let mut scratch = pool.checkout();
            let out = f(&mut scratch, i, t);
            pool.restore(scratch);
            out
        })
    }

    /// Ordered parallel map over contiguous slices of mutably borrowed
    /// per-client state, one slice per worker, each worker holding `N`
    /// [`RoundScratch`]es from `pool` — for a worker that interleaves its
    /// clients itself (the lane driver of `ptf_core::rounds`). Returns one
    /// result per worker, in input order.
    pub fn map_slices_with<T, R, F, const N: usize>(
        self,
        pool: &ScratchPool,
        clients: &mut [T],
        f: F,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut [RoundScratch; N], &mut [T]) -> R + Sync,
    {
        ptf_tensor::par::map_chunks_mut(self.threads, clients, |_, slice| {
            let mut scratch: [RoundScratch; N] = std::array::from_fn(|_| pool.checkout());
            let out = f(&mut scratch, slice);
            // restored in reverse, so the next checkout hands each slot
            // the same warmed buffers
            for s in scratch.into_iter().rev() {
                pool.restore(s);
            }
            out
        })
    }

    /// [`Scheduler::map_indices`] with a per-task [`RoundScratch`].
    pub fn map_indices_with<R, F>(self, pool: &ScratchPool, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut RoundScratch, usize) -> R + Sync,
    {
        ptf_tensor::par::map_indices(self.threads, n, |i| {
            let mut scratch = pool.checkout();
            let out = f(&mut scratch, i);
            pool.restore(scratch);
            out
        })
    }
}

impl Default for Scheduler {
    /// All hardware threads.
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_disjoint_within_a_round() {
        let mut seeds = vec![
            derive_seed(7, 0, RngStream::Participation.id()),
            derive_seed(7, 0, RngStream::Server.id()),
            derive_seed(7, 0, RngStream::Shuffle.id()),
        ];
        seeds.push(derive_seed(7, 0, RngStream::ServerInit.id()));
        for c in 0..100u32 {
            seeds.push(derive_seed(7, 0, RngStream::Client(c).id()));
            seeds.push(derive_seed(7, 0, RngStream::Disperse(c).id()));
            seeds.push(derive_seed(7, 0, RngStream::ClientInit(c).id()));
        }
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "derived seeds collided");
    }

    #[test]
    fn derivation_depends_on_every_input() {
        let base = derive_seed(1, 2, 3);
        assert_ne!(base, derive_seed(2, 2, 3));
        assert_ne!(base, derive_seed(1, 3, 3));
        assert_ne!(base, derive_seed(1, 2, 4));
        assert_eq!(base, derive_seed(1, 2, 3));
    }

    #[test]
    fn client_stream_is_independent_of_other_clients() {
        // the whole point: client 5's stream is the same whether clients
        // 0..4 ran before it or not (no shared generator state)
        let mut a = round_rng(11, 3, RngStream::Client(5));
        let _burn: Vec<u64> =
            (0..40).map(|c| round_rng(11, 3, RngStream::Client(c)).gen()).collect();
        let mut b = round_rng(11, 3, RngStream::Client(5));
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn scheduler_resolves_thread_knob() {
        assert!(Scheduler::new(0).threads() >= 1);
        assert_eq!(Scheduler::new(4).threads(), 4);
        assert_eq!(Scheduler::default().threads(), Scheduler::new(0).threads());
    }

    #[test]
    fn scratch_map_is_pure_across_threads() {
        // the pooled map must be bit-identical to serving every client a
        // fresh buffer, at any thread count — buffers only change where
        // bytes live
        let task = |s: &mut RoundScratch, i: usize, c: &mut u32| {
            let mut rng = round_rng(9, 1, RngStream::Client(i as u32));
            s.negatives.clear();
            s.negatives.extend((0..*c).map(|_| rng.gen_range(0..100u32)));
            *c += 1;
            s.negatives.iter().map(|&x| x as u64).sum::<u64>() ^ *c as u64
        };
        let mut state: Vec<u32> = (0..23).collect();
        let fresh: Vec<u64> = state
            .iter_mut()
            .enumerate()
            .map(|(i, c)| task(&mut RoundScratch::default(), i, c))
            .collect();
        for threads in [1, 2, 8] {
            let mut state: Vec<u32> = (0..23).collect();
            let pooled =
                Scheduler::new(threads).map_clients_with(&ScratchPool::new(), &mut state, task);
            assert_eq!(pooled, fresh, "{threads} threads");
        }
    }
}
