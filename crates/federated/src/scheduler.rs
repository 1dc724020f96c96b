//! Deterministic parallel client execution.
//!
//! Every protocol round in this workspace is a two-phase map/reduce:
//!
//! 1. **Parallel client phase** — each sampled participant's local work
//!    (training, negative sampling, upload construction) runs on a
//!    worker of [`ptf_tensor::par::map_chunks`], touching only
//!    client-local state, the worker's own [`RoundScratch`], and
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
/// upload staging. A `RoundScratch` owns all of them. Each protocol
/// keeps one (or one set) per worker across rounds and hands chunk *k* of
/// [`ptf_tensor::par::map_chunks`] its worker *k*'s; every consumer clears
/// a buffer before reading it, and capacities survive across rounds, so
/// a steady-state round allocates nothing on the client path (asserted
/// end-to-end by the allocator-shim tests in `tests/hot_path.rs`; see
/// `ptf_tensor::alloc`).
///
/// Reuse is observationally pure: results depend only on
/// `(client, round, seed)`, never on which warmed buffer served the task
/// — thread-count parity already hands each client a different buffer at
/// 1 vs 8 threads, and this module's tests compare a map over warmed
/// per-worker scratch with every client served a fresh `RoundScratch`.
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

impl RoundScratch {
    /// Grows each buffer of every scratch in `set` to the largest
    /// capacity that buffer has anywhere in `set`, exactly. A worker
    /// levels its lanes after a round, so each lane can then hold any
    /// client the worker served, whichever lane that client lands in
    /// next: the lane a client gets shifts from round to round with the
    /// other clients' pool sizes.
    pub fn level(set: &mut [RoundScratch]) {
        fn level<T>(set: &mut [RoundScratch], field: fn(&mut RoundScratch) -> &mut Vec<T>) {
            let cap = set.iter_mut().map(|s| field(s).capacity()).max().unwrap_or(0);
            for v in set.iter_mut().map(field) {
                v.reserve_exact(cap - v.len());
            }
        }
        level(set, |s| &mut s.negatives);
        level(set, |s| &mut s.pool_ids);
        level(set, |s| &mut s.triples);
        level(set, |s| &mut s.row_samples);
        level(set, |s| &mut s.pairs);
        level(set, |s| &mut s.edges);
        level(set, |s| &mut s.scores_pos);
        level(set, |s| &mut s.scores_neg);
        level(set, |s| &mut s.scored_pos);
        level(set, |s| &mut s.scored_neg);
        level(set, |s| &mut s.picked);
        level(set, |s| &mut s.pos_idx);
        level(set, |s| &mut s.neg_idx);
        level(set, |s| &mut s.keep);
        level(set, |s| &mut s.recency);
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use ptf_tensor::par::map_chunks;
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
    fn scratch_map_is_pure_across_threads() {
        // a map over per-worker scratch must be bit-identical to serving
        // every client a fresh buffer, at any thread count and with the
        // buffers the previous round warmed — buffers only change where
        // bytes live
        let task = |s: &mut RoundScratch, i: usize, c: &mut u32| {
            let mut rng = round_rng(9, 1, RngStream::Client(i as u32));
            s.negatives.clear();
            s.negatives.extend((0..*c).map(|_| rng.gen_range(0..100u32)));
            *c += 1;
            s.negatives.iter().map(|&x| x as u64).sum::<u64>() ^ *c as u64
        };
        let mut state: Vec<u32> = (0..23).collect();
        let fresh: Vec<Vec<u64>> = (0..2)
            .map(|_| {
                let each = state.iter_mut().enumerate();
                each.map(|(i, c)| task(&mut RoundScratch::default(), i, c)).collect()
            })
            .collect();
        for threads in [1, 2, 8] {
            let (mut state, mut workers): (Vec<u32>, Vec<RoundScratch>) =
                ((0..23).collect(), vec![]);
            for round in &fresh {
                let mapped: Vec<u64> =
                    map_chunks(threads, &mut state, &mut workers, |at, cs, s| {
                        let each = cs.iter_mut().enumerate();
                        each.map(|(i, c)| task(s, at + i, c)).collect::<Vec<u64>>()
                    })
                    .concat();
                assert_eq!(&mapped, round, "{threads} threads");
            }
        }
    }
}
