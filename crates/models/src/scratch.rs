//! Reusable per-model training scratch.
//!
//! Every tape-backed model's (NGCF, LightGCN) `train_batch` needs the
//! same transient state: staging vectors splitting the batch into
//! user/item-row/label columns, and a [`GraphArena`] for the tape. The model's
//! [`crate::scoped::ScopedParams`] holds one [`BatchScratch`] and restages
//! each batch over it, which makes the steady-state training loop
//! allocation-free — the buffers grow to the largest batch seen and are
//! then reused verbatim (asserted by the counting-allocator hot-path
//! tests).

use ptf_tensor::GraphArena;

/// Batch-staging vectors plus the autograd arena, reused across
/// `train_batch` calls.
#[derive(Default)]
pub(crate) struct BatchScratch {
    pub users: Vec<u32>,
    /// Row of each batch item in the scoped embedding parameter (for the
    /// graph models that is the item's node index).
    pub rows: Vec<u32>,
    pub labels: Vec<f32>,
    pub arena: GraphArena,
}
