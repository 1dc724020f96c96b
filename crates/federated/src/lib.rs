//! # ptf-federated
//!
//! The federated-learning substrate shared by PTF-FedRec and the
//! parameter-transmission baselines:
//!
//! * [`client`] — per-client data partitions of a dataset (each user *is*
//!   a client in federated recommendation);
//! * [`sampler`] — per-round participant selection (`U^t ⊆ U`);
//! * [`sim`] — round-by-round run traces every protocol reports;
//! * [`engine`] — the [`FederatedProtocol`] trait and the [`Engine`] that
//!   drives any protocol through a pluggable observer stack and keeps the
//!   run's trace;
//! * [`observer`] — the [`RoundObserver`] hook API (communication ledger,
//!   custom sinks);
//! * [`scheduler`] — the per-worker [`RoundScratch`] and the
//!   per-`(seed, round, stream)` RNG derivation every protocol's
//!   two-phase round loop is built on (its parallel phase runs on
//!   `ptf_tensor::par::map_chunks`).

pub mod client;
pub mod engine;
pub mod observer;
pub mod sampler;
pub mod scheduler;
pub mod sim;

pub use client::{partition_clients, ClientData};
pub use engine::{Engine, FederatedProtocol, RoundCtx};
pub use observer::RoundObserver;
pub use sampler::Participation;
pub use scheduler::{derive_seed, round_rng, RngStream, RoundScratch};
pub use sim::{RoundTrace, RunTrace};
