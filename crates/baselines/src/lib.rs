//! # ptf-baselines
//!
//! The comparison points of the paper's evaluation:
//!
//! * [`centralized`] — NeuMF/NGCF/LightGCN trained with full data access
//!   (Table III upper bounds), driveable round-by-round as a protocol;
//! * [`fcf`] — Federated Collaborative Filtering, the canonical
//!   parameter-transmission FedRec;
//! * [`fedmf`] — FCF dynamics with homomorphically encrypted gradient
//!   uploads ([`he`] provides the simulated additively homomorphic
//!   cipher — see DESIGN.md §4 for the substitution note);
//! * [`metamf`] — a hypernetwork server generating personalized item
//!   embeddings.
//!
//! Every baseline implements [`ptf_federated::FederatedProtocol`] — the
//! same trait as `ptf_core::PtfFedRec` — so the CLI, examples, and bench
//! harness run all of them through one `ptf_federated::Engine` code path.

pub mod centralized;
pub mod fcf;
pub mod fedmf;
pub mod he;
pub mod metamf;

pub use centralized::{Centralized, CentralizedConfig};
pub use fcf::{Fcf, FcfConfig};
pub use fedmf::{FedMf, FedMfConfig};
pub use he::HeContext;
pub use metamf::{MetaMf, MetaMfConfig};
// Re-exported so baseline users need only this crate in scope.
pub use ptf_federated::{Engine, FederatedProtocol};
