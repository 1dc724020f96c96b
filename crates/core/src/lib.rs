//! # ptf-core
//!
//! **PTF-FedRec** — the parameter transmission-free federated
//! recommendation protocol of *"Hide Your Model: A Parameter
//! Transmission-free Federated Recommender System"* (ICDE 2024).
//!
//! Instead of shipping model parameters, clients and the central server
//! exchange *prediction triples*:
//!
//! 1. [`rounds::client_round`] — each client trains its small local
//!    model on `D_i ∪ D̃_i` (Eq. 3) and uploads a subsampled,
//!    score-swapped prediction set `D̂ᵗᵢ` ([`upload`], §III-B2);
//! 2. [`server::PtfServer::train_on_uploads`] — the server trains its
//!    *hidden* model on the union of uploads with soft-label BCE (Eq. 5);
//! 3. [`server::PtfServer::disperse_for`] — the server returns α
//!    confidence/hard scored items per client ([`disperse`], §III-B3):
//!    the confidence share, then the hard share, each in rank order.
//!
//! [`protocol::Round`] implements Algorithm 1 as a
//! [`ptf_federated::FederatedProtocol`], once, over a
//! [`protocol::ClientHost`]: [`PtfFedRec`] keeps the fleet resident,
//! [`CohortFedRec`] parks it in envelopes, and `ptf-net`'s round server
//! reaches it over a transport. Wrap the driver in an
//! [`ptf_federated::Engine`], which keeps the run's trace and whose
//! observer stack carries the communication ledger and any custom
//! [`ptf_federated::RoundObserver`]:
//!
//! ```no_run
//! use ptf_core::{PtfConfig, PtfFedRec};
//! use ptf_data::{DatasetPreset, Scale, TrainTestSplit};
//! use ptf_federated::Engine;
//! use ptf_models::{ModelHyper, ModelKind};
//!
//! let split = DatasetPreset::MovieLens100K.split(Scale::Small, 7);
//!
//! let protocol = PtfFedRec::try_new(
//!     &split.train,
//!     ModelKind::NeuMf, // public client model
//!     ModelKind::Ngcf,  // hidden server model — never transmitted
//!     &ModelHyper::default(),
//!     PtfConfig::paper(),
//! )?; // ConfigError instead of a panic
//! let mut fed = Engine::new(protocol);
//! let trace = fed.run(); // every round's RoundTrace, kept by the engine
//! println!("{}", fed.evaluate(&split.train, &split.test, 20));
//! println!("{} rounds, {} bytes", trace.num_rounds(), trace.total_bytes());
//! # Ok::<(), ptf_core::ConfigError>(())
//! ```

pub mod checkpoint;
pub mod client;
pub mod cohort;
pub mod config;
pub mod disperse;
pub mod fingerprint;
pub mod protocol;
pub mod rounds;
pub mod server;
pub mod upload;

pub use checkpoint::{CheckpointError, Manifest, MANIFEST_VERSION};
pub use client::PtfClient;
pub use cohort::{CohortData, CohortFedRec, CohortOptions, ServerScope, StoreKind, Stored};
pub use config::{ConfigError, DefenseKind, DisperseStrategy, PtfConfig, StoragePolicy};
pub use fingerprint::{config_fingerprint, fnv1a64};
pub use protocol::{ClientHost, ClientPhase, PtfFedRec, Resident, Round};
pub use server::PtfServer;
pub use upload::ClientUpload;
