//! # ptf-fedrec
//!
//! Facade crate for the PTF-FedRec reproduction ("Hide Your Model: A
//! Parameter Transmission-free Federated Recommender System", ICDE 2024).
//!
//! Everything lives in focused sub-crates; this crate re-exports them under
//! one roof so applications can depend on a single name:
//!
//! * [`tensor`] — dense/CSR matrices, fixed-width matmul and spmm kernels,
//!   Adam/SGD.
//! * [`data`] — implicit-feedback datasets, synthetic generators, splits.
//! * [`models`] — NeuMF, NGCF, LightGCN, MF recommenders.
//! * [`metrics`] — Recall@K, NDCG@K, F1 and friends.
//! * [`privacy`] — sampling/swapping defenses, LDP, the Top-Guess attack.
//! * [`comm`] — typed messages, wire sizes, communication ledger.
//! * [`federated`] — client registry, participation sampling, and the
//!   protocol-agnostic `FederatedProtocol` engine with `RoundObserver`
//!   hooks.
//! * [`core`] — the PTF-FedRec protocol itself: one round driver over
//!   resident, stored and remote client hosts.
//! * [`baselines`] — centralized trainers, FCF, FedMF, MetaMF — all
//!   implementing the same `FederatedProtocol` as PTF-FedRec.
//! * [`net`] — networked deployment: wire protocol, loopback/TCP
//!   transports, the round server (`ptf serve`) and client runner
//!   (`ptf client`), bit-identical to the in-process engine.
//!
//! See `examples/quickstart.rs` for an end-to-end federated run,
//! `examples/communication_report.rs` for heterogeneous
//! protocols driven by one engine loop, and the `ptf` binary ([`cli`])
//! for a command-line front door.

pub mod cli;

pub use ptf_baselines as baselines;
pub use ptf_comm as comm;
pub use ptf_core as core;
pub use ptf_data as data;
pub use ptf_federated as federated;
pub use ptf_metrics as metrics;
pub use ptf_models as models;
pub use ptf_net as net;
pub use ptf_privacy as privacy;
pub use ptf_tensor as tensor;
