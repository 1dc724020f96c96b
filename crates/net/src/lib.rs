//! # ptf-net
//!
//! Networked deployment of PTF-FedRec: the paper's protocol is
//! *parameter transmission-free* — clients and server exchange only
//! `(user, item, score)` prediction triples — so the natural deployment
//! is a round server and client processes that send exactly those
//! triples over a socket. This crate provides:
//!
//! * [`wire`] — the length-prefixed, versioned binary frame codec over
//!   the protocol's eight message kinds. Data sections are packed
//!   12-byte triples, so the encoded size of a frame's data equals the
//!   [`ptf_comm::Payload`] size model the in-process ledger charges.
//! * [`transport`] — frame streams, the round server's event queue with
//!   bounded per-peer outbound queues, and the in-memory **loopback**
//!   transport (same codec, no sockets) used by the parity tests.
//! * [`tcp`] — `std::net` transport: [`tcp::serve`] / [`tcp::connect`],
//!   thread-per-connection.
//! * [`server`] — [`run_server`]: handshake/gather, then the one round
//!   driver, [`ptf_core::Round`], over a remote client host whose client
//!   phase is one announcement per connection and a deadline with
//!   straggler dropping (partial participation).
//! * [`client`] — [`run_shard`]: hosts any subset of the fleet's
//!   clients over one connection, training each round's announced
//!   clients with the same [`ptf_core::rounds::train_in_lanes`] the
//!   in-process hosts run.
//!
//! The headline property is **parity**: for the same seed and config, a
//! networked run (loopback or TCP, any sharding of clients over
//! connections) produces a `RunTrace` bit-identical to the in-process
//! engine — the round order lives once, in the driver, and only where a
//! client runs differs. See `docs/wire-protocol.md` for the frame format
//! and `tests/` for the parity suite.

pub mod client;
pub mod error;
pub mod server;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use client::{run_shard, ShardOptions, ShardSummary, Straggle};
pub use error::NetError;
pub use server::{run_server, NetRunReport, NetServerOptions, StragglerDrop};
pub use transport::{loopback_hub, ClientConn, Event, LoopbackHub, PeerHandle};

// The config fingerprint lives in `ptf_core::fingerprint` (the
// checkpoint subsystem shares it); re-exported here because the wire
// handshake is its original home and `ptf_net` callers name it through
// this crate.
pub use ptf_core::{config_fingerprint, fnv1a64};
