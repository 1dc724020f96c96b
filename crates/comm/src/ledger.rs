//! The communication ledger.

use crate::message::{Endpoint, Message, Payload};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Append-only record of every message a protocol run produced, with the
/// aggregations the paper's Table IV reports.
///
/// Protocols no longer own a ledger: `ptf_federated::Engine` carries one
/// as its `RoundObserver` (the impl lives in `ptf_federated`, which
/// owns the observer trait) and feeds it every message the protocol
/// reports through its `RoundCtx`. [`CommLedger::record`] and
/// [`CommLedger::upload`] remain for direct, engine-less recording.
#[derive(Clone, Debug, Default)]
pub struct CommLedger {
    total_bytes: u64,
    uploads_bytes: u64,
    downloads_bytes: u64,
    messages: u64,
    rounds_seen: u32,
    /// Bytes of every message to or from a client, and the number of
    /// `(client, round)` pairs they came in — the sum and the count
    /// Table IV averages.
    client_bytes: u64,
    client_rounds: u64,
    /// The round of the last recorded message, and the clients already
    /// counted in it.
    counted_round: u32,
    counted: HashSet<u32>,
}

/// Serialized form of a [`CommLedger`], used by checkpoint manifests:
/// its counters. A checkpoint commits at a round boundary, so the set of
/// clients counted in the current round is not part of it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LedgerWire {
    pub total_bytes: u64,
    pub uploads_bytes: u64,
    pub downloads_bytes: u64,
    pub messages: u64,
    pub rounds_seen: u32,
    pub client_bytes: u64,
    pub client_rounds: u64,
}

/// Aggregated view of a ledger.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct LedgerSummary {
    pub total_bytes: u64,
    pub messages: u64,
    pub uploads_bytes: u64,
    pub downloads_bytes: u64,
    /// Average bytes exchanged by a participating client in one round —
    /// the Table IV metric.
    pub avg_client_bytes_per_round: f64,
    pub rounds: u32,
}

impl CommLedger {
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `round` as started. The engine calls this from its
    /// `on_round_start` hook, making the round count authoritative: a
    /// round whose sampled participant set is empty (or that otherwise
    /// puts nothing on the wire) still counts. Deriving the count from
    /// message round tags alone under-counted such runs and inflated
    /// every per-round average reported from [`LedgerSummary::rounds`].
    pub fn begin_round(&mut self, round: u32) {
        self.rounds_seen = self.rounds_seen.max(round + 1);
    }

    /// Records a message.
    ///
    /// Messages arrive grouped by round: every message of round `r`
    /// before any of round `r + 1`, as a round driver reports them. A
    /// client's messages within one round count as one client-round;
    /// the clients already counted are forgotten when `msg.round`
    /// changes.
    pub fn record(&mut self, msg: &Message) {
        let bytes = msg.bytes() as u64;
        self.total_bytes += bytes;
        self.messages += 1;
        // fallback derivation for engine-less direct recording; the
        // engine's `begin_round` notifications take precedence via `max`
        self.rounds_seen = self.rounds_seen.max(msg.round + 1);
        match (msg.from, msg.to) {
            (Endpoint::Client(_), Endpoint::Server) => self.uploads_bytes += bytes,
            (Endpoint::Server, Endpoint::Client(_)) => self.downloads_bytes += bytes,
            _ => {}
        }
        if let Some(c) = msg.client() {
            self.client_bytes += bytes;
            if msg.round != self.counted_round {
                self.counted_round = msg.round;
                self.counted.clear();
            }
            if self.counted.insert(c) {
                self.client_rounds += 1;
            }
        }
    }

    /// Convenience: record a client upload.
    pub fn upload(&mut self, client: u32, round: u32, label: &'static str, payload: Payload) {
        self.record(&Message {
            from: Endpoint::Client(client),
            to: Endpoint::Server,
            round,
            label,
            payload,
        });
    }

    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Average bytes a participating client exchanges in one round.
    pub fn avg_client_bytes_per_round(&self) -> f64 {
        if self.client_rounds == 0 {
            return 0.0;
        }
        self.client_bytes as f64 / self.client_rounds as f64
    }

    /// Captures the ledger's counters for a checkpoint manifest, which
    /// commits at a round boundary.
    pub fn snapshot(&self) -> LedgerWire {
        LedgerWire {
            total_bytes: self.total_bytes,
            uploads_bytes: self.uploads_bytes,
            downloads_bytes: self.downloads_bytes,
            messages: self.messages,
            rounds_seen: self.rounds_seen,
            client_bytes: self.client_bytes,
            client_rounds: self.client_rounds,
        }
    }

    /// Rebuilds a ledger from a [`snapshot`](Self::snapshot); it counts
    /// the next round's clients as the snapshotted ledger would.
    pub fn restore(wire: &LedgerWire) -> Self {
        Self {
            total_bytes: wire.total_bytes,
            uploads_bytes: wire.uploads_bytes,
            downloads_bytes: wire.downloads_bytes,
            messages: wire.messages,
            rounds_seen: wire.rounds_seen,
            client_bytes: wire.client_bytes,
            client_rounds: wire.client_rounds,
            ..Self::default()
        }
    }

    pub fn summary(&self) -> LedgerSummary {
        LedgerSummary {
            total_bytes: self.total_bytes,
            messages: self.messages,
            uploads_bytes: self.uploads_bytes,
            downloads_bytes: self.downloads_bytes,
            avg_client_bytes_per_round: self.avg_client_bytes_per_round(),
            rounds: self.rounds_seen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn download(ledger: &mut CommLedger, client: u32, round: u32, payload: Payload) {
        let to = Endpoint::Client(client);
        ledger.record(&Message { from: Endpoint::Server, to, round, label: "down", payload });
    }

    #[test]
    fn records_and_averages_per_client_round() {
        let mut ledger = CommLedger::new();
        // round 0: client 0 uploads 12B and downloads 8B; client 1 uploads 24B
        ledger.upload(0, 0, "up", Payload::Triples { count: 1 });
        download(&mut ledger, 0, 0, Payload::ScoredItems { count: 1 });
        ledger.upload(1, 0, "up", Payload::Triples { count: 2 });
        // round 1: only client 0, 12B
        ledger.upload(0, 1, "up", Payload::Triples { count: 1 });

        let s = ledger.summary();
        assert_eq!(s.total_bytes, 12 + 8 + 24 + 12);
        assert_eq!(s.messages, 4);
        assert_eq!(s.uploads_bytes, 48);
        assert_eq!(s.downloads_bytes, 8);
        assert_eq!(s.rounds, 2);
        // client-rounds: (0,0)=20, (1,0)=24, (0,1)=12 → avg 56/3
        assert!((s.avg_client_bytes_per_round - 56.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_ledger_is_zero() {
        let s = CommLedger::new().summary();
        assert_eq!(s.total_bytes, 0);
        assert_eq!(s.avg_client_bytes_per_round, 0.0);
    }

    #[test]
    fn message_free_rounds_still_count() {
        // regression: rounds were derived from max(msg.round + 1), so a
        // run whose trailing rounds produced no messages under-counted
        let mut ledger = CommLedger::new();
        ledger.begin_round(0);
        ledger.upload(0, 0, "up", Payload::Triples { count: 1 });
        ledger.begin_round(1); // zero sampled participants
        ledger.begin_round(2); // zero sampled participants
        let s = ledger.summary();
        assert_eq!(s.rounds, 3, "empty rounds must count");
        assert_eq!(s.messages, 1);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut ledger = CommLedger::new();
        ledger.begin_round(0);
        ledger.upload(3, 0, "up", Payload::Triples { count: 5 });
        download(&mut ledger, 3, 0, Payload::ScoredItems { count: 2 });
        ledger.begin_round(1);
        ledger.upload(1, 1, "up", Payload::Triples { count: 9 });
        let wire = ledger.snapshot();
        let expected = LedgerWire {
            total_bytes: 60 + 16 + 108,
            uploads_bytes: 60 + 108,
            downloads_bytes: 16,
            messages: 3,
            rounds_seen: 2,
            client_bytes: 60 + 16 + 108,
            client_rounds: 2,
        };
        assert_eq!(wire, expected);
        let restored = CommLedger::restore(&wire);
        assert_eq!(restored.snapshot(), wire);
        assert_eq!(restored.summary(), ledger.summary());
        // the next round's clients count exactly as on the uninterrupted
        // ledger: client 1 again, once for its two messages, and client 2
        let mut a = ledger.clone();
        let mut b = restored;
        for l in [&mut a, &mut b] {
            l.begin_round(2);
            l.upload(1, 2, "up", Payload::Triples { count: 1 });
            download(l, 1, 2, Payload::ScoredItems { count: 1 });
            l.upload(2, 2, "up", Payload::Triples { count: 1 });
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(b.snapshot().client_rounds, 4);
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn a_client_counts_once_per_round() {
        let mut ledger = CommLedger::new();
        // round 0: client 5 uploads twice and downloads once
        ledger.upload(5, 0, "up", Payload::Triples { count: 1 });
        ledger.upload(5, 0, "up", Payload::Triples { count: 1 });
        download(&mut ledger, 5, 0, Payload::ScoredItems { count: 1 });
        assert_eq!(ledger.snapshot().client_rounds, 1);
        // round 1: the same client is a new client-round
        ledger.upload(5, 1, "up", Payload::Triples { count: 1 });
        assert_eq!(ledger.snapshot().client_rounds, 2);
        // client-less traffic moves no per-client counter
        ledger.record(&Message {
            from: Endpoint::Server,
            to: Endpoint::Server,
            round: 1,
            label: "internal",
            payload: Payload::Triples { count: 4 },
        });
        let wire = ledger.snapshot();
        assert_eq!((wire.client_bytes, wire.client_rounds), (12 + 12 + 8 + 12, 2));
        assert!((ledger.avg_client_bytes_per_round() - 44.0 / 2.0).abs() < 1e-12);
    }
}
