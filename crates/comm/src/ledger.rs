//! The communication ledger.

use crate::message::{Endpoint, Message, Payload};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Append-only record of every message a protocol run produced, with the
/// aggregations the paper's Table IV reports.
///
/// Protocols no longer own a ledger: `ptf_federated::Engine` carries one
/// as its first `RoundObserver` (the impl lives in `ptf_federated`, which
/// owns the observer trait) and feeds it every message the protocol
/// reports through its `RoundCtx`. [`CommLedger::record`] and
/// [`CommLedger::upload`] remain for direct, engine-less recording.
#[derive(Clone, Debug, Default)]
pub struct CommLedger {
    total_bytes: u64,
    /// bytes by (client, round) — the unit Table IV averages over.
    by_client_round: HashMap<(u32, u32), u64>,
    uploads_bytes: u64,
    downloads_bytes: u64,
    messages: u64,
    rounds_seen: u32,
}

/// Serialized form of a [`CommLedger`], used by checkpoint manifests.
///
/// The per-(client, round) map is flattened into three parallel arrays
/// sorted by `(client, round)` so the encoding is deterministic (the
/// in-memory map is a `HashMap`, whose iteration order is not).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LedgerWire {
    pub total_bytes: u64,
    pub uploads_bytes: u64,
    pub downloads_bytes: u64,
    pub messages: u64,
    pub rounds_seen: u32,
    pub entry_clients: Vec<u32>,
    pub entry_rounds: Vec<u32>,
    pub entry_bytes: Vec<u64>,
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
            *self.by_client_round.entry((c, msg.round)).or_default() += bytes;
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
        if self.by_client_round.is_empty() {
            return 0.0;
        }
        // lint: allow(determinism) — u64 sum over values is order-independent
        let sum: u64 = self.by_client_round.values().sum();
        sum as f64 / self.by_client_round.len() as f64
    }

    /// Captures the full ledger state for a checkpoint manifest.
    pub fn snapshot(&self) -> LedgerWire {
        let mut entries: Vec<(u32, u32, u64)> =
            // lint: allow(determinism) — entries are sorted before encoding
            self.by_client_round.iter().map(|(&(c, r), &b)| (c, r, b)).collect();
        entries.sort_unstable();
        LedgerWire {
            total_bytes: self.total_bytes,
            uploads_bytes: self.uploads_bytes,
            downloads_bytes: self.downloads_bytes,
            messages: self.messages,
            rounds_seen: self.rounds_seen,
            entry_clients: entries.iter().map(|e| e.0).collect(),
            entry_rounds: entries.iter().map(|e| e.1).collect(),
            entry_bytes: entries.iter().map(|e| e.2).collect(),
        }
    }

    /// Rebuilds a ledger from a [`snapshot`](Self::snapshot).
    ///
    /// Fails if the parallel entry arrays disagree in length.
    pub fn restore(wire: &LedgerWire) -> Result<Self, String> {
        if wire.entry_clients.len() != wire.entry_rounds.len()
            || wire.entry_clients.len() != wire.entry_bytes.len()
        {
            return Err(format!(
                "ledger snapshot arrays disagree: {} clients, {} rounds, {} bytes",
                wire.entry_clients.len(),
                wire.entry_rounds.len(),
                wire.entry_bytes.len()
            ));
        }
        let mut by_client_round = HashMap::with_capacity(wire.entry_clients.len());
        for i in 0..wire.entry_clients.len() {
            by_client_round
                .insert((wire.entry_clients[i], wire.entry_rounds[i]), wire.entry_bytes[i]);
        }
        Ok(Self {
            total_bytes: wire.total_bytes,
            by_client_round,
            uploads_bytes: wire.uploads_bytes,
            downloads_bytes: wire.downloads_bytes,
            messages: wire.messages,
            rounds_seen: wire.rounds_seen,
        })
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
        // entries are sorted by (client, round) for deterministic encoding
        assert_eq!(wire.entry_clients, vec![1, 3]);
        let restored = CommLedger::restore(&wire).expect("restore");
        assert_eq!(restored.summary(), ledger.summary());
        // restored ledger keeps accumulating correctly
        let mut a = ledger.clone();
        let mut b = restored;
        a.upload(2, 2, "up", Payload::Triples { count: 1 });
        b.upload(2, 2, "up", Payload::Triples { count: 1 });
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn restore_rejects_ragged_arrays() {
        let mut wire = CommLedger::new().snapshot();
        wire.entry_clients.push(0);
        assert!(CommLedger::restore(&wire).is_err());
    }
}
