//! Round observers — the engine's hook API.
//!
//! The communication ledger rides along as a [`RoundObserver`]: the
//! [`crate::Engine`] fires the hooks as its protocol reports wire traffic
//! through the [`crate::RoundCtx`], so adding a metric sink or a transport
//! probe is a one-file change that touches no protocol code. The run's
//! trace is not an observer's: the engine keeps it ([`crate::Engine::trace`]).

use crate::sim::RoundTrace;
use ptf_comm::{CommLedger, Message};

/// Hooks fired around every global round of a federated run.
///
/// All methods default to no-ops, so an observer implements only what it
/// cares about. Hook order within one round: `on_round_start` once, then
/// any number of `on_upload`/`on_disperse` (in wire order), then
/// `on_round_end` with the finished [`RoundTrace`].
pub trait RoundObserver {
    /// A round began; `participants` are the sampled client ids.
    fn on_round_start(&mut self, _round: u32, _participants: &[u32]) {}

    /// A client → server message crossed the wire.
    fn on_upload(&mut self, _msg: &Message) {}

    /// A server → client message crossed the wire.
    fn on_disperse(&mut self, _msg: &Message) {}

    /// The round finished with `trace`.
    fn on_round_end(&mut self, _trace: &RoundTrace) {}
}

/// The communication ledger *is* an observer: it records every message it
/// sees, exactly as protocols used to record into a privately-owned
/// ledger, and counts rounds authoritatively from the engine's
/// round-start notification — so a round with an empty participant set
/// (no messages) still counts. [`crate::Engine`] wires one in by default.
impl RoundObserver for CommLedger {
    fn on_round_start(&mut self, round: u32, _participants: &[u32]) {
        self.begin_round(round);
    }

    fn on_upload(&mut self, msg: &Message) {
        self.record(msg);
    }

    fn on_disperse(&mut self, msg: &Message) {
        self.record(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptf_comm::{Endpoint, Payload};

    fn msg(client: u32, up: bool) -> Message {
        let (from, to) = if up {
            (Endpoint::Client(client), Endpoint::Server)
        } else {
            (Endpoint::Server, Endpoint::Client(client))
        };
        Message { from, to, round: 0, label: "t", payload: Payload::Triples { count: 2 } }
    }

    #[test]
    fn ledger_observes_both_directions() {
        let mut ledger = CommLedger::new();
        ledger.on_upload(&msg(1, true));
        ledger.on_disperse(&msg(1, false));
        let s = ledger.summary();
        assert_eq!(s.messages, 2);
        assert_eq!(s.uploads_bytes, 24);
        assert_eq!(s.downloads_bytes, 24);
    }

    #[test]
    fn default_hooks_are_noops() {
        struct Inert;
        impl RoundObserver for Inert {}
        let mut o = Inert;
        o.on_round_start(0, &[1, 2]);
        o.on_upload(&msg(0, true));
        o.on_disperse(&msg(0, false));
        o.on_round_end(&RoundTrace::new(0, &[], 0.0, 0));
    }
}
