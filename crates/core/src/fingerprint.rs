//! Config fingerprinting: one digest of everything that must match for
//! a run to be bit-reproducible.
//!
//! Shared by the networked deployment (server/client handshake refuses
//! mismatched shards) and the checkpoint subsystem (`--resume` refuses a
//! checkpoint taken under a different config).

use crate::config::{DefenseKind, PtfConfig};
use ptf_models::{ModelHyper, ModelKind};
use std::fmt::Write as _;

/// Digest of everything that must match between a server and its
/// clients for a run to be bit-reproducible: protocol hyperparameters,
/// model architectures, dataset dimensions, and the seed.
///
/// Deliberately *excluded*: `threads`, which cannot change results (the
/// scheduler is bit-identical at any worker count), and `storage`, the
/// clients' cold-row eviction schedule — a memory budget the host that
/// trains the clients picks for itself. A client's table layout is not a
/// setting at all: `PtfClient::new` derives it from the data, and either
/// layout gives bit-identical results. The cohort size of a checkpointed
/// run is excluded for the same reason as `threads`.
///
/// The digest is FNV-1a 64 over a canonical text rendering with floats
/// as raw bits — stable across platforms, not across releases (any
/// semantic change to the config vocabulary is *supposed* to change
/// fingerprints; version skew is caught by the frame version byte /
/// manifest version field first).
pub fn config_fingerprint(
    cfg: &PtfConfig,
    client_kind: ModelKind,
    server_kind: ModelKind,
    hyper: &ModelHyper,
    num_users: usize,
    num_items: usize,
) -> u64 {
    let mut s = String::with_capacity(256);
    let _ = write!(
        s,
        "rounds={};ce={};se={};cb={};sb={};neg={};alpha={};mu={:x};lambda={:x};",
        cfg.rounds,
        cfg.client_epochs,
        cfg.server_epochs,
        cfg.client_batch,
        cfg.server_batch,
        cfg.neg_ratio,
        cfg.alpha,
        cfg.mu.to_bits(),
        cfg.lambda.to_bits(),
    );
    let _ = write!(
        s,
        "beta={:x},{:x};gamma={:x},{:x};",
        cfg.sampling.beta_range.0.to_bits(),
        cfg.sampling.beta_range.1.to_bits(),
        cfg.sampling.gamma_range.0.to_bits(),
        cfg.sampling.gamma_range.1.to_bits(),
    );
    match cfg.defense {
        DefenseKind::NoDefense => s.push_str("def=none;"),
        DefenseKind::Ldp { epsilon } => {
            let _ = write!(s, "def=ldp:{:x};", epsilon.to_bits());
        }
        DefenseKind::Sampling => s.push_str("def=sampling;"),
        DefenseKind::SamplingSwapping => s.push_str("def=sampling+swapping;"),
    }
    let _ = write!(
        s,
        "disperse={};part={:x},{};graph={:x};seed={};",
        cfg.disperse.name(),
        cfg.participation.fraction.to_bits(),
        cfg.participation.min_clients,
        cfg.graph_threshold.to_bits(),
        cfg.seed,
    );
    let _ = write!(
        s,
        "ck={};sk={};dim={};lr={:x};gcn={};mlp={:?};reg={:x};drop={:x};",
        client_kind.name(),
        server_kind.name(),
        hyper.dim,
        hyper.lr.to_bits(),
        hyper.gcn_layers,
        hyper.mlp_layers,
        hyper.ngcf_reg.to_bits(),
        hyper.ngcf_dropout.to_bits(),
    );
    let _ = write!(s, "users={num_users};items={num_items}");
    fnv1a64(s.as_bytes())
}

/// FNV-1a 64-bit over raw bytes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let cfg = PtfConfig::small();
        let hyper = ModelHyper::small();
        let fp = |c: &PtfConfig| {
            config_fingerprint(c, ModelKind::NeuMf, ModelKind::NeuMf, &hyper, 100, 200)
        };
        assert_eq!(fp(&cfg), fp(&cfg.clone()), "same config, same digest");

        let mut other = cfg.clone();
        other.seed += 1;
        assert_ne!(fp(&cfg), fp(&other), "seed must be fingerprinted");

        let mut other = cfg.clone();
        other.alpha += 1;
        assert_ne!(fp(&cfg), fp(&other), "alpha must be fingerprinted");

        // execution knobs must NOT change the digest
        let mut other = cfg.clone();
        other.threads = 7;
        other.storage.evict_interval = 3;
        other.storage.evict_budget = 64;
        assert_eq!(fp(&cfg), fp(&other), "execution knobs are not semantics");
    }

    #[test]
    fn fingerprint_covers_models_and_dims() {
        let cfg = PtfConfig::small();
        let hyper = ModelHyper::small();
        let base = config_fingerprint(&cfg, ModelKind::NeuMf, ModelKind::NeuMf, &hyper, 100, 200);
        assert_ne!(
            base,
            config_fingerprint(&cfg, ModelKind::LightGcn, ModelKind::NeuMf, &hyper, 100, 200)
        );
        assert_ne!(
            base,
            config_fingerprint(&cfg, ModelKind::NeuMf, ModelKind::NeuMf, &hyper, 101, 200)
        );
        let mut h2 = hyper.clone();
        h2.dim += 1;
        assert_ne!(
            base,
            config_fingerprint(&cfg, ModelKind::NeuMf, ModelKind::NeuMf, &h2, 100, 200)
        );
    }
}
