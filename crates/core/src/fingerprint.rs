//! Config fingerprinting: one digest of everything that must match for
//! a run to be bit-reproducible.
//!
//! Shared by the networked deployment (server/client handshake refuses
//! mismatched shards) and the checkpoint subsystem (`--resume` refuses a
//! checkpoint taken under a different config). The digest is taken from
//! the config's own `Debug` rendering, not from a list of its fields, so
//! a field added to [`PtfConfig`] or [`ModelHyper`] is fingerprinted the
//! day it is added.

use crate::config::PtfConfig;
use ptf_models::{ModelHyper, ModelKind};

/// Digest of everything that must match between a server and its
/// clients, or between a checkpoint and the run resuming it, for a run
/// to be bit-reproducible: every field of `cfg` (the eviction schedule
/// in `storage` included, which changes which rows a client re-derives),
/// both model kinds, every field of `hyper`, and the dataset dimensions.
///
/// Only `threads` is set to a fixed value first: every thread count gives
/// the same bytes (the client phase is bit-identical at any worker count),
/// so a run may resume or pair at another. The cohort size of a
/// checkpointed run is not part of `cfg` and is free for the same reason.
///
/// The digest is FNV-1a 64 over the `Debug` text of the inputs, in
/// which every float prints as its shortest round-trip decimal, so two
/// configs that differ in any bit of any field differ in text. It is
/// stable across platforms, not across releases (a change to the config
/// vocabulary is *supposed* to change fingerprints; version skew is
/// caught first by the frame version byte or the manifest version).
pub fn config_fingerprint(
    cfg: &PtfConfig,
    client_kind: ModelKind,
    server_kind: ModelKind,
    hyper: &ModelHyper,
    num_users: usize,
    num_items: usize,
) -> u64 {
    let cfg = PtfConfig { threads: 0, ..cfg.clone() };
    let text = format!(
        "{cfg:?};{client_kind:?};{server_kind:?};{hyper:?};users={num_users};items={num_items}"
    );
    fnv1a64(text.as_bytes())
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
        use crate::config::{DefenseKind, DisperseStrategy};
        let cfg = PtfConfig::small();
        let hyper = ModelHyper::small();
        let fp = |c: &PtfConfig, h: &ModelHyper| {
            config_fingerprint(c, ModelKind::NeuMf, ModelKind::NeuMf, h, 100, 200)
        };
        let base = fp(&cfg, &hyper);
        assert_eq!(base, fp(&cfg.clone(), &hyper.clone()), "same config, same digest");

        // every field is named, so a field added later stops this test
        // compiling until it is named here and given a row below
        let PtfConfig {
            rounds: _,
            client_epochs: _,
            server_epochs: _,
            client_batch: _,
            server_batch: _,
            neg_ratio: _,
            alpha: _,
            mu: _,
            lambda: _,
            sampling: _,
            defense: _,
            disperse: _,
            participation: _,
            graph_threshold: _,
            seed: _,
            threads: _,
            storage: _,
        } = cfg;
        let ModelHyper {
            dim: _,
            lr: _,
            gcn_layers: _,
            mlp_layers: _,
            ngcf_reg: _,
            ngcf_dropout: _,
        } = hyper;
        type Edit = fn(&mut PtfConfig);
        let config_edits: [(&str, Edit); 22] = [
            ("rounds", |c| c.rounds += 1),
            ("client_epochs", |c| c.client_epochs += 1),
            ("server_epochs", |c| c.server_epochs += 1),
            ("client_batch", |c| c.client_batch += 1),
            ("server_batch", |c| c.server_batch += 1),
            ("neg_ratio", |c| c.neg_ratio += 1),
            ("alpha", |c| c.alpha += 1),
            ("mu", |c| c.mu = f64::from_bits(c.mu.to_bits() + 1)),
            ("lambda", |c| c.lambda = f64::from_bits(c.lambda.to_bits() + 1)),
            ("sampling.beta_range.0", |c| c.sampling.beta_range.0 += 0.01),
            ("sampling.beta_range.1", |c| c.sampling.beta_range.1 -= 0.01),
            ("sampling.gamma_range.0", |c| c.sampling.gamma_range.0 += 0.5),
            ("sampling.gamma_range.1", |c| c.sampling.gamma_range.1 -= 0.5),
            ("defense", |c| c.defense = DefenseKind::Sampling),
            ("defense ldp", |c| c.defense = DefenseKind::Ldp { epsilon: 5.0 }),
            ("disperse", |c| c.disperse = DisperseStrategy::Random),
            ("participation.fraction", |c| c.participation.fraction = 0.5),
            ("participation.min_clients", |c| c.participation.min_clients += 1),
            ("graph_threshold", |c| c.graph_threshold = 0.6),
            ("seed", |c| c.seed += 1),
            ("storage.evict_interval", |c| c.storage.evict_interval = 1),
            ("storage.evict_budget", |c| c.storage.evict_budget = 64),
        ];
        for (field, edit) in config_edits {
            let mut other = cfg.clone();
            edit(&mut other);
            assert_ne!(base, fp(&other, &hyper), "{field} must be fingerprinted");
        }
        let ldp = |epsilon| PtfConfig { defense: DefenseKind::Ldp { epsilon }, ..cfg.clone() };
        assert_ne!(fp(&ldp(5.0), &hyper), fp(&ldp(2.0), &hyper), "the LDP budget");

        type HyperEdit = fn(&mut ModelHyper);
        let hyper_edits: [(&str, HyperEdit); 7] = [
            ("dim", |h| h.dim += 1),
            ("lr", |h| h.lr = f32::from_bits(h.lr.to_bits() + 1)),
            ("gcn_layers", |h| h.gcn_layers += 1),
            ("mlp_layers width", |h| h.mlp_layers[0] += 1),
            ("mlp_layers depth", |h| h.mlp_layers.push(8)),
            ("ngcf_reg", |h| h.ngcf_reg *= 2.0),
            ("ngcf_dropout", |h| h.ngcf_dropout = 0.2),
        ];
        for (field, edit) in hyper_edits {
            let mut other = hyper.clone();
            edit(&mut other);
            assert_ne!(base, fp(&cfg, &other), "hyper.{field} must be fingerprinted");
        }

        // every thread count gives the same bytes, so it is the one field
        // left out
        for threads in [1, 3, 64] {
            assert_eq!(
                base,
                fp(&PtfConfig { threads, ..cfg.clone() }, &hyper),
                "threads {threads}"
            );
        }
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
