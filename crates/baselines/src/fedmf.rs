//! FedMF — secure federated matrix factorization (Chai et al., 2020).
//!
//! Identical learning dynamics to [`crate::fcf::Fcf`], but item-gradient
//! uploads travel as additively homomorphic ciphertexts ([`crate::he`])
//! that the server aggregates without reading, and the item matrix itself
//! is ciphertext on the wire. The cost: every value expands to
//! `ciphertext_bytes` (64 B ≈ 1024-bit Paillier with packing), producing
//! the MB-scale traffic of Table IV's FedMF row.
//!
//! Simulation note: the real FedMF keeps the item matrix
//! encrypted server-side across rounds; we run the encrypt → aggregate →
//! decrypt cycle within each round over every client's *actual* gradient
//! matrix (the key-holding clients could do the same decryption) and keep
//! plaintext bookkeeping between rounds. Every round asserts the decrypted
//! aggregate matches the plaintext gradient sum
//! ([`FedMf::last_round_he_verified`]); the learning outcome is identical
//! up to fixed-point quantization, and the wire costs are modelled
//! exactly. The inner FCF exchange runs against a *detached*
//! [`RoundCtx`], so only the ciphertext messages — the ones that really
//! cross the wire — reach the engine's observers.
//!
//! Parallelism: FedMF inherits FCF's two-phase round loop (parallel
//! client phase on `cfg.base.threads` workers, serial aggregation), and
//! the encrypt → aggregate → verify cycle runs inside the serial phase
//! in participant order — so FedMF is bit-identical at any thread count
//! and stays model-identical to FCF under the same base seed.

use crate::fcf::{Fcf, FcfConfig};
use crate::he::HeContext;
use ptf_comm::Payload;
use ptf_data::{Dataset, Scale};
use ptf_federated::{FederatedProtocol, RoundCtx, RoundTrace};
use ptf_models::Recommender;

/// FedMF configuration: FCF dynamics + an HE context.
#[derive(Clone, Debug)]
pub struct FedMfConfig {
    pub base: FcfConfig,
    /// Shared client key for the simulated cipher.
    pub he_key: u64,
}

impl Default for FedMfConfig {
    fn default() -> Self {
        Self { base: FcfConfig { seed: 37, ..FcfConfig::default() }, he_key: 0xFEDF }
    }
}

impl FedMfConfig {
    pub fn small() -> Self {
        Self { base: FcfConfig { seed: 37, ..FcfConfig::small() }, he_key: 0xFED }
    }

    /// The configuration at `scale`: [`Self::default`] or [`Self::small`].
    pub fn at(scale: Scale) -> Self {
        scale.pick(Self::default, Self::small)
    }
}

/// A running FedMF federation.
pub struct FedMf {
    inner: Fcf,
    he: HeContext,
    dim: usize,
    he_verified: bool,
}

impl FedMf {
    pub fn new(train: &Dataset, cfg: FedMfConfig) -> Self {
        let dim = cfg.base.dim;
        Self {
            inner: Fcf::new(train, cfg.base),
            he: HeContext::new(cfg.he_key),
            dim,
            he_verified: false,
        }
    }

    /// True if the most recent round's homomorphic aggregate decrypted to
    /// the plaintext gradient sum (within fixed-point tolerance).
    pub fn last_round_he_verified(&self) -> bool {
        self.he_verified
    }
}

impl FederatedProtocol for FedMf {
    fn name(&self) -> &'static str {
        "FedMF"
    }

    fn configured_rounds(&self) -> u32 {
        self.inner.configured_rounds()
    }

    fn run_round(&mut self, ctx: &mut RoundCtx<'_>) -> RoundTrace {
        let num_items = self.inner.recommender().num_items();
        let values_per_transfer = num_items * (self.dim + 1);

        // Run the FCF learning dynamics, passing every client's *actual*
        // gradient matrix through the homomorphic path: encrypt per
        // client, aggregate ciphertexts entry-wise, and remember the
        // plaintext sum so the aggregate can be verified after decryption.
        // The plaintext exchange goes to a detached context — the real
        // wire carries ciphertexts, reported below.
        let he = self.he;
        let round = ctx.round();
        let mut ct_sum: Vec<i128> = vec![0; values_per_transfer];
        let mut plain_sum: Vec<f32> = vec![0.0; values_per_transfer];
        let mut contributors: Vec<u32> = Vec::new();
        let mut inner_ctx = RoundCtx::detached(round);
        let inner_trace = self.inner.run_round_observed(&mut inner_ctx, |client, delta| {
            let flat = delta.as_slice();
            let ct = he.encrypt_slice(flat, round, client);
            for (acc, c) in ct_sum.iter_mut().zip(&ct) {
                *acc = acc.wrapping_add(*c);
            }
            for (acc, &p) in plain_sum.iter_mut().zip(flat) {
                *acc += p;
            }
            contributors.push(client);
        });

        // key-holder side: decrypt the aggregate and verify it carried the
        // gradients exactly (up to fixed-point quantization)
        if contributors.is_empty() {
            self.he_verified = false;
        } else {
            let decrypted = self.he.decrypt_aggregate(&ct_sum, round, &contributors);
            self.he_verified = decrypted
                .iter()
                .zip(&plain_sum)
                .all(|(d, p)| (d - p).abs() < 1e-3 * contributors.len() as f32);
            debug_assert!(self.he_verified, "HE aggregate mismatch");
        }

        ctx.begin(&contributors);
        for &c in &contributors {
            ctx.disperse(
                c,
                "enc-item-embeddings",
                Payload::Ciphertexts {
                    count: values_per_transfer,
                    bytes_each: self.he.ciphertext_bytes,
                },
            );
            ctx.upload(
                c,
                "enc-item-gradients",
                Payload::Ciphertexts {
                    count: values_per_transfer,
                    bytes_each: self.he.ciphertext_bytes,
                },
            );
        }
        RoundTrace { bytes: ctx.bytes(), ..inner_trace }
    }

    fn recommender(&self) -> &dyn Recommender {
        self.inner.recommender()
    }

    fn threads(&self) -> usize {
        self.inner.threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptf_data::{SyntheticConfig, TrainTestSplit};
    use ptf_federated::Engine;

    fn split() -> TrainTestSplit {
        let data = SyntheticConfig::new("fm", 30, 60, 12.0).generate(&mut ptf_data::test_rng(6));
        TrainTestSplit::split_80_20(&data, &mut ptf_data::test_rng(7))
    }

    fn quick_cfg() -> FedMfConfig {
        let mut cfg = FedMfConfig::small();
        cfg.base.rounds = 5;
        cfg.base.local_epochs = 2;
        cfg.base.dim = 8;
        cfg
    }

    #[test]
    fn training_works_like_fcf() {
        let s = split();
        let mut fedmf = Engine::new(FedMf::new(&s.train, quick_cfg()));
        let trace = fedmf.run();
        assert_eq!(trace.num_rounds(), 5);
        assert!(trace.client_loss_improved(), "{:?}", trace.rounds);
        let report = fedmf.evaluate(&s.train, &s.test, 10);
        assert!(report.users_evaluated > 0);
    }

    #[test]
    fn traffic_is_ciphertext_expanded() {
        let s = split();
        let mut fedmf = Engine::new(FedMf::new(&s.train, quick_cfg()));
        fedmf.run_round();
        let plain_one_way = (s.train.num_items() * (8 + 1) * 4) as f64;
        let avg = fedmf.ledger().avg_client_bytes_per_round();
        let expansion = avg / (2.0 * plain_one_way);
        assert!(
            (expansion - 16.0).abs() < 0.01,
            "expected the 16× Paillier expansion, got {expansion}"
        );
    }

    #[test]
    fn name_and_rounds() {
        let s = split();
        let fedmf = FedMf::new(&s.train, quick_cfg());
        assert_eq!(fedmf.name(), "FedMF");
        assert_eq!(fedmf.configured_rounds(), 5);
    }
}

#[cfg(test)]
mod he_integration_tests {
    use super::*;
    use ptf_data::{SyntheticConfig, TrainTestSplit};
    use ptf_federated::Engine;

    #[test]
    fn real_gradients_survive_the_homomorphic_path() {
        let data = SyntheticConfig::new("he", 20, 40, 10.0).generate(&mut ptf_data::test_rng(51));
        let split = TrainTestSplit::split_80_20(&data, &mut ptf_data::test_rng(52));
        let mut cfg = FedMfConfig::small();
        cfg.base.rounds = 3;
        cfg.base.local_epochs = 2;
        cfg.base.dim = 8;
        let mut fedmf = Engine::new(FedMf::new(&split.train, cfg));
        for _ in 0..3 {
            fedmf.run_round();
            assert!(
                fedmf.protocol().last_round_he_verified(),
                "homomorphic aggregate diverged from plaintext gradients"
            );
        }
    }
}
