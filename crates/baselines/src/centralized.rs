//! Centralized training — the paper's upper-bound baselines.
//!
//! The service provider sees all raw interactions and trains NeuMF / NGCF /
//! LightGCN directly (Table III, "Centralized Recs" block). One *round*
//! of the [`Centralized`] protocol is one full epoch over the training
//! data — no clients, no traffic — so the upper bound rides the same
//! [`FederatedProtocol`] engine path as every federated method.

use ptf_data::negative::sample_negatives_into;
use ptf_data::{shuffle, Dataset, Scale};
use ptf_federated::{round_rng, FederatedProtocol, RngStream, RoundCtx, RoundScratch, RoundTrace};
use ptf_models::{build_model, ModelHyper, ModelKind, Recommender};
use ptf_tensor::par::{map_chunks, resolve_threads};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Centralized training configuration.
#[derive(Clone, Debug)]
pub struct CentralizedConfig {
    /// Full passes over the training data. The paper's federated budget is
    /// 20 rounds × 5 local epochs; 30 central epochs is a comparable
    /// optimization budget at far lower orchestration cost.
    pub epochs: u32,
    pub batch: usize,
    /// Negative sampling ratio (paper: 1:4), resampled every epoch.
    pub neg_ratio: usize,
    pub seed: u64,
    /// Worker threads for per-user sample assembly (`0` = every hardware
    /// thread); the SGD pass itself is inherently serial. Bit-identical
    /// results at any value.
    pub threads: usize,
}

impl Default for CentralizedConfig {
    fn default() -> Self {
        Self { epochs: 30, batch: 1024, neg_ratio: 4, seed: 23, threads: 0 }
    }
}

impl CentralizedConfig {
    pub fn small() -> Self {
        Self { epochs: 12, batch: 256, ..Self::default() }
    }

    /// The configuration at `scale`: [`Self::default`] or [`Self::small`].
    pub fn at(scale: Scale) -> Self {
        scale.pick(Self::default, Self::small)
    }
}

/// Centralized training as a (degenerate) federated protocol: one round =
/// one epoch, zero participants, zero bytes on the wire, and the epoch's
/// mean loss reported as the server loss.
pub struct Centralized {
    cfg: CentralizedConfig,
    model: Box<dyn Recommender>,
    train: Dataset,
    /// Each sample-assembly worker's scratch, kept across epochs.
    workers: Vec<RoundScratch>,
}

impl Centralized {
    pub fn new(
        kind: ModelKind,
        train: &Dataset,
        hyper: &ModelHyper,
        cfg: CentralizedConfig,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut model = build_model(kind, train.num_users(), train.num_items(), hyper, &mut rng);
        // graph models see the full interaction graph
        let edges: Vec<(u32, u32, f32)> = train.pairs().map(|(u, i)| (u, i, 1.0)).collect();
        model.set_graph(&edges);
        Self { cfg, model, train: train.clone(), workers: Vec::new() }
    }
}

impl FederatedProtocol for Centralized {
    fn name(&self) -> &'static str {
        "Centralized"
    }

    fn configured_rounds(&self) -> u32 {
        self.cfg.epochs
    }

    /// One epoch as a two-phase map/reduce: per-user sample assembly
    /// (negative sampling on a derived per-user RNG stream) runs in
    /// parallel; the epoch shuffle and the SGD pass — serial by nature —
    /// replay in user order on the caller's thread.
    fn run_round(&mut self, ctx: &mut RoundCtx<'_>) -> RoundTrace {
        ctx.begin(&[]);
        let (seed, round) = (self.cfg.seed, ctx.round());
        let mut users: Vec<u32> = self.train.active_users().collect();
        let (train, neg_ratio) = (&self.train, self.cfg.neg_ratio);
        let per_chunk =
            map_chunks(self.cfg.threads, &mut users, &mut self.workers, |_, users, s| {
                let mut samples: Vec<(u32, u32, f32)> = Vec::new();
                for &u in &*users {
                    let positives = train.user_items(u);
                    let mut rng = round_rng(seed, round, RngStream::Client(u));
                    sample_negatives_into(
                        positives,
                        train.num_items(),
                        positives.len() * neg_ratio,
                        &mut rng,
                        &mut s.negatives,
                        &mut s.seen,
                    );
                    samples.extend(positives.iter().map(|&i| (u, i, 1.0f32)));
                    samples.extend(s.negatives.iter().map(|&i| (u, i, 0.0f32)));
                }
                samples
            });
        let mut samples = per_chunk.concat();
        let mut shuffle_rng = round_rng(seed, round, RngStream::Shuffle);
        shuffle(&mut samples, &mut shuffle_rng);
        let loss = ptf_models::train_on_samples(&mut *self.model, &samples, self.cfg.batch);
        RoundTrace::new(round, &[], loss, ctx.bytes())
    }

    fn recommender(&self) -> &dyn Recommender {
        &*self.model
    }

    fn threads(&self) -> usize {
        resolve_threads(self.cfg.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptf_data::{SyntheticConfig, TrainTestSplit};
    use ptf_federated::Engine;
    use ptf_models::evaluate_model;

    fn split() -> TrainTestSplit {
        let data = SyntheticConfig::new("c", 30, 60, 12.0).generate(&mut ptf_data::test_rng(2));
        TrainTestSplit::split_80_20(&data, &mut ptf_data::test_rng(3))
    }

    /// Runs every configured epoch; returns the engine (whose protocol
    /// holds the trained model) and the per-epoch mean losses.
    fn train(
        kind: ModelKind,
        s: &TrainTestSplit,
        hyper: &ModelHyper,
        cfg: CentralizedConfig,
    ) -> (Engine<Centralized>, Vec<f32>) {
        let mut engine = Engine::new(Centralized::new(kind, &s.train, hyper, cfg));
        let losses = engine.run().rounds.iter().map(|r| r.server_loss).collect();
        (engine, losses)
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let s = split();
        let cfg = CentralizedConfig { epochs: 8, batch: 128, neg_ratio: 4, seed: 5, threads: 0 };
        let (_, losses) = train(ModelKind::NeuMf, &s, &ModelHyper::small(), cfg);
        assert_eq!(losses.len(), 8);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "centralized loss did not improve: {losses:?}"
        );
    }

    #[test]
    fn trained_model_beats_untrained() {
        let s = split();
        let cfg = CentralizedConfig { epochs: 10, batch: 128, neg_ratio: 4, seed: 7, threads: 0 };
        let hyper = ModelHyper::small();
        let (trained, _) = train(ModelKind::LightGcn, &s, &hyper, cfg);
        let untrained = build_model(
            ModelKind::LightGcn,
            s.train.num_users(),
            s.train.num_items(),
            &hyper,
            &mut ptf_data::test_rng(99),
        );
        let k = 10;
        let got = evaluate_model(trained.protocol().recommender(), &s.train, &s.test, k);
        let base = evaluate_model(&*untrained, &s.train, &s.test, k);
        assert!(
            got.metrics.recall > base.metrics.recall,
            "training did not help: {:?} vs {:?}",
            got.metrics,
            base.metrics
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let s = split();
        let cfg = CentralizedConfig { epochs: 2, batch: 128, neg_ratio: 4, seed: 11, threads: 0 };
        let hyper = ModelHyper::small();
        let (a, la) = train(ModelKind::NeuMf, &s, &hyper, cfg.clone());
        let (b, lb) = train(ModelKind::NeuMf, &s, &hyper, cfg);
        assert_eq!(la, lb);
        let score = |e: &Engine<Centralized>| e.protocol().recommender().score(0, &[0, 1, 2]);
        assert_eq!(score(&a), score(&b));
    }

    #[test]
    fn runs_through_the_engine_like_any_protocol() {
        let s = split();
        let cfg = CentralizedConfig { epochs: 3, batch: 128, neg_ratio: 4, seed: 13, threads: 0 };
        let mut engine =
            Engine::new(Centralized::new(ModelKind::NeuMf, &s.train, &ModelHyper::small(), cfg));
        let trace = engine.run();
        assert_eq!(trace.num_rounds(), 3);
        for r in &trace.rounds {
            assert_eq!(r.participants, 0, "centralized training has no federated participants");
            assert_eq!(r.bytes, 0, "centralized training moves nothing on the wire");
            assert!(r.server_loss.is_finite());
        }
        assert_eq!(engine.ledger().summary().total_bytes, 0);
        assert!(engine.evaluate(&s.train, &s.test, 10).users_evaluated > 0);
    }
}
