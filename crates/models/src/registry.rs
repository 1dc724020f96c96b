//! Model registry: build any paper model by name.
//!
//! Table VIII evaluates every client-model × server-model combination, so
//! protocols construct models through [`ModelKind`] + [`ModelHyper`]
//! instead of naming concrete types.

use crate::lightgcn::LightGcn;
use crate::neumf::NeuMf;
use crate::ngcf::Ngcf;
use crate::traits::Recommender;
use ptf_data::Scale;
use ptf_tensor::ScopeView;
use rand::Rng;

/// The architectures the registry can build: the paper's three
/// ([`ModelKind::ALL`]) plus plain matrix factorization.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    NeuMf,
    Ngcf,
    LightGcn,
    /// Plain MF with per-sample SGD — not in the paper's tables, but the
    /// throughput workhorse for paper-scale runs: its score/train paths
    /// are fully allocation-free, so an MF client round stays inside the
    /// client-phase workers' scratch buffers.
    Mf,
}

impl ModelKind {
    /// The three architectures the paper's tables evaluate (excludes the
    /// extra [`ModelKind::Mf`] perf baseline).
    pub const ALL: [ModelKind; 3] = [Self::NeuMf, Self::Ngcf, Self::LightGcn];

    pub fn name(self) -> &'static str {
        match self {
            Self::NeuMf => "NeuMF",
            Self::Ngcf => "NGCF",
            Self::LightGcn => "LightGCN",
            Self::Mf => "MF",
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The model hyperparameters (§IV-D defaults): the one struct every
/// architecture's constructor reads. Each reads only its own fields.
#[derive(Clone, Debug)]
pub struct ModelHyper {
    /// Embedding dimension (paper: 32).
    pub dim: usize,
    /// Adam learning rate (paper: 0.001).
    pub lr: f32,
    /// Propagation layers for NGCF/LightGCN (paper: 3).
    pub gcn_layers: usize,
    /// MLP widths for NeuMF (paper: 64, 32, 16).
    pub mlp_layers: Vec<usize>,
    /// L2 weight decay for NGCF's propagation weights and batch
    /// embeddings — the reference NGCF's weight decay; without it the
    /// extra W₁/W₂ parameters overfit sparse interaction data badly.
    pub ngcf_reg: f32,
    /// NGCF message dropout rate on each layer's output during training
    /// (reference implementation: 0.1); inference never drops.
    pub ngcf_dropout: f32,
}

impl Default for ModelHyper {
    fn default() -> Self {
        Self {
            dim: 32,
            lr: 1e-3,
            gcn_layers: 3,
            mlp_layers: vec![64, 32, 16],
            ngcf_reg: 2e-2,
            ngcf_dropout: 0.1,
        }
    }
}

impl ModelHyper {
    /// A reduced configuration for quick experiments and tests.
    pub fn small() -> Self {
        Self {
            dim: 16,
            lr: 5e-3,
            gcn_layers: 2,
            mlp_layers: vec![32, 16],
            ngcf_reg: 5e-2,
            ngcf_dropout: 0.1,
        }
    }

    /// The hyperparameters at `scale`: [`Self::default`] or [`Self::small`].
    pub fn at(scale: Scale) -> Self {
        scale.pick(Self::default, Self::small)
    }
}

/// Constructs a boxed dense model of the requested architecture: the
/// [`build_model_scoped`] model over the full catalogue, from a seed drawn
/// off `rng` — servers, `Centralized` and clients share one init scheme.
pub fn build_model(
    kind: ModelKind,
    num_users: usize,
    num_items: usize,
    hyper: &ModelHyper,
    rng: &mut impl Rng,
) -> Box<dyn Recommender> {
    build_model_scoped(kind, num_users, hyper, ScopeView::Full(num_items), rng.gen())
}

/// Constructs a boxed model whose item embeddings cover exactly `scope`.
///
/// This is the item-scoped model-construction API: a federated client
/// passes `ScopeView::Rows` over its private positives and gets a model
/// holding only those embedding rows (each round prepares its sampled
/// negatives and dispersed items through `Recommender::prepare_items`,
/// each row from its `(seed, id)`-derived init). All randomness derives from `seed`, and
/// the item-row draws are independent of the scope — so a `Rows` model
/// and a `Full` model built from the same seed are bit-identical on
/// every row both hold.
pub fn build_model_scoped(
    kind: ModelKind,
    num_users: usize,
    hyper: &ModelHyper,
    scope: ScopeView<'_>,
    seed: u64,
) -> Box<dyn Recommender> {
    match kind {
        ModelKind::NeuMf => Box::new(NeuMf::new_scoped(num_users, hyper, scope, seed)),
        ModelKind::Ngcf => Box::new(Ngcf::new_scoped(num_users, hyper, scope, seed)),
        ModelKind::LightGcn => Box::new(LightGcn::new_scoped(num_users, hyper, scope, seed)),
        ModelKind::Mf => {
            Box::new(crate::mf::MfModel::new_scoped(num_users, hyper.dim, hyper.lr, scope, seed))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptf_tensor::test_rng;

    #[test]
    fn builds_mf_through_the_registry() {
        let m = build_model(ModelKind::Mf, 4, 6, &ModelHyper::small(), &mut test_rng(9));
        assert_eq!(m.name(), "MF");
        assert!(!m.uses_graph(), "MF must let clients skip edge assembly");
        // scratch scoring agrees with the allocating path
        let mut buf = Vec::new();
        m.score_into(1, &[0, 3, 5], &mut buf);
        assert_eq!(buf, m.score(1, &[0, 3, 5]));
        m.score_all_into(2, &mut buf);
        assert_eq!(buf, m.score_all(2));
    }

    #[test]
    fn builds_every_kind() {
        let hyper = ModelHyper::small();
        for kind in ModelKind::ALL {
            let m = build_model(kind, 4, 6, &hyper, &mut test_rng(1));
            assert_eq!(m.name(), kind.name());
            assert_eq!(m.num_users(), 4);
            assert_eq!(m.num_items(), 6);
            assert!(m.num_params() > 0);
            let s = m.score(0, &[0, 5]);
            assert!(s.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn boxed_models_train_through_the_trait() {
        let hyper = ModelHyper::small();
        for kind in ModelKind::ALL {
            let mut m = build_model(kind, 3, 4, &hyper, &mut test_rng(2));
            m.set_graph(&[(0, 0, 1.0), (1, 1, 1.0)]);
            let batch = vec![(0u32, 0u32, 1.0f32), (0, 2, 0.0)];
            let first = m.train_batch(&batch);
            let mut last = first;
            for _ in 0..100 {
                last = m.train_batch(&batch);
            }
            assert!(last < first, "{kind}: loss {first} → {last} did not improve");
        }
    }

    #[test]
    fn scoped_registry_builds_every_kind() {
        let hyper = ModelHyper::small();
        let scope = ScopeView::Rows { num_items: 12, ids: &[1, 5, 9] };
        for kind in [ModelKind::Mf, ModelKind::NeuMf, ModelKind::Ngcf, ModelKind::LightGcn] {
            let mut m = build_model_scoped(kind, 2, &hyper, scope, 7);
            assert_eq!(m.name(), kind.name());
            assert_eq!(m.num_items(), 12, "{kind}: ids stay global");
            assert_eq!(m.item_scope().len(), 3, "{kind}: only scoped rows materialized");
            assert!(!m.item_scope().is_full());
            // out-of-scope items score (cold) without materializing…
            let s = m.score(0, &[11]);
            assert!((0.0..=1.0).contains(&s[0]), "{kind}: {s:?}");
            assert_eq!(m.item_scope().len(), 3, "{kind}: scoring must not materialize");
            // …and preparing one materializes exactly that row
            m.prepare_items(&[1, 5, 11]);
            m.set_graph(&[(0, 1, 1.0)]);
            m.train_batch(&[(0, 11, 1.0), (1, 5, 0.0)]);
            assert_eq!(m.item_scope().len(), 4, "{kind}");
            assert!(m.item_scope().contains(11), "{kind}");
        }
    }

    #[test]
    fn scoped_checkpoints_roundtrip_sparse_tables() {
        let hyper = ModelHyper::small();
        let scope = ScopeView::Rows { num_items: 16, ids: &[0, 3, 7] };
        for kind in [ModelKind::Mf, ModelKind::NeuMf, ModelKind::Ngcf, ModelKind::LightGcn] {
            let mut trained = build_model_scoped(kind, 3, &hyper, scope, 13);
            trained.prepare_items(&[0, 3, 12]);
            trained.set_graph(&[(0, 0, 1.0), (1, 3, 1.0)]);
            for _ in 0..10 {
                trained.train_batch(&[(0, 0, 1.0), (0, 12, 0.0), (1, 3, 1.0)]);
            }
            let ckpt = trained.export_full_state().expect("scoped models checkpoint");
            let probe = [0u32, 3, 7, 12];
            let expected = trained.score(1, &probe);

            let mut fresh = build_model_scoped(kind, 3, &hyper, scope, 4242);
            fresh.import_full_state(&ckpt).unwrap_or_else(|e| panic!("{kind}: {e}"));
            if kind == ModelKind::LightGcn || kind == ModelKind::Ngcf {
                // the graph is not part of a checkpoint
                fresh.set_graph(&[(0, 0, 1.0), (1, 3, 1.0)]);
            }
            assert_eq!(fresh.score(1, &probe), expected, "{kind}: state not restored");
            assert!(fresh.item_scope().contains(12), "{kind}: grown row lost");
        }
    }

    #[test]
    fn paper_defaults() {
        let h = ModelHyper::default();
        assert_eq!(h.dim, 32);
        assert_eq!(h.gcn_layers, 3);
        assert_eq!(h.mlp_layers, vec![64, 32, 16]);
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;
    use ptf_tensor::test_rng;

    #[test]
    fn export_import_roundtrip_preserves_scores() {
        let hyper = ModelHyper::small();
        for kind in ModelKind::ALL {
            let mut trained = build_model(kind, 4, 8, &hyper, &mut test_rng(5));
            trained.set_graph(&[(0, 0, 1.0), (1, 3, 1.0)]);
            for _ in 0..30 {
                trained.train_batch(&[(0, 0, 1.0), (0, 5, 0.0), (1, 3, 1.0)]);
            }
            let checkpoint = trained.export_full_state().expect("every model checkpoints");
            let expected = trained.score(0, &[0, 3, 5]);

            let mut fresh = build_model(kind, 4, 8, &hyper, &mut test_rng(99));
            fresh.set_graph(&[(0, 0, 1.0), (1, 3, 1.0)]);
            assert_ne!(fresh.score(0, &[0, 3, 5]), expected, "{kind}: seeds collided?");
            fresh.import_full_state(&checkpoint).unwrap();
            // the graph is not part of a checkpoint
            fresh.set_graph(&[(0, 0, 1.0), (1, 3, 1.0)]);
            assert_eq!(fresh.score(0, &[0, 3, 5]), expected, "{kind}: state not restored");
        }
    }

    #[test]
    fn import_rejects_wrong_architecture() {
        let hyper = ModelHyper::small();
        let neumf = build_model(ModelKind::NeuMf, 4, 8, &hyper, &mut test_rng(1));
        let mut lightgcn = build_model(ModelKind::LightGcn, 4, 8, &hyper, &mut test_rng(2));
        let ckpt = neumf.export_full_state().unwrap();
        assert!(lightgcn.import_full_state(&ckpt).is_err(), "cross-architecture load must fail");
        assert!(lightgcn.import_full_state("{garbage").is_err());
    }

    #[test]
    fn import_rejects_wrong_shape() {
        let hyper = ModelHyper::small();
        let small = build_model(ModelKind::LightGcn, 4, 8, &hyper, &mut test_rng(3));
        let mut big = build_model(ModelKind::LightGcn, 4, 16, &hyper, &mut test_rng(4));
        let ckpt = small.export_full_state().unwrap();
        let err = big.import_full_state(&ckpt).unwrap_err();
        assert!(err.contains("shape mismatch"), "{err}");
    }
}
