//! Model-level scalar-vs-vector backend agreement.
//!
//! `kernels::set_backend` flips a process-global switch, so everything
//! that must run under a pinned backend lives in ONE test function —
//! sibling `#[test]`s run on concurrent threads and would race the
//! switch. (Per-slice parity is covered property-by-property in
//! `crates/tensor/tests/kernel_parity.rs`, which uses the race-free
//! `_with(backend, ..)` entry points.)

use ptf_fedrec::models::{NeuMf, NeuMfConfig, Recommender, ScopeView};
use ptf_fedrec::tensor::kernels::{self, Backend};

fn train_and_score(backend: Backend) -> (Vec<f32>, Vec<f32>) {
    kernels::set_backend(backend);
    let cfg = NeuMfConfig { dim: 8, layers: vec![16, 8], lr: 0.01 };
    let mut m = NeuMf::new_scoped(6, &cfg, ScopeView::Full(20), 77);
    let batch: Vec<(u32, u32, f32)> =
        (0..40u32).map(|k| (k % 6, (k * 3) % 20, if k % 2 == 0 { 1.0 } else { 0.0 })).collect();
    let mut losses = Vec::new();
    for _ in 0..30 {
        losses.push(m.train_batch(&batch));
    }
    let scores: Vec<f32> = (0..6).flat_map(|u| m.score_all(u)).collect();
    (losses, scores)
}

#[test]
fn scalar_and_vector_backends_train_to_the_same_model() {
    let (scalar_loss, scalar_scores) = train_and_score(Backend::Scalar);
    let (vector_loss, vector_scores) = train_and_score(Backend::Vector);
    // same backend twice → bit-identical (the determinism claim holds at
    // model level, not just per-kernel)
    let (vector_loss2, vector_scores2) = train_and_score(Backend::Vector);
    kernels::set_backend(Backend::Vector); // restore the default
    assert_eq!(
        vector_scores.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        vector_scores2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "vector backend must be deterministic across runs"
    );
    assert_eq!(vector_loss.last().unwrap().to_bits(), vector_loss2.last().unwrap().to_bits());

    // across backends only the reductions reassociate, so 30 training
    // steps stay within a small tolerance — close enough that the
    // backends are interchangeable for every quality metric
    for (round, (s, v)) in scalar_loss.iter().zip(&vector_loss).enumerate() {
        assert!((s - v).abs() < 1e-3, "round {round}: scalar loss {s} vs vector {v}");
    }
    let max_diff =
        scalar_scores.iter().zip(&vector_scores).map(|(s, v)| (s - v).abs()).fold(0.0f32, f32::max);
    assert!(max_diff < 1e-2, "backend score divergence after training: {max_diff}");
    // and the models genuinely learned (guards against comparing two
    // no-op runs)
    assert!(scalar_loss.last().unwrap() < &(scalar_loss[0] * 0.8), "{scalar_loss:?}");
}
