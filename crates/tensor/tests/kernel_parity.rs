//! Backend parity for the reduction kernels.
//!
//! The contract under test (documented in `ptf_tensor::kernels`):
//!
//! * **reductions** (`dot`, `sum`, `frob_sq`) may reassociate in the
//!   Vector backend, so they agree to a small tolerance on finite input
//!   and both propagate NaN;
//! * every reduction is a pure function of its slice arguments — running
//!   it twice on the same backend is bit-identical (the determinism
//!   story: no thread-count dependence can exist in a function that
//!   never threads).
//!
//! The element-wise kernels (`axpy`, `add_assign`, `mf_sgd_update`,
//! `adam_update`) have no backend and so no parity to check.
//!
//! Lengths are drawn from `0..=64`, which covers the empty slice, every
//! sub-chunk length, the exact 8-lane width, and non-multiple-of-8
//! remainders.

use proptest::prelude::*;
use ptf_tensor::kernels::{dot_with, frob_sq_with, sum_with, Backend};

const S: Backend = Backend::Scalar;
const V: Backend = Backend::Vector;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, 0..=max_len)
}

fn finite_pair(max_len: usize) -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    // equal-length pair: draw `a` at 0..=max_len, draw `b` full-length and
    // trim it to match (the vendored shim has no `prop_flat_map`)
    (
        proptest::collection::vec(-2.0f32..2.0, 0..=max_len),
        proptest::collection::vec(-2.0f32..2.0, max_len..=max_len),
    )
        .prop_map(|(a, mut b)| {
            b.truncate(a.len());
            (a, b)
        })
}

/// Reassociation tolerance for an `n ≤ 64` reduction of values in ±4.
fn close(a: f32, b: f32, scale: f32) -> bool {
    (a - b).abs() <= 1e-4 * (1.0 + scale)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dot_backends_agree_on_finite_input(ab in finite_pair(64)) {
        let (a, b) = ab;
        let s = dot_with(S, &a, &b);
        let v = dot_with(V, &a, &b);
        let scale: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        prop_assert!(close(s, v, scale), "scalar {s} vs vector {v}");
        // purity: re-running either backend is bit-identical
        prop_assert_eq!(s.to_bits(), dot_with(S, &a, &b).to_bits());
        prop_assert_eq!(v.to_bits(), dot_with(V, &a, &b).to_bits());
    }

    #[test]
    fn sum_and_frob_backends_agree_on_finite_input(x in finite_vec(64)) {
        let scale: f32 = x.iter().map(|v| v.abs()).sum();
        prop_assert!(close(sum_with(S, &x), sum_with(V, &x), scale));
        prop_assert!(close(frob_sq_with(S, &x), frob_sq_with(V, &x), scale * 4.0));
        prop_assert_eq!(sum_with(V, &x).to_bits(), sum_with(V, &x).to_bits());
    }

    #[test]
    fn reductions_propagate_nan(
        x in proptest::collection::vec(-2.0f32..2.0, 1..=64),
        pos in 0usize..1024,
    ) {
        let mut x = x;
        let at = pos % x.len();
        x[at] = f32::NAN;
        prop_assert!(sum_with(S, &x).is_nan() && sum_with(V, &x).is_nan());
        prop_assert!(dot_with(S, &x, &x).is_nan() && dot_with(V, &x, &x).is_nan());
        prop_assert!(frob_sq_with(S, &x).is_nan() && frob_sq_with(V, &x).is_nan());
    }
}

#[test]
fn empty_slices_are_identities_on_both_backends() {
    for b in [S, V] {
        assert_eq!(dot_with(b, &[], &[]), 0.0);
        assert_eq!(sum_with(b, &[]), 0.0);
        assert_eq!(frob_sq_with(b, &[]), 0.0);
    }
}

#[test]
fn exact_lane_multiples_and_remainders_agree() {
    // deterministic spot-check around the 8-lane boundary: 7 (pure tail),
    // 8 (one exact chunk), 9 (chunk + 1), 16, 17, 24
    for n in [7usize, 8, 9, 16, 17, 24] {
        let a: Vec<f32> = (0..n).map(|k| 0.1 * k as f32 - 0.7).collect();
        let b: Vec<f32> = (0..n).map(|k| 0.3 - 0.05 * k as f32).collect();
        let s = dot_with(S, &a, &b);
        let v = dot_with(V, &a, &b);
        assert!((s - v).abs() <= 1e-4, "n={n}: scalar {s} vs vector {v}");
    }
}

#[test]
fn infinities_reach_the_accumulator_in_both_backends() {
    // a single +Inf with no cancelling −Inf must surface as +Inf however
    // the reduction is associated
    let mut x = vec![1.0f32; 19];
    x[11] = f32::INFINITY;
    assert_eq!(sum_with(S, &x), f32::INFINITY);
    assert_eq!(sum_with(V, &x), f32::INFINITY);
    assert_eq!(frob_sq_with(S, &x), f32::INFINITY);
    assert_eq!(frob_sq_with(V, &x), f32::INFINITY);
}
