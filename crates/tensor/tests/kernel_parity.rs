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
//!
//! The three matmul forms are checked against a naive triple loop at the
//! end of the file: on the fixed widths (16/32/64) they are serial per
//! output element and must match it bit for bit, under either backend.

use proptest::prelude::*;
use ptf_tensor::kernels::{self, dot_with, frob_sq_with, sum_with, Backend};
use ptf_tensor::Matrix;

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

/// Deterministic values salted with the cases a skipped or reordered term
/// would get wrong: exact zeros, `-0.0` and subnormals.
fn salted(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        match (state >> 33) % 11 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(((state >> 40) as u32 & 0x007f_ffff) | 1),
            3 => -f32::from_bits(((state >> 40) as u32 & 0x007f_ffff) | 1),
            _ => ((state >> 40) as f32 / (1u64 << 24) as f32) * 3.0 - 1.5,
        }
    })
}

/// `out += a × b`, every output element summed over `k` left to right
/// with no term skipped.
fn naive_acc(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut sum = out.get(i, j);
            for k in 0..a.cols() {
                sum += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, sum);
        }
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn fixed_width_matmul_forms_match_the_naive_serial_loop_bit_for_bit() {
    // one test function: it flips the process-global backend, which the
    // fixed-width paths must not read (nothing else in this binary does)
    for backend in [S, V] {
        kernels::set_backend(backend);
        for width in [16usize, 32, 64] {
            // inner dims through 65: every remainder of every unroll
            // factor, and one past nt_acc's 64-wide stack copy
            for inner in 1..=65usize {
                let rows = 1 + inner % 4;
                let seed = (width * 100 + inner) as u64;

                let a = salted(rows, inner, seed);
                let b = salted(inner, width, seed + 1);
                let mut expect = Matrix::zeros(rows, width);
                naive_acc(&a, &b, &mut expect);
                let mut got = Matrix::full(1, 1, 9.9); // wrong shape, dirty
                a.matmul_into(&b, &mut got);
                assert_eq!(bits(&got), bits(&expect), "matmul_into {rows}x{inner}x{width}");

                // out += aᵀ × g onto a dirty accumulator; the shared
                // dimension is `inner` here
                let a = salted(inner, rows, seed + 2);
                let g = salted(inner, width, seed + 3);
                let dirty = salted(rows, width, seed + 4);
                let mut expect = dirty.clone();
                naive_acc(&a.transpose(), &g, &mut expect);
                let mut got = dirty.clone();
                a.matmul_tn_acc(&g, &mut got);
                assert_eq!(bits(&got), bits(&expect), "matmul_tn_acc {inner}x{rows}x{width}");

                // out += g × bᵀ: the product is summed from zero, then
                // added to the accumulator
                let g = salted(rows, inner, seed + 5);
                let b = salted(width, inner, seed + 6);
                let mut product = Matrix::zeros(rows, width);
                naive_acc(&g, &b.transpose(), &mut product);
                let mut expect = dirty.clone();
                expect.add_assign(&product);
                let mut got = dirty;
                g.matmul_nt_acc(&b, &mut got);
                if inner <= 64 {
                    assert_eq!(bits(&got), bits(&expect), "matmul_nt_acc {rows}x{inner}x{width}");
                } else {
                    // past the stack copy it is a row dot per element
                    assert!(got.max_abs_diff(&expect) < 1e-4, "matmul_nt_acc {rows}x{inner}");
                }
            }
        }
    }
    kernels::set_backend(V); // restore the default
}

#[test]
fn other_widths_keep_the_plain_loops() {
    // a width with no row kernel: same sums, same order (the zero-skip of
    // the plain loops changes nothing for finite operands from zero)
    for (rows, inner, width) in [(3usize, 5usize, 24usize), (2, 33, 7), (4, 1, 1), (1, 17, 65)] {
        let a = salted(rows, inner, 7);
        let b = salted(inner, width, 8);
        let mut expect = Matrix::zeros(rows, width);
        naive_acc(&a, &b, &mut expect);
        assert_eq!(bits(&a.matmul(&b)), bits(&expect), "matmul {rows}x{inner}x{width}");

        let g = salted(rows, width, 9);
        let mut expect = Matrix::zeros(inner, width);
        naive_acc(&a.transpose(), &g, &mut expect);
        let mut got = Matrix::zeros(inner, width);
        a.matmul_tn_acc(&g, &mut got);
        assert_eq!(bits(&got), bits(&expect), "matmul_tn_acc {rows}x{inner}x{width}");

        let mut expect = Matrix::zeros(rows, inner);
        naive_acc(&g, &b.transpose(), &mut expect);
        let mut got = Matrix::zeros(rows, inner);
        g.matmul_nt_acc(&b, &mut got);
        assert!(got.max_abs_diff(&expect) < 1e-4, "matmul_nt_acc {rows}x{width}x{inner}");
    }
}
