//! The reduction kernels against their sequential oracles, and the
//! matmul, spmm, `dot` and Adam kernels against themselves under
//! `ptf_tensor::isa::dispatch`.
//!
//! The contract under test (documented in `ptf_tensor::kernels`):
//!
//! * **reductions** (`dot`, `sum`, `frob_sq`) accumulate in 8 lanes, so
//!   they agree with the sequential left-to-right chain (the oracles
//!   below; test names call the two "backends") to a small tolerance on
//!   finite input, and both propagate NaN and infinities;
//! * every reduction is a pure function of its slice arguments — running
//!   it twice is bit-identical (the determinism story: no thread-count
//!   dependence can exist in a function that never threads).
//!
//! The element-wise kernels (`axpy`, `add_assign`, `mf_sgd_update`,
//! `adam_update`) have no reassociation and so no oracle to check.
//!
//! Lengths are drawn from `0..=64`, which covers the empty slice, every
//! sub-chunk length, the exact 8-lane width, and non-multiple-of-8
//! remainders.
//!
//! The three matmul forms are checked against a naive triple loop at the
//! end of the file: on the fixed widths (16/32/64) they are serial per
//! output element and must match it bit for bit. The users-in-lanes
//! `block_row_logits` must give every logit per-user `row_logits` gives,
//! bit for bit.
//!
//! Baseline vs AVX2: the NeuMF and NGCF steps and the MF server's block
//! scoring run under `ptf_tensor::isa::dispatch`, which compiles them with
//! AVX2 and FMA where the CPU has both. The matmul forms, the spmm rows,
//! `dot`, `block_row_logits` and `adam_update` are run here both directly
//! (baseline code) and inside `isa::dispatch`, and must agree bit for
//! bit. On a CPU without AVX2+FMA both calls take the baseline path, so
//! those tests print a note and skip.

use proptest::prelude::*;
use ptf_tensor::kernels::{self, dot, frob_sq, sum};
use ptf_tensor::{isa, matrix, Csr, Matrix};

/// The sequential left-to-right chains the 8-lane reductions are
/// checked against.
#[inline]
fn seq_dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

fn seq_sum(x: &[f32]) -> f32 {
    x.iter().sum()
}

fn seq_frob_sq(x: &[f32]) -> f32 {
    x.iter().map(|v| v * v).sum()
}

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
        let s = seq_dot(&a, &b);
        let v = dot(&a, &b);
        let scale: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        prop_assert!(close(s, v, scale), "sequential {s} vs 8-lane {v}");
        // purity: re-running is bit-identical
        prop_assert_eq!(v.to_bits(), dot(&a, &b).to_bits());
    }

    #[test]
    fn sum_and_frob_backends_agree_on_finite_input(x in finite_vec(64)) {
        let scale: f32 = x.iter().map(|v| v.abs()).sum();
        prop_assert!(close(seq_sum(&x), sum(&x), scale));
        prop_assert!(close(seq_frob_sq(&x), frob_sq(&x), scale * 4.0));
        prop_assert_eq!(sum(&x).to_bits(), sum(&x).to_bits());
        prop_assert_eq!(frob_sq(&x).to_bits(), frob_sq(&x).to_bits());
    }

    #[test]
    fn reductions_propagate_nan(
        x in proptest::collection::vec(-2.0f32..2.0, 1..=64),
        pos in 0usize..1024,
    ) {
        let mut x = x;
        let at = pos % x.len();
        x[at] = f32::NAN;
        prop_assert!(seq_sum(&x).is_nan() && sum(&x).is_nan());
        prop_assert!(seq_dot(&x, &x).is_nan() && dot(&x, &x).is_nan());
        prop_assert!(seq_frob_sq(&x).is_nan() && frob_sq(&x).is_nan());
    }
}

#[test]
fn empty_slices_are_identities_on_both_backends() {
    assert_eq!(seq_dot(&[], &[]), 0.0);
    assert_eq!(dot(&[], &[]), 0.0);
    assert_eq!(seq_sum(&[]), 0.0);
    assert_eq!(sum(&[]), 0.0);
    assert_eq!(seq_frob_sq(&[]), 0.0);
    assert_eq!(frob_sq(&[]), 0.0);
}

#[test]
fn exact_lane_multiples_and_remainders_agree() {
    // deterministic spot-check around the 8-lane boundary: 7 (pure tail),
    // 8 (one exact chunk), 9 (chunk + 1), 16, 17, 24
    for n in [7usize, 8, 9, 16, 17, 24] {
        let a: Vec<f32> = (0..n).map(|k| 0.1 * k as f32 - 0.7).collect();
        let b: Vec<f32> = (0..n).map(|k| 0.3 - 0.05 * k as f32).collect();
        let (s, v) = (seq_dot(&a, &b), dot(&a, &b));
        assert!((s - v).abs() <= 1e-4, "n={n}: sequential {s} vs 8-lane {v}");
    }
}

#[test]
fn infinities_reach_the_accumulator_in_both_backends() {
    // a single +Inf with no cancelling −Inf must surface as +Inf however
    // the reduction is associated
    let mut x = vec![1.0f32; 19];
    x[11] = f32::INFINITY;
    assert_eq!(seq_sum(&x), f32::INFINITY);
    assert_eq!(sum(&x), f32::INFINITY);
    assert_eq!(seq_frob_sq(&x), f32::INFINITY);
    assert_eq!(frob_sq(&x), f32::INFINITY);
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
            let got = a.matmul(&b);
            assert_eq!(bits(&got), bits(&expect), "matmul {rows}x{inner}x{width}");
            let mut wide = Matrix::zeros(rows, width);
            let out = wide.as_mut_slice();
            isa::dispatch(
                #[inline(always)]
                |_| matrix::acc(a.as_slice(), inner, b.as_slice(), width, out),
            );
            assert_eq!(bits(&wide), bits(&expect), "dispatched acc {rows}x{inner}x{width}");

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
            let mut wide = dirty.clone();
            let out = wide.as_mut_slice();
            isa::dispatch(
                #[inline(always)]
                |_| matrix::tn_acc(a.as_slice(), rows, g.as_slice(), width, out),
            );
            assert_eq!(bits(&wide), bits(&expect), "dispatched tn_acc {inner}x{rows}x{width}");

            // out += g × bᵀ: the product is summed from zero, then
            // added to the accumulator
            let g = salted(rows, inner, seed + 5);
            let b = salted(width, inner, seed + 6);
            let mut product = Matrix::zeros(rows, width);
            naive_acc(&g, &b.transpose(), &mut product);
            let mut expect = dirty.clone();
            expect.add_assign(&product);
            let mut wide = dirty.clone();
            let out = wide.as_mut_slice();
            isa::dispatch(
                #[inline(always)]
                |_| matrix::nt_acc(g.as_slice(), inner, b.as_slice(), width, out),
            );
            let mut got = dirty;
            g.matmul_nt_acc(&b, &mut got);
            assert_eq!(bits(&wide), bits(&got), "dispatched nt_acc {rows}x{inner}x{width}");
            if inner <= 64 {
                assert_eq!(bits(&got), bits(&expect), "matmul_nt_acc {rows}x{inner}x{width}");
            } else {
                // past the stack copy it is a row dot per element
                assert!(got.max_abs_diff(&expect) < 1e-4, "matmul_nt_acc {rows}x{inner}");
            }
        }
    }
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

/// Whether `isa::dispatch` takes its AVX2 path on this CPU. Without it
/// both sides of a baseline-vs-AVX2 comparison run the same code, so the
/// caller skips and says so.
fn avx2_path() -> bool {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        return true;
    }
    eprintln!("skipped: this CPU lacks AVX2+FMA, so isa::dispatch runs the baseline path");
    false
}

#[test]
fn spmm_rows_are_bit_identical_under_dispatch() {
    if !avx2_path() {
        return;
    }
    for width in [16usize, 32, 64, 33] {
        let n = 29;
        let x = salted(n, width, width as u64);
        let weights = salted(1, 4 * n, 50 + width as u64);
        let triplets: Vec<(u32, u32, f32)> = (0..4 * n)
            .map(|k| ((k * 7 % n) as u32, (k * 11 % n) as u32, weights.as_slice()[k]))
            .collect();
        let csr = Csr::from_triplets(n, n, &triplets);
        let dirty = salted(n, width, 90 + width as u64);
        let mut base = dirty.clone();
        csr.spmm_acc(x.as_slice(), width, base.as_mut_slice());
        let mut wide = dirty;
        let out = wide.as_mut_slice();
        isa::dispatch(
            #[inline(always)]
            |_| csr.spmm_acc(x.as_slice(), width, out),
        );
        assert_eq!(bits(&wide), bits(&base), "spmm_acc width {width}");
    }
}

#[test]
fn dot_is_bit_identical_under_dispatch_on_both_backends() {
    if !avx2_path() {
        return;
    }
    // the 8-lane kernel, and its sequential oracle so the comparisons
    // above mean the same thing on both paths
    for len in 0..=70usize {
        let a = salted(1, len, len as u64);
        let b = salted(1, len, 200 + len as u64);
        let (a, b) = (a.as_slice(), b.as_slice());
        let wide = isa::dispatch(
            #[inline(always)]
            |_| dot(a, b),
        );
        assert_eq!(wide.to_bits(), dot(a, b).to_bits(), "8-lane dot of length {len}");
        let wide = isa::dispatch(
            #[inline(always)]
            |_| seq_dot(a, b),
        );
        assert_eq!(wide.to_bits(), seq_dot(a, b).to_bits(), "sequential dot of length {len}");
    }
}

#[test]
fn adam_is_bit_identical_under_dispatch_while_moments_decay_into_subnormals() {
    if !avx2_path() {
        return;
    }
    // 37 elements: whole vectors plus a remainder. Tiny moments and a
    // gradient that stops after the first step decay into the
    // subnormals within ~180 steps, where the update flushes them to 0.
    let n = 37;
    let p0 = salted(1, n, 1).into_vec();
    let m0: Vec<f32> = salted(1, n, 2).as_slice().iter().map(|v| v * 1e-30).collect();
    let v0: Vec<f32> = salted(1, n, 3).as_slice().iter().map(|v| (v * 1e-30).abs()).collect();
    let g = salted(1, n, 4).into_vec();
    let zero = vec![0.0f32; n];
    let (mut base, mut wide) = ((p0.clone(), m0.clone(), v0.clone()), (p0, m0, v0));
    let live = |m: &[f32]| m.iter().filter(|&&x| x != 0.0).count();
    let live_at_start = live(&base.1);
    for t in 1..=400i32 {
        let g = if t == 1 { &g } else { &zero };
        let (bc1, bc2) = (1.0 - 0.9f32.powi(t), 1.0 - 0.999f32.powi(t));
        let (p, m, v) = (&mut base.0, &mut base.1, &mut base.2);
        kernels::adam_update(p, m, v, g, 1e-3, 0.9, 0.999, 1e-8, bc1, bc2);
        let (p, m, v) = (&mut wide.0, &mut wide.1, &mut wide.2);
        isa::dispatch(
            #[inline(always)]
            |_| kernels::adam_update(p, m, v, g, 1e-3, 0.9, 0.999, 1e-8, bc1, bc2),
        );
        for (name, b, w) in
            [("p", &base.0, &wide.0), ("m", &base.1, &wide.1), ("v", &base.2, &wide.2)]
        {
            let (b, w): (Vec<u32>, Vec<u32>) =
                (b.iter().map(|x| x.to_bits()).collect(), w.iter().map(|x| x.to_bits()).collect());
            assert_eq!(w, b, "{name} after step {t}");
        }
    }
    assert!(live(&base.1) < live_at_start, "no first moment was flushed");
}

/// Values salted like [`salted`], plus a few ±∞ and NaN: a lane that
/// skipped, reordered or mixed up a user's terms would move their bits.
fn salted_with_specials(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let bits = (state >> 40) as u32;
            match (state >> 33) % 400 {
                0 => f32::INFINITY,
                1 => f32::NEG_INFINITY,
                2 => f32::NAN,
                3..=30 => 0.0,
                31..=58 => -0.0,
                59..=86 => f32::from_bits((bits & 0x007f_ffff) | 1),
                87..=114 => -f32::from_bits((bits & 0x007f_ffff) | 1),
                _ => (bits as f32 / (1u64 << 24) as f32) * 3.0 - 1.5,
            }
        })
        .collect()
}

/// The same bits, or NaN on both sides (a NaN's payload is not pinned).
fn same_logit(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

#[test]
fn block_row_logits_equal_per_user_row_logits_bit_for_bit() {
    // d on both sides of `dot`'s 8-lane chunk and off its multiples,
    // and either side of the widest lane-major block (256); 1–8 users;
    // catalogues shorter than a staging chunk and one (1,682 items,
    // ML-100K's) that spans four. Each block is checked as plain
    // baseline code and inside `isa::dispatch`.
    let wide = avx2_path();
    for d in (1..=70usize).chain([256, 257]) {
        let users = salted_with_specials(kernels::USER_BLOCK * d, d as u64);
        let users: Vec<&[f32]> = users.chunks_exact(d).collect();
        for items in (0..=17usize).chain((d <= 70).then_some(1682)) {
            let rows = salted_with_specials(items * (d + 1), 1000 * d as u64 + items as u64);
            let want: Vec<Vec<f32>> = users
                .iter()
                .map(|u| {
                    let mut out = vec![0.0; items];
                    kernels::row_logits(u, &rows, &mut out);
                    out
                })
                .collect();
            let counts: &[usize] = if items > 17 { &[3, 8] } else { &[1, 2, 3, 4, 5, 6, 7, 8] };
            for &n in counts {
                for dispatched in [false, true] {
                    if dispatched && !wide {
                        continue;
                    }
                    let mut got = vec![vec![f32::NAN; items]; n];
                    let mut out: Vec<&mut [f32]> = got.iter_mut().map(|o| &mut o[..]).collect();
                    let users = &users[..n];
                    if dispatched {
                        isa::dispatch(
                            #[inline(always)]
                            |_| kernels::block_row_logits(users, &rows, &mut out),
                        );
                    } else {
                        kernels::block_row_logits(users, &rows, &mut out);
                    }
                    for (k, (got, want)) in got.iter().zip(&want).enumerate() {
                        for (r, (&g, &w)) in got.iter().zip(want).enumerate() {
                            assert!(
                                same_logit(g, w),
                                "d {d}, {n} users, {items} items, dispatched {dispatched}: \
                                 user {k} row {r}: {g:e} vs {w:e}"
                            );
                        }
                    }
                }
            }
        }
    }
}
