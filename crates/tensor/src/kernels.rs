//! Compute kernels for the workspace's f32 hot loops.
//!
//! Every dot product, AXPY, reduction and fused SGD update in the
//! workspace routes through this module, with one exception: on the
//! output widths 16/32/64 the three matmul forms of [`crate::matrix`]
//! accumulate whole output rows in registers instead of calling [`axpy`]
//! or [`dot`] per `(row, k)`, serially per element.
//!
//! **Reductions** ([`dot`], [`sum`], [`frob_sq`]) use 8-lane chunked
//! accumulation with independent per-lane partials, reduced in a fixed
//! tree: the one transform LLVM cannot apply itself (reassociating an f32
//! sum changes rounding), and the one that makes a dim-32 dot ~2.5×
//! faster than the sequential chain here. Plain `a * b + acc` per lane;
//! `f32::mul_add` is deliberately avoided because baseline x86-64 has no
//! FMA and it lowers to a libm call. The results may differ from a
//! sequential left-to-right chain at the ulp level; the test oracles in
//! this module and `tests/kernel_parity.rs` keep that chain and bound the
//! difference. [`row_logits`] is [`dot`] plus a bias over a block of item
//! rows.
//!
//! **Element-wise kernels** ([`axpy`], [`add_assign`],
//! [`mf_sgd_update`], [`adam_update`]) are each one sequential loop.
//! This is a measured decision, not an omission: an element-wise loop
//! has no reassociation barrier, so LLVM already auto-vectorizes the
//! plain form; an earlier hand-chunked 8-lane variant of these kernels
//! benchmarked 1.5–1.8× *slower* end-to-end on the axpy-heavy models of
//! the time, which ran on an autograd tape (NGCF 8.4 → 14.5 ms/batch) —
//! the chunk/remainder bookkeeping defeated the optimizer on the many
//! short slices the tape emitted.
//!
//! **Under [`crate::isa::dispatch`].** The element-wise kernels, [`sum`]
//! and [`frob_sq`] are `#[inline(always)]`, so inside a step that runs
//! under the dispatch (the NeuMF and NGCF steps) they compile into the
//! AVX2+FMA entry and their loops vectorize 256 bits wide; everywhere
//! else they compile for baseline SSE2. [`dot`] and [`row_logits`] are
//! left to the inliner, as measured: forced into the graph models'
//! scoring loop, which runs at baseline, `dot`'s lanes vectorized two
//! wide instead of four and NGCF scoring ran ≈ 1.4× slower, while the
//! dispatched steps gained nothing from forcing it. The results are the
//! same bits on every path: the lanes and the summation order are
//! written in the source, and `a * b + c` is never contracted into an FMA.
//!
//! Every kernel is a pure function of its inputs, so results are
//! independent of thread count.

/// Exists only for the repository benchmark's `set_backend` call;
/// ROADMAP item 1 removes that call, and this type with it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The one implementation.
    Vector,
}

/// Does nothing. Exists only for the repository benchmark's call;
/// ROADMAP item 1 removes that call, and this function with it.
pub fn set_backend(_: Backend) {}

const LANES: usize = 8;

/// Dot product `⟨a, b⟩` (reduction: 8-lane accumulation, see module docs).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot length mismatch");
    // short slices (length-1 output layers) skip the lane machinery
    // entirely — the result is the same pure left-to-right chain the
    // remainder loop would compute
    if a.len() < LANES {
        return a.iter().zip(b).map(|(&x, &y)| x * y).sum();
    }
    // one bound for both slices: the lane loop then vectorizes without
    // the checks two independent `chunks_exact` iterators leave in it
    let full = a.len() - a.len() % LANES;
    let mut acc = [0.0f32; LANES];
    for (xa, xb) in a[..full].chunks_exact(LANES).zip(b[..full].chunks_exact(LANES)) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in a[full..].iter().zip(&b[full..]) {
        tail += x * y;
    }
    reduce_lanes(&acc) + tail
}

/// Logits of one user against a block of item rows: `out[r] = ⟨u,
/// row_r[..d]⟩ + row_r[d]` over a row-major block of `d + 1`-wide rows
/// (`d = u.len()`: the embedding, then the bias), one output per row.
///
/// Every logit is `dot(u, &row[..d]) + row[d]`, bit for bit, so it is the
/// logit a per-item [`dot`] gives. The block is walked one row at a time:
/// a four-row step that shares the loads of `u` measured ≈ 2× slower on
/// baseline x86-64 (dim 32), where the auto-vectorizer packs one row's
/// lanes into SIMD registers but not four rows' at once.
pub fn row_logits(u: &[f32], rows: &[f32], out: &mut [f32]) {
    let d = u.len();
    debug_assert_eq!(rows.len(), out.len() * (d + 1), "row_logits shape mismatch");
    for (o, row) in out.iter_mut().zip(rows.chunks_exact(d + 1)) {
        *o = dot(u, &row[..d]) + row[d];
    }
}

/// Sum of all elements (reduction: 8-lane accumulation, see module docs).
#[inline(always)]
pub fn sum(x: &[f32]) -> f32 {
    if x.len() < LANES {
        return x.iter().sum();
    }
    let mut acc = [0.0f32; LANES];
    let chunks = x.chunks_exact(LANES);
    let rem = chunks.remainder();
    for c in chunks {
        for l in 0..LANES {
            acc[l] += c[l];
        }
    }
    let mut tail = 0.0f32;
    for &v in rem {
        tail += v;
    }
    reduce_lanes(&acc) + tail
}

/// Squared Frobenius norm `Σ xᵢ²` (reduction: `dot(x, x)`).
#[inline(always)]
pub fn frob_sq(x: &[f32]) -> f32 {
    dot(x, x)
}

/// `y += alpha * x` (element-wise: one plain loop, see module docs).
#[inline(always)]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (y, &x) in y.iter_mut().zip(x) {
        *y += alpha * x;
    }
}

/// `y += x` (element-wise: one plain loop, see module docs).
#[inline(always)]
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    debug_assert_eq!(x.len(), y.len(), "add_assign length mismatch");
    for (y, &x) in y.iter_mut().zip(x) {
        *y += x;
    }
}

/// Fused per-sample MF SGD update from pre-step values (element-wise:
/// one plain loop, see module docs):
/// `uₖ ← uₖ − lr·(err·vₖ + reg·uₖ)`, `vₖ ← vₖ − lr·(err·uₖ + reg·vₖ)`.
#[inline(always)]
pub fn mf_sgd_update(u: &mut [f32], v: &mut [f32], err: f32, lr: f32, reg: f32) {
    debug_assert_eq!(u.len(), v.len(), "mf_sgd_update length mismatch");
    for (u, v) in u.iter_mut().zip(v.iter_mut()) {
        let (uk, vk) = (*u, *v);
        *u = uk - lr * (err * vk + reg * uk);
        *v = vk - lr * (err * uk + reg * vk);
    }
}

/// Fused Adam slice update (element-wise: one plain loop, see module
/// docs): one pass updating first/second moments and the parameter
/// slice with precomputed bias corrections `bc1 = 1−β₁ᵗ`, `bc2 = 1−β₂ᵗ`.
///
/// A moment that decays below the smallest normal `f32` is stored as
/// `+0.0`. Without the flush, a unit that stops receiving gradient (a
/// dead ReLU) keeps a first moment that sinks into the subnormals and
/// sticks at 2⁻¹⁴⁹ — `0.9·2⁻¹⁴⁹` rounds back up — so every later step
/// computes on subnormals, which x86 runs far slower. Wherever the
/// updated moments are zero or normal the step is the textbook one, bit
/// for bit; a flushed moment moves its parameter by less than it can
/// resolve.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub fn adam_update(
    p: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    g: &[f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
) {
    debug_assert!(p.len() == m.len() && m.len() == v.len() && v.len() == g.len());
    #[inline(always)]
    fn step(
        p: &mut f32,
        m: &mut f32,
        v: &mut f32,
        g: f32,
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        bc1: f32,
        bc2: f32,
    ) {
        *m = flush_subnormal(beta1 * *m + (1.0 - beta1) * g);
        *v = flush_subnormal(beta2 * *v + (1.0 - beta2) * g * g);
        let m_hat = *m / bc1;
        let v_hat = *v / bc2;
        *p -= lr * m_hat / (v_hat.sqrt() + eps);
    }
    for k in 0..p.len() {
        step(&mut p[k], &mut m[k], &mut v[k], g[k], lr, beta1, beta2, eps, bc1, bc2);
    }
}

/// `x`, or `+0.0` where `|x|` is below [`f32::MIN_POSITIVE`] (NaN is
/// kept). A bit mask rather than a branch: an `if` here de-vectorizes
/// the Adam loop.
#[inline(always)]
fn flush_subnormal(x: f32) -> f32 {
    let bits = x.to_bits();
    let normal = ((bits & 0x7fff_ffff) >= f32::MIN_POSITIVE.to_bits()) as u32;
    f32::from_bits(bits & normal.wrapping_neg())
}

/// Pairwise lane reduction with a fixed tree order (independent of data).
#[inline(always)]
fn reduce_lanes(acc: &[f32; LANES]) -> f32 {
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random f32 in roughly [-1, 1.5).
    fn lcg_vals(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.5 - 1.0
            })
            .collect()
    }

    /// Worst-case ulp distance budget for a reassociated n-term reduction.
    fn reduction_tol(terms: usize, magnitude: f32) -> f32 {
        (terms.max(1) as f32) * magnitude.max(1e-6) * f32::EPSILON * 4.0
    }

    /// The sequential left-to-right chains the 8-lane reductions are
    /// checked against.
    fn seq_dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(&x, &y)| x * y).sum()
    }

    fn seq_sum(x: &[f32]) -> f32 {
        x.iter().sum()
    }

    fn seq_frob_sq(x: &[f32]) -> f32 {
        x.iter().map(|v| v * v).sum()
    }

    #[test]
    fn dot_parity_across_dims_including_remainders() {
        for dim in 0..=64usize {
            let a = lcg_vals(dim, 3 + dim as u64);
            let b = lcg_vals(dim, 77 + dim as u64);
            let (s, v) = (seq_dot(&a, &b), dot(&a, &b));
            let mag: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
            assert!(
                (s - v).abs() <= reduction_tol(dim, mag),
                "dim {dim}: sequential {s} vs 8-lane {v}"
            );
        }
    }

    #[test]
    fn sum_and_frob_parity() {
        for dim in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64] {
            let x = lcg_vals(dim, dim as u64);
            let mag: f32 = x.iter().map(|v| v.abs()).sum();
            let (ss, sv) = (seq_sum(&x), sum(&x));
            assert!((ss - sv).abs() <= reduction_tol(dim, mag), "sum dim {dim}: {ss} vs {sv}");
            let (fs, fv) = (seq_frob_sq(&x), frob_sq(&x));
            assert!((fs - fv).abs() <= reduction_tol(dim, mag), "frob dim {dim}: {fs} vs {fv}");
        }
    }

    #[test]
    fn nan_and_inf_lanes_propagate_in_both_backends() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for pos in [0usize, 3, 8, 12] {
                let mut a = lcg_vals(13, 5);
                a[pos] = bad;
                let b = lcg_vals(13, 6);
                for (name, d) in [("sequential", seq_dot(&a, &b)), ("8-lane", dot(&a, &b))] {
                    assert!(!d.is_finite() || d.is_nan(), "{name} dot swallowed {bad} at {pos}");
                }
                for (name, s) in [("sequential", seq_sum(&a)), ("8-lane", sum(&a))] {
                    assert!(!s.is_finite() || s.is_nan(), "{name} sum swallowed {bad} at {pos}");
                }
            }
        }
    }

    #[test]
    fn empty_slices_are_identities() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(sum(&[]), 0.0);
        assert_eq!(frob_sq(&[]), 0.0);
        let mut y: [f32; 0] = [];
        axpy(2.0, &[], &mut y);
        add_assign(&mut y, &[]);
    }

    #[test]
    fn row_logits_equal_dot_plus_bias_bit_for_bit() {
        for dim in 1..=70usize {
            let u = lcg_vals(dim, 11 + dim as u64);
            for n in [0usize, 1, 3, 4, 5, 7, 9, 13] {
                let rows = lcg_vals(n * (dim + 1), 101 + (dim * n) as u64);
                let mut out = vec![f32::NAN; n];
                row_logits(&u, &rows, &mut out);
                for (r, (&got, row)) in out.iter().zip(rows.chunks_exact(dim + 1)).enumerate() {
                    let want = dot(&u, &row[..dim]) + row[dim];
                    assert_eq!(got.to_bits(), want.to_bits(), "dim {dim} row {r}/{n}");
                }
            }
        }
    }

    #[test]
    fn adam_flushes_a_decayed_first_moment_to_zero() {
        // a unit that stops receiving gradient: without the flush its
        // first moment sticks at 2⁻¹⁴⁹ forever
        let (mut p, mut m, mut v) = ([0.5f32], [1.0f32], [1.0f32]);
        for _ in 0..2_000 {
            adam_update(&mut p, &mut m, &mut v, &[0.0], 1e-3, 0.9, 0.999, 1e-8, 1.0, 1.0);
        }
        assert_eq!(m[0].to_bits(), 0.0f32.to_bits(), "m = {:e}", m[0]);
        assert!(v[0].is_normal());
    }

    proptest::proptest! {
        /// Wherever the updated moments are zero or normal, the step is
        /// the textbook formula bit for bit; a subnormal moment is +0.0.
        #[test]
        fn adam_is_textbook_wherever_moments_are_normal(
            vals in proptest::collection::vec(
                (-1e3f32..1e3, -1e-30f32..1e-30, 0.0f32..1e-30, -1e-2f32..1e-2, 0u8..4),
                1..40,
            ),
            step in 1i32..50,
        ) {
            let (lr, b1, b2, eps) = (1e-3f32, 0.9f32, 0.999f32, 1e-8f32);
            let (bc1, bc2) = (1.0 - b1.powi(step), 1.0 - b2.powi(step));
            // mix tiny moments (which decay into the subnormals), exact
            // zeros and ordinary ones
            let pick = |x: f32, k: u8| match k { 0 => x, 1 => 0.0, 2 => x * 1e28, _ => x * 1e-8 };
            let p0: Vec<f32> = vals.iter().map(|t| t.0).collect();
            let m0: Vec<f32> = vals.iter().map(|t| pick(t.1, t.4)).collect();
            let v0: Vec<f32> = vals.iter().map(|t| pick(t.2, t.4)).collect();
            let g: Vec<f32> =
                vals.iter().map(|t| [t.3, 0.0, t.3, t.3 * 1e-36][t.4 as usize]).collect();
            let (mut p, mut m, mut v) = (p0.clone(), m0.clone(), v0.clone());
            adam_update(&mut p, &mut m, &mut v, &g, lr, b1, b2, eps, bc1, bc2);
            for k in 0..p.len() {
                let mk = b1 * m0[k] + (1.0 - b1) * g[k];
                let vk = b2 * v0[k] + (1.0 - b2) * g[k] * g[k];
                if !mk.is_subnormal() && !vk.is_subnormal() {
                    let pk = p0[k] - lr * (mk / bc1) / ((vk / bc2).sqrt() + eps);
                    proptest::prop_assert_eq!(m[k].to_bits(), mk.to_bits());
                    proptest::prop_assert_eq!(v[k].to_bits(), vk.to_bits());
                    proptest::prop_assert_eq!(p[k].to_bits(), pk.to_bits());
                }
                if mk.is_subnormal() {
                    proptest::prop_assert_eq!(m[k].to_bits(), 0.0f32.to_bits());
                }
                if vk.is_subnormal() {
                    proptest::prop_assert_eq!(v[k].to_bits(), 0.0f32.to_bits());
                }
            }
        }
    }
}
