//! Weight initializers.
//!
//! Two normal samplers live here, on purpose. [`normal`] (like
//! `Matrix::randn` and the synthetic dataset generators) draws through
//! `rand_distr::Normal`, a Box–Muller transform; that stream is what the
//! generated datasets are made of, so it does not change. The per-row
//! item init behind every model, [`derived_normal_row`], runs once per
//! weight of every dense client table (16.7 M draws for the ML-100K
//! preset) and on every row growth and eviction reset, so it
//! has its own sampler: a 128-layer ziggurat (Marsaglia & Tsang 2000, in
//! Doornik's ZIGNOR form) that accepts ≈ 99 % of draws with one `u64`
//! and one compare, and pays `exp`/`ln` only in the wedges and the tail.
//!
//! **The derived row stream is part of the checkpoint format.** An
//! unmaterialized row is never stored: a restore re-derives it from
//! `(seed, id)`. Any change to the values [`derived_normal_row`] produces
//! — sampler, tables, stream discriminator, seeding — is a checkpoint
//! format change that bumps `MANIFEST_VERSION` in `ptf-core`; the golden
//! values in this module's tests are there to notice one.

use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::{Distribution, Normal, Uniform};
use std::sync::LazyLock;

/// I.i.d. normal entries N(0, std²).
pub fn normal(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Matrix {
    let dist = Normal::new(0.0f32, std).expect("std must be finite and non-negative");
    Matrix::from_fn(rows, cols, |_, _| dist.sample(rng))
}

/// Xavier/Glorot uniform: U(−a, a) with `a = sqrt(6 / (fan_in + fan_out))`.
///
/// Used for the dense layers of NeuMF and the NGCF propagation weights, as
/// in the reference implementations of those models.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    let a = (6.0 / (rows + cols) as f32).sqrt();
    let dist = Uniform::new_inclusive(-a, a);
    Matrix::from_fn(rows, cols, |_, _| dist.sample(rng))
}

/// Stream discriminator separating per-row init draws from every other
/// consumer of [`crate::rowtable::derive_seed`].
const ROW_INIT_STREAM: u64 = 0x0520_4E49_5449_414C;

/// Fills `out` with i.i.d. `N(0, std²)` entries drawn from the RNG
/// derived from `(seed, id)` — the per-row initializer behind
/// [`crate::rowtable::RowTable`] and every model's item rows.
///
/// Because the draw depends only on `(seed, id, std, out.len())`, a row
/// holds bit-identical values whether it was materialized eagerly in a
/// full table, eagerly in a scoped table, or by a later growth pass — the
/// keystone of scoped-vs-full bit-comparability. Entry `k` depends only
/// on the stream up to it, so a shorter row is a prefix of a longer one.
/// Each entry is `(std as f64 * z) as f32` for a standard-normal draw
/// `z` from the module's ziggurat.
pub fn derived_normal_row(seed: u64, id: u32, std: f32, out: &mut [f32]) {
    assert!(std.is_finite() && std >= 0.0, "std must be finite and non-negative: {std}");
    let mut rng =
        StdRng::seed_from_u64(crate::rowtable::derive_seed(seed, id as u64, ROW_INIT_STREAM));
    let zig = &*ZIGGURAT;
    let std = std as f64;
    for x in out.iter_mut() {
        *x = (std * zig.sample(&mut rng)) as f32;
    }
}

/// Layer count, right edge `R` of the base strip, and common layer area
/// `V` of the standard-normal ziggurat (Marsaglia & Tsang 2000; the
/// constants of Doornik 2005).
const ZIG_LAYERS: usize = 128;
const ZIG_R: f64 = 3.442619855899;
const ZIG_V: f64 = 9.91256303526217e-3;

/// The ziggurat's layer tables, built once per process.
static ZIGGURAT: LazyLock<Ziggurat> = LazyLock::new(Ziggurat::build);

/// A 128-layer ziggurat over the unnormalized density `f(x) = e^{-x²/2}`
/// (Doornik's ZIGNOR). Layer `i` is the rectangle `[0, x[i]] × [f(x[i]),
/// f(x[i+1])]`; all layers and the base strip (the rectangle under
/// `f(R)` plus the tail past `R`) have area `V`.
struct Ziggurat {
    /// Right edges: `x[0] = V / f(R)` (the base strip as a rectangle of
    /// area `V`), `x[1] = R`, strictly decreasing to `x[128] = 0`.
    x: [f64; ZIG_LAYERS + 1],
    /// `x[i + 1] / x[i]`: a uniform `|u|` below it lands in the part of
    /// layer `i` that lies wholly under the curve.
    ratio: [f64; ZIG_LAYERS],
}

impl Ziggurat {
    /// The layer recurrence `x[i] = f⁻¹(V / x[i-1] + f(x[i-1]))`.
    fn build() -> Self {
        let mut x = [0.0; ZIG_LAYERS + 1];
        let mut f = (-0.5 * ZIG_R * ZIG_R).exp();
        x[0] = ZIG_V / f;
        x[1] = ZIG_R;
        for i in 2..ZIG_LAYERS {
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + f).ln()).sqrt();
            f = (-0.5 * x[i] * x[i]).exp();
        }
        let ratio = std::array::from_fn(|i| x[i + 1] / x[i]);
        Self { x, ratio }
    }

    /// One standard-normal draw. The fast path reads one `u64`: its low
    /// 7 bits pick the layer, its top 53 bits the uniform `u ∈ [-1, 1)`,
    /// and one compare accepts. Otherwise the draw is in the tail (layer
    /// 0) or in a wedge, both resolved in `f64` with further uniforms.
    #[inline]
    fn sample(&self, rng: &mut StdRng) -> f64 {
        loop {
            let bits = rng.next_u64();
            let i = (bits & (ZIG_LAYERS as u64 - 1)) as usize;
            let u = (bits >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
            if u.abs() < self.ratio[i] {
                return u * self.x[i];
            }
            if i == 0 {
                return Self::tail(rng, u < 0.0);
            }
            let z = u * self.x[i];
            let f0 = (-0.5 * (self.x[i] * self.x[i] - z * z)).exp();
            let f1 = (-0.5 * (self.x[i + 1] * self.x[i + 1] - z * z)).exp();
            if f1 + rng.gen::<f64>() * (f0 - f1) < 1.0 {
                return z;
            }
        }
    }

    /// Marsaglia's exact sampler for the normal tail past `R`.
    #[cold]
    fn tail(rng: &mut StdRng, negative: bool) -> f64 {
        loop {
            // uniforms in (0, 1], so both logarithms are finite
            let x = (1.0 - rng.gen::<f64>()).ln() / ZIG_R;
            let y = (1.0 - rng.gen::<f64>()).ln();
            if -2.0 * y >= x * x {
                return if negative { x - ZIG_R } else { ZIG_R - x };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn normal_has_roughly_requested_moments() {
        let mut rng = crate::test_rng(1);
        let m = normal(200, 50, 0.5, &mut rng);
        let n = m.len() as f32;
        let mean = m.sum() / n;
        let var = m.as_slice().iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.02, "std {}", var.sqrt());
    }

    #[test]
    fn xavier_respects_bound() {
        let mut rng = crate::test_rng(2);
        let m = xavier_uniform(64, 32, &mut rng);
        let a = (6.0f32 / 96.0).sqrt();
        assert!(m.as_slice().iter().all(|x| x.abs() <= a));
        // and actually spreads out
        assert!(m.as_slice().iter().any(|x| x.abs() > a * 0.5));
    }

    /// Pins the derived row stream. A failure here means every
    /// unmaterialized row of a stored envelope would restore to different
    /// values: bump `MANIFEST_VERSION` (and `docs/checkpoint-format.md`)
    /// before updating these bits.
    #[test]
    fn derived_rows_match_golden_bits() {
        let golden: [(u64, u32, &[u32]); 3] = [
            (0, 0, &[0xbb17b1f2, 0xbe0cc023, 0x3d223634, 0xbd0a3702]),
            (2024, 1681, &[0xbe22bd5d, 0x3ba4d161, 0x3e39932b]),
            (0xDEAD_BEEF_CAFE_F00D, 77, &[0x3d6964dd, 0x3d9c31bd]),
        ];
        for (seed, id, want) in golden {
            let mut out = vec![0.0f32; want.len()];
            derived_normal_row(seed, id, 0.1, &mut out);
            assert_eq!(bits(&out), want, "seed {seed:#x} id {id}");
        }
    }

    #[test]
    fn a_shorter_derived_row_is_a_prefix_of_a_longer_one() {
        for id in [0, 5, 1681] {
            let (mut short, mut long) = ([0.0f32; 8], [0.0f32; 32]);
            derived_normal_row(7, id, 0.1, &mut short);
            derived_normal_row(7, id, 0.1, &mut long);
            assert_eq!(bits(&short), bits(&long[..8]), "id {id}");
        }
    }

    #[test]
    fn derived_rows_are_standard_normal() {
        // 32 768 rows of 32: ≈ 600 draws are expected past R, so the tail
        // path runs, and every layer's wedge is hit many times
        let (rows, cols) = (1 << 15, 32);
        let (mut s1, mut s2, mut s4, mut past_r) = (0.0f64, 0.0f64, 0.0f64, 0usize);
        let mut row = vec![0.0f32; cols];
        for id in 0..rows {
            derived_normal_row(11, id, 1.0, &mut row);
            for &x in &row {
                let x = x as f64;
                s1 += x;
                s2 += x * x;
                s4 += x * x * x * x;
                past_r += usize::from(x.abs() > ZIG_R);
            }
        }
        let n = (rows * cols as u32) as f64;
        let (mean, var, kurt) = (s1 / n, s2 / n, s4 / n);
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var - 1.0).abs() < 0.007, "variance {var}");
        assert!((kurt - 3.0).abs() < 0.05, "E[x⁴] {kurt}");
        // P(|Z| > R) = 2·(1 − Φ(R)) ≈ 5.7e-4; sd of the share ≈ 2.3e-5
        let share = past_r as f64 / n;
        assert!((share - 5.7e-4).abs() < 1.2e-4, "share past R {share}");
    }

    #[test]
    fn ziggurat_tables_step_down_from_r_to_zero() {
        let zig = &*ZIGGURAT;
        assert_eq!(zig.x[1], ZIG_R);
        assert_eq!(zig.x[ZIG_LAYERS], 0.0);
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]), "{:?}", zig.x);
        // every layer has area V; the top layer is a cap, wholly wedge
        let f = |x: f64| (-0.5 * x * x).exp();
        for i in 1..ZIG_LAYERS {
            let area = zig.x[i] * (f(zig.x[i + 1]) - f(zig.x[i]));
            assert!((area - ZIG_V).abs() < 1e-9, "layer {i}: area {area}");
        }
        assert_eq!(zig.ratio[ZIG_LAYERS - 1], 0.0);
    }

    #[test]
    #[should_panic(expected = "std must be finite and non-negative")]
    fn derived_row_rejects_a_negative_std() {
        derived_normal_row(0, 0, -0.1, &mut [0.0; 4]);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = normal(4, 4, 1.0, &mut crate::test_rng(42));
        let b = normal(4, 4, 1.0, &mut crate::test_rng(42));
        assert_eq!(a.as_slice(), b.as_slice());
    }
}
