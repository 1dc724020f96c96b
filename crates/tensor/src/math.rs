//! Lane-wise `exp` and `ln_1p` that return the platform libm's bits.
//!
//! Every sample of MF training takes one `exp` (for σ) and one `ln_1p`
//! (for the BCE loss), and as libm calls they were about a third of an MF
//! step: one call per lane, each a chain the CPU cannot overlap with the
//! next. The two ports here compute a whole array of lanes at once, and
//! each hands the lanes off its common path back to libm, so every output
//! is the bits glibc 2.36 returns for the same input:
//!
//! * [`exp`] ports glibc's `__expf_fma` (the ARM optimized-routines
//!   `expf`: `2^(k/32)` from a 32-entry table times a cubic in the
//!   reduced argument, all in `f64`), with its reduction fused,
//!   `r = fma(InvLn2N, x, −kd)`, as glibc's FMA build compiles it. It runs
//!   only on [`Isa::Avx2Fma`], which is exactly where glibc's ifunc selects
//!   `__expf_fma`; on [`Isa::Baseline`] it calls libm, whose SSE2 build
//!   rounds the reduction twice and is one ulp away at `0xc27c65d9` and
//!   `0x4202422f`. NaN and `|x| ≥ 88` go to libm.
//! * [`ln_1p`] ports fdlibm's `__log1pf`, which glibc builds once for
//!   every CPU, so it runs on both paths. Its branches become per-lane
//!   selects; `x < 2⁻²⁹` (0 and subnormals among them), `x ≥ 1` and NaN
//!   go to libm.
//!
//! Both matched glibc 2.36 on every input tried (the `#[ignore]`d
//! exhaustive tests below: every `f32` bit pattern through `exp`, every
//! `f32` in `[0, 1]` through `ln_1p`); the tier-1 tests pin a table of
//! recorded bits without calling libm. Against another libm
//! (musl, a later glibc) the ports keep glibc 2.36's bits while the
//! libm-called lanes follow the platform.

use crate::isa::Isa;

/// `2^(i/32)`'s bits minus `i << 47`: added to `ki << 47` (`ki ≡ i` mod
/// 32) they give `2^(ki/32)`'s bits (glibc's `__exp2f_data.tab`).
const EXP_TAB: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `0x1.8p52`: adding it rounds an `f64` below 2⁵¹ to an integer, which
/// then sits in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338000000000000);
/// `32 / ln 2` (`0x1.71547652b82fep5`).
const INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);
/// The cubic's coefficients, scaled to the reduced argument
/// (`0x1.c6af84b912394p-5/32³`, `0x1.ebfce50fac4f3p-3/32²`,
/// `0x1.62e42ff0c52d6p-1/32`).
const EXP_C: [f64; 3] = [
    f64::from_bits(0x3ebc6af84b912394),
    f64::from_bits(0x3f2ebfce50fac4f3),
    f64::from_bits(0x3f962e42ff0c52d6),
];

/// `e^x` of every lane, bit for bit libm's `expf` on `isa`'s path: the
/// port of glibc's `__expf_fma` on [`Isa::Avx2Fma`], libm everywhere on
/// [`Isa::Baseline`]. Lanes that are NaN or have `|x| ≥ 88` call libm on
/// both paths.
#[inline(always)]
pub fn exp<const N: usize>(isa: Isa, xs: [f32; N]) -> [f32; N] {
    // index loops, not `array::map`: its closure calls are not inlined,
    // and would run outside the caller's AVX2+FMA function
    let mut out = [0.0; N];
    if isa == Isa::Baseline {
        for k in 0..N {
            out[k] = xs[k].exp();
        }
        return out;
    }
    let mut ported = true;
    for k in 0..N {
        out[k] = exp_fma(xs[k]);
        ported &= exp_ported(xs[k]);
    }
    if !ported {
        for k in 0..N {
            if !exp_ported(xs[k]) {
                out[k] = xs[k].exp();
            }
        }
    }
    out
}

/// Whether [`exp`] computes lane `x` itself rather than calling libm.
#[inline(always)]
fn exp_ported(x: f32) -> bool {
    x.abs() < 88.0
}

/// glibc's `__expf_fma` on its common path (`|x| < 88`): `x·32/ln 2 =
/// k + r`, `e^x = 2^(k/32) · 2^(r/32)`, the first factor from the table
/// and the second a cubic in `r`.
#[inline(always)]
fn exp_fma(x: f32) -> f32 {
    let x = x as f64;
    let z = INV_LN2_N * x;
    let kd = z + SHIFT;
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(x, -kd);
    let s = f64::from_bits(EXP_TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let p = EXP_C[0].mul_add(r, EXP_C[1]);
    let y = p.mul_add(r * r, EXP_C[2].mul_add(r, 1.0));
    (y * s) as f32
}

const LN2_HI: f32 = f32::from_bits(0x3f317180);
const LN2_LO: f32 = f32::from_bits(0x3717f7d1);
/// fdlibm's `Lp1`…`Lp7`: the series of `ln((1+s)/(1−s))` in `s²`.
const LP: [f32; 7] = [
    f32::from_bits(0x3f2aaaab),
    f32::from_bits(0x3ecccccd),
    f32::from_bits(0x3e924925),
    f32::from_bits(0x3e638e29),
    f32::from_bits(0x3e3a3325),
    f32::from_bits(0x3e1cd04f),
    f32::from_bits(0x3e178897),
];

/// `ln(1 + x)` of every lane, bit for bit glibc's `log1pf`, on either
/// path. Lanes in `[2⁻²⁹, 1)` run the port; the rest (0, subnormals,
/// `x ≥ 1`, negatives, NaN) call libm.
#[inline(always)]
pub fn ln_1p<const N: usize>(xs: [f32; N]) -> [f32; N] {
    let mut out = [0.0; N];
    let mut ported = true;
    for k in 0..N {
        out[k] = log1pf_unit(xs[k]);
        ported &= ln_1p_ported(xs[k]);
    }
    if !ported {
        for k in 0..N {
            if !ln_1p_ported(xs[k]) {
                out[k] = xs[k].ln_1p();
            }
        }
    }
    out
}

/// Whether [`ln_1p`] computes lane `x` itself rather than calling libm.
#[inline(always)]
fn ln_1p_ported(x: f32) -> bool {
    (f32::from_bits(0x31000000)..1.0).contains(&x)
}

/// fdlibm's `__log1pf` on `[2⁻²⁹, 1)`, with both of its branches taken
/// by selects. `1 + x = 2^k · (1 + f)` with `√2/2 ≤ 1 + f < √2`, `c`
/// corrects the rounding of `1 + x`, and `ln(1 + f)` is `f − (f²/2 −
/// s·(f²/2 + R(s²)))` with `s = f/(2 + f)`.
#[inline(always)]
fn log1pf_unit(x: f32) -> f32 {
    // below 0x3ed413d7 (x < √2 − 1) fdlibm takes k = 0, f = x, c = 0;
    // above it, it reduces u = 1 + x, which may land on either k
    let reduce = x.to_bits() >= 0x3ed413d7;
    let u = 1.0 + x;
    let hu = u.to_bits();
    let k = (hu >> 23) as i32 - 127;
    let c = if k > 0 { 1.0 - (u - x) } else { x - (u - 1.0) } / u;
    let m = hu & 0x007fffff;
    let (m, k) = if m < 0x3504f7 { (m | 0x3f800000, k) } else { (m | 0x3f000000, k + 1) };
    let f = if reduce { f32::from_bits(m) - 1.0 } else { x };
    let k = if reduce { k } else { 0 };
    // fdlibm's k = 0 return, f − (hfsq − s·(hfsq + R)), drops c; with
    // k = 0 and c = 0 the last line below is the same bits
    let c = if k == 0 { 0.0 } else { c };
    let kf = k as f32;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let [lp1, lp2, lp3, lp4, lp5, lp6, lp7] = LP;
    let r = z * (lp1 + z * (lp2 + z * (lp3 + z * (lp4 + z * (lp5 + z * (lp6 + z * lp7))))));
    kf * LN2_HI - ((hfsq - (s * (hfsq + r) + (kf * LN2_LO + c))) - f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::dispatch;
    use std::hint::black_box;

    /// `(input, output)` bits of the `exp` port, recorded from glibc
    /// 2.36's FMA `expf`: the two inputs where its SSE2 build differs,
    /// ±0, subnormals, the ends of the ported range and ordinary values.
    const EXP_BITS: [(u32, u32); 14] = [
        (0xc27c65d9, 0x11fa2993),
        (0x4202422f, 0x56fc9f1c),
        (0x00000000, 0x3f800000),
        (0x80000000, 0x3f800000),
        (0x00000001, 0x3f800000),
        (0x807fffff, 0x3f800000),
        (0x3f800000, 0x402df854),
        (0xbf800000, 0x3ebc5ab2),
        (0xc2affffe, 0x0041ee06),
        (0x42affffe, 0x7ef881be),
        (0xbe000000, 0x3f61eb51),
        (0xc1200000, 0x383e6bce),
        (0x31000000, 0x3f800000),
        (0xb3800000, 0x3f7fffff),
    ];

    /// `(input, output)` bits of the `ln_1p` port, recorded from glibc
    /// 2.36's `log1pf`: the two inputs where FreeBSD's normalisation
    /// bound differs, the 2⁻²⁹ edge, both sides of fdlibm's branch, the
    /// top of the ported range and ordinary values.
    const LN_1P_BITS: [(u32, u32); 11] = [
        (0x3ed413d7, 0x3eb17220),
        (0x3ed413da, 0x3eb17220),
        (0x31000000, 0x31000000),
        (0x3ed413d6, 0x3eb1721e),
        (0x3ed413d8, 0x3eb17220),
        (0x3f7fffff, 0x3f317218),
        (0x3f7ffffe, 0x3f317217),
        (0x3f000000, 0x3ecf991f),
        (0x3e800000, 0x3e647fbe),
        (0x3a83126f, 0x3a8301ab),
        (0x3e9e0000, 0x3e89b438),
    ];

    /// Inputs each port hands to libm, so the recorded table does not
    /// hold them: −88 and beyond, NaN and ±∞ for `exp`; 0, subnormals,
    /// 1 and beyond, negatives and NaN for `ln_1p`.
    const EXP_TO_LIBM: [u32; 6] =
        [0xc2b00000, 0x42b00000, 0xc2d00000, 0x7fc00000, 0xff800000, 0x7f800000];
    const LN_1P_TO_LIBM: [u32; 7] =
        [0x00000000, 0x80000000, 0x00000001, 0x30ffffff, 0x3f800000, 0xbf000000, 0x7fc00000];

    #[test]
    fn the_ports_reproduce_recorded_bits_without_libm() {
        for &(x, y) in &EXP_BITS {
            let x = f32::from_bits(x);
            assert!(exp_ported(x), "{:#010x} is ported", x.to_bits());
            let got = exp_fma(black_box(x)).to_bits();
            assert_eq!(got, y, "exp({:#010x}) = {got:#010x}, recorded {y:#010x}", x.to_bits());
        }
        for &(x, y) in &LN_1P_BITS {
            let x = f32::from_bits(x);
            assert!(ln_1p_ported(x), "{:#010x} is ported", x.to_bits());
            let got = log1pf_unit(black_box(x)).to_bits();
            assert_eq!(got, y, "ln_1p({:#010x}) = {got:#010x}, recorded {y:#010x}", x.to_bits());
        }
        assert!(EXP_TO_LIBM.iter().all(|&x| !exp_ported(f32::from_bits(x))));
        assert!(LN_1P_TO_LIBM.iter().all(|&x| !ln_1p_ported(f32::from_bits(x))));
    }

    #[test]
    fn the_lane_entries_equal_their_scalar_ports_and_libm_off_them() {
        // every lane of an array is the port's, or libm's off its range,
        // wherever in the array the input sits
        let ins: Vec<f32> = EXP_BITS
            .iter()
            .chain(&LN_1P_BITS)
            .map(|&(x, _)| x)
            .chain(EXP_TO_LIBM)
            .chain(LN_1P_TO_LIBM)
            .map(f32::from_bits)
            .collect();
        for window in ins.windows(5) {
            let xs: [f32; 5] = window.try_into().unwrap();
            let got = dispatch(|isa| (isa, exp(isa, black_box(xs)), ln_1p(black_box(xs))));
            let (isa, e, l) = got;
            for (k, &x) in xs.iter().enumerate() {
                let want_e =
                    if isa == Isa::Avx2Fma && exp_ported(x) { exp_fma(x) } else { x.exp() };
                let want_l = if ln_1p_ported(x) { log1pf_unit(x) } else { x.ln_1p() };
                assert_eq!(e[k].to_bits(), want_e.to_bits(), "exp lane {k} of {xs:?}");
                assert_eq!(l[k].to_bits(), want_l.to_bits(), "ln_1p lane {k} of {xs:?}");
            }
        }
    }

    /// Set in the child process of
    /// [`the_baseline_exp_is_libm_and_never_the_port`].
    const CHILD: &str = "PTF_MATH_SSE2_CHILD";

    /// The baseline path returns libm's bits. On a CPU with AVX2+FMA that
    /// alone cannot tell libm from the port (glibc's libm there is the
    /// FMA build), so the test reruns itself with glibc's SSE2 `expf`
    /// selected, where libm and the port differ at `0xc27c65d9`: the
    /// baseline path must give libm's bits there, so the port never ran.
    #[test]
    fn the_baseline_exp_is_libm_and_never_the_port() {
        let mut xs: Vec<f32> = EXP_BITS.iter().map(|&(x, _)| f32::from_bits(x)).collect();
        xs.extend(EXP_TO_LIBM.map(f32::from_bits));
        xs.extend((0..4096u32).map(|k| f32::from_bits(k.wrapping_mul(0x9e3779b9))));
        for x in xs {
            let got = exp(Isa::Baseline, black_box([x]))[0];
            assert_eq!(got.to_bits(), black_box(x).exp().to_bits(), "x = {:#010x}", x.to_bits());
        }
        let x = f32::from_bits(0xc27c65d9);
        let (baseline, libm) = (exp(Isa::Baseline, black_box([x]))[0], black_box(x).exp());
        if libm.to_bits() != exp_fma(x).to_bits() {
            assert_eq!(baseline.to_bits(), libm.to_bits());
            println!("this libm's expf is not the port's: the baseline path gave libm's bits");
            return;
        }
        if std::env::var_os(CHILD).is_some() {
            println!("skipped: this libm's expf equals the port's even with SSE2 selected");
            return;
        }
        let test = "math::tests::the_baseline_exp_is_libm_and_never_the_port";
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", test, "--nocapture", "--test-threads=1"])
            .env(CHILD, "1")
            .env("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-AVX2,-FMA")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "the SSE2 rerun failed:\n{stdout}");
        // libtest prints the child's line after its own `test … ... `; a
        // libm without glibc's tunables (musl) cannot show it
        let said = ["this libm", "skipped:"].iter().find_map(|m| stdout.find(m));
        println!(
            "{}",
            said.map_or("skipped: the rerun printed nothing", |at| {
                stdout[at..].lines().next().unwrap_or_default()
            })
        );
    }

    /// Runs `check` over every `u32` bit pattern in `range` on two
    /// threads, under the dispatch; returns the mismatches (at most ten
    /// listed) and whether the AVX2+FMA path ran.
    fn sweep(
        range: std::ops::RangeInclusive<u32>,
        check: fn(Isa, [f32; 8]) -> [bool; 8],
    ) -> (u64, Vec<u32>, Isa) {
        let (lo, hi) = (*range.start() as u64, *range.end() as u64 + 1);
        let mid = lo + (hi - lo) / 2;
        std::thread::scope(|scope| {
            let halves = [(lo, mid), (mid, hi)].map(|(a, b)| {
                scope.spawn(move || {
                    dispatch(|isa| {
                        let (mut bad, mut first) = (0u64, Vec::new());
                        let mut at = a;
                        while at < b {
                            let xs: [f32; 8] = std::array::from_fn(|k| {
                                f32::from_bits((at + k as u64).min(b - 1) as u32)
                            });
                            for (k, ok) in check(isa, xs).into_iter().enumerate() {
                                if !ok && at + (k as u64) < b {
                                    bad += 1;
                                    if first.len() < 10 {
                                        first.push((at + k as u64) as u32);
                                    }
                                }
                            }
                            at += 8;
                        }
                        (bad, first, isa)
                    })
                })
            });
            let [a, b] = halves.map(|h| h.join().unwrap());
            (a.0 + b.0, a.1.into_iter().chain(b.1).take(10).collect(), a.2)
        })
    }

    /// Every `f32` bit pattern through [`exp`] on the AVX2+FMA path against
    /// the host's `expf` (≈ 70 s in release on two threads).
    #[test]
    #[ignore = "exhaustive over all 2^32 f32; run in release"]
    fn exp_port_matches_libm_on_every_f32() {
        let (bad, first, isa) = sweep(0..=u32::MAX, |isa, xs| {
            let got = exp(isa, xs);
            std::array::from_fn(|k| got[k].to_bits() == black_box(xs[k]).exp().to_bits())
        });
        if isa == Isa::Baseline {
            println!("skipped: this CPU lacks AVX2+FMA, so exp calls libm on every lane");
            return;
        }
        println!("exp: {bad} mismatches against the host's expf");
        assert_eq!(bad, 0, "first mismatches: {first:08x?}");
    }

    /// Every `f32` in `[0, 1]` through [`ln_1p`] against the host's `log1pf`
    /// (≈ 25 s in release on two threads).
    #[test]
    #[ignore = "exhaustive over the f32 in [0, 1]; run in release"]
    fn ln_1p_port_matches_libm_on_every_f32_in_0_1() {
        let (bad, first, _) = sweep(0..=0x3f800000, |_, xs| {
            let got = ln_1p(xs);
            std::array::from_fn(|k| got[k].to_bits() == black_box(xs[k]).ln_1p().to_bits())
        });
        println!("ln_1p: {bad} mismatches against the host's log1pf");
        assert_eq!(bad, 0, "first mismatches: {first:08x?}");
    }
}
