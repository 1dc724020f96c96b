//! The one runtime instruction-set dispatch point of the workspace.
//!
//! The crate builds for baseline x86-64 (SSE2), so a binary runs on any
//! x86-64 CPU. [`dispatch`] runs a closure inside a function compiled with
//! AVX2 and FMA enabled when the CPU has both, and as plain code
//! otherwise, and tells the closure which of the two it is in ([`Isa`]).
//! A caller marks the closure and everything with float work beneath it
//! `#[inline(always)]`, so the whole step compiles into that one function
//! and its loops vectorize 256 bits wide; anything left as a call runs at
//! baseline, exactly as before.
//!
//! The result is bit-identical on both paths:
//!
//! * rustc never sets LLVM's `contract` flag, so with FMA enabled
//!   `a * b + c` still rounds twice (and the workspace never calls
//!   `f32::mul_add`; its only `f64::mul_add`s are in
//!   [`crate::math::exp`], on the AVX2+FMA path only);
//! * LLVM does not reassociate f32 arithmetic without fast-math flags,
//!   so a wider vector changes how many lanes run at once, never the
//!   order of a sum;
//! * `sqrt` and division are correctly rounded on both instruction sets;
//! * [`crate::math::exp`] calls libm's `expf` on the baseline path and
//!   runs a port of glibc's FMA build of it on the AVX2+FMA path, which is
//!   the build glibc itself selects on such a CPU. glibc's SSE2 and FMA
//!   `expf` disagree by one ulp at `0xc27c65d9` and `0x4202422f` (force
//!   the SSE2 one with `GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA`), so
//!   the split follows glibc's. [`crate::math::ln_1p`] is a port of
//!   glibc's one `log1pf` build and runs on both paths.
//!
//! The hand-derived NeuMF and NGCF steps dispatch through here, and so
//! do the MF lane kernel (`ptf_models::mf::train_lanes`) and the MF
//! server's SGD (`MfModel::train_batch`, runs of up to four samples with
//! distinct users and items). Stepping four MF clients at once ran ≈ 1.2×
//! faster per sample dispatched than at baseline before either used the
//! ports, where a lone MF chain measured no gain. So does the MF server's
//! block scoring (`MfModel::block_logits_all_into` over
//! [`crate::kernels::block_row_logits`]): eight users in the lanes read
//! 2.0–2.5× faster per logit dispatched than at baseline, where one
//! user's `row_logits` measured no gain. LightGCN runs at baseline; no
//! benchmark workload measures it yet.
//!
//! [`prefetch`] is the module's other hint to the CPU: the MF lane kernel
//! asks for the item rows of the samples a few steps ahead, so their
//! first touch in a round does not stall the step that needs them.

/// The instruction set a [`dispatch`]ed closure is compiled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// Baseline code: SSE2 on x86-64, and every other target.
    Baseline,
    /// AVX2 and FMA, on a CPU that has both.
    Avx2Fma,
}

/// Runs `f`, inside an AVX2+FMA-enabled function when the CPU has both,
/// and hands it the [`Isa`] it runs on.
#[inline(always)]
pub fn dispatch<R>(f: impl FnOnce(Isa) -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
        // SAFETY: `v3` only requires AVX2 and FMA, and both were detected
        // on this CPU by the check just above.
        return unsafe { v3(f) };
    }
    f(Isa::Baseline)
}

/// `f(Isa::Avx2Fma)`, compiled with AVX2 and FMA enabled: an `#[inline(always)]`
/// closure and its `#[inline(always)]` callees are code-generated here.
///
/// # Safety
///
/// Callable only on a CPU that has both AVX2 and FMA; elsewhere its
/// instructions fault. [`dispatch`] checks both before the call.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn v3<R>(f: impl FnOnce(Isa) -> R) -> R {
    f(Isa::Avx2Fma)
}

/// Asks the CPU to start loading `data` into cache, one hint per 64
/// bytes from its start, and returns at once. A hint: it changes no
/// value, only when a later read of `data` finds it in cache.
#[inline(always)]
pub fn prefetch(data: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    for line in data.chunks(16) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: the pointer comes from a live slice, and a prefetch
        // neither reads nor writes memory the program can observe: it
        // cannot fault, and it needs only SSE, which every x86-64 has.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(line.as_ptr().cast()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_changes_nothing() {
        let xs: Vec<f32> = (0..70).map(|k| k as f32).collect();
        prefetch(&xs);
        prefetch(&xs[69..]);
        prefetch(&[]);
        assert!(xs.iter().enumerate().all(|(k, &x)| x == k as f32));
    }

    #[test]
    fn dispatch_returns_the_closure_result() {
        let xs = [1.5f32, -2.0, 0.25];
        assert_eq!(dispatch(|_| xs.iter().sum::<f32>()), -0.25);
        let mut hits = 0;
        dispatch(|_| hits += 1);
        assert_eq!(hits, 1);
        #[cfg(target_arch = "x86_64")]
        let v3 = std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma");
        #[cfg(not(target_arch = "x86_64"))]
        let v3 = false;
        assert_eq!(dispatch(|isa| isa), if v3 { Isa::Avx2Fma } else { Isa::Baseline });
    }
}
