//! The one runtime instruction-set dispatch point of the workspace.
//!
//! The crate builds for baseline x86-64 (SSE2), so a binary runs on any
//! x86-64 CPU. [`dispatch`] runs a closure inside a function compiled with
//! AVX2 and FMA enabled when the CPU has both, and as plain code
//! otherwise. A caller marks the closure and everything with float work
//! beneath it `#[inline(always)]`, so the whole step compiles into that
//! one function and its loops vectorize 256 bits wide; anything left as
//! a call runs at baseline, exactly as before.
//!
//! The result is bit-identical on both paths:
//!
//! * rustc never sets LLVM's `contract` flag, so with FMA enabled
//!   `a * b + c` still rounds twice (and the workspace never calls
//!   `f32::mul_add`);
//! * LLVM does not reassociate f32 arithmetic without fast-math flags,
//!   so a wider vector changes how many lanes run at once, never the
//!   order of a sum;
//! * `sqrt` and division are correctly rounded on both instruction sets,
//!   and `exp`/`ln_1p` are the same libm calls.
//!
//! The hand-derived NeuMF and NGCF steps dispatch through here, and so
//! does the MF lane kernel (`ptf_models::mf::train_lanes`): stepping
//! four MF clients at once, it ran ≈ 1.2× faster per sample dispatched
//! than at baseline, where a lone MF chain (`MfModel::train_batch`,
//! still baseline) measured no gain. LightGCN runs at baseline; no
//! benchmark workload measures it yet.
//!
//! [`prefetch`] is the module's other hint to the CPU: the MF lane kernel
//! asks for the item rows of the samples a few steps ahead, so their
//! first touch in a round does not stall the step that needs them.

/// Runs `f`, inside an AVX2+FMA-enabled function when the CPU has both.
#[inline(always)]
pub fn dispatch<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
        // SAFETY: `v3` only requires AVX2 and FMA, and both were detected
        // on this CPU by the check just above.
        return unsafe { v3(f) };
    }
    f()
}

/// `f()`, compiled with AVX2 and FMA enabled: an `#[inline(always)]`
/// closure and its `#[inline(always)]` callees are code-generated here.
///
/// # Safety
///
/// Callable only on a CPU that has both AVX2 and FMA; elsewhere its
/// instructions fault. [`dispatch`] checks both before the call.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn v3<R>(f: impl FnOnce() -> R) -> R {
    f()
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
        assert_eq!(dispatch(|| xs.iter().sum::<f32>()), -0.25);
        let mut hits = 0;
        dispatch(|| hits += 1);
        assert_eq!(hits, 1);
    }
}
