//! Order statistics over timing samples, and the micro-benchmark loop.

use std::time::Instant;

/// Smallest sample — the gated statistic for every timing (see README:
/// on this host the per-run minimum repeats far better than the median).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Linear-interpolated percentile `p ∈ [0, 1]` (0 for an empty slice).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let at = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Wall time of `f`, in seconds.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Best-of-batches cost of one call of `f`, in nanoseconds: the batch
/// size is grown until a batch lasts ≥ 2 ms, then `BATCHES` batches run
/// and the fastest one is reported per call.
pub fn ns_per_call(mut f: impl FnMut()) -> f64 {
    const BATCHES: usize = 12;
    let mut n = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..n {
            f();
        }
        if start.elapsed().as_secs_f64() >= 2e-3 || n >= 1 << 24 {
            break;
        }
        n *= 2;
    }
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..n {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() / n as f64);
    }
    best * 1e9
}
