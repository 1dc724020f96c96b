//! Heap-allocation accounting: a counting `GlobalAlloc` wrapper plus the
//! query API the perf harness is built on.
//!
//! Binaries that want accounting opt in by installing the shim:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: ptf_tensor::alloc::CountingAlloc = ptf_tensor::alloc::CountingAlloc;
//! ```
//!
//! Every query below reads plain atomics/thread-locals, so library code can
//! call them unconditionally: without the shim installed they simply report
//! zero. Two consumers rely on this:
//!
//! * the repo benchmark (`benchmark/`) and `tests/scale_flat_heap.rs` use
//!   [`peak_bytes`] as an allocator-precise "peak RSS" figure (live heap
//!   high-water mark — tighter than OS RSS, which includes the binary
//!   and allocator slack);
//! * the federated protocols measure [`thread_allocs`] around each
//!   client's local round to *prove* the scratch-buffer hot path performs
//!   zero steady-state heap allocations (the counter is thread-local, so
//!   parallel workers never see each other's traffic).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
static CURRENT_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn on_alloc(size: usize) {
    TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    TOTAL_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let now = CURRENT_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
    // `try_with`: the TLS slot may already be torn down during thread exit
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

#[inline]
fn on_dealloc(size: usize) {
    CURRENT_BYTES.fetch_sub(size, Ordering::Relaxed);
}

/// A [`System`]-backed allocator that keeps global and per-thread
/// counters. Install with `#[global_allocator]` to enable accounting.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the bookkeeping around it
// touches only atomics and a const-initialized thread-local.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards `layout` unchanged to `System.alloc`, which upholds
    // the `GlobalAlloc` contract; the counter update never allocates.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` come from a matching `alloc` on this same
    // `System` delegate, so forwarding them to `System.dealloc` is sound.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        System.dealloc(ptr, layout)
    }

    // SAFETY: same argument as `alloc`; `System.alloc_zeroed` upholds the
    // zero-initialization contract itself.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr`/`layout` come from a matching `alloc`, and `new_size`
    // is forwarded unchanged, so `System.realloc`'s contract is met.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // a grow/shrink counts as one allocation event and adjusts the
        // live-byte figure by the delta
        on_dealloc(layout.size());
        on_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation events since process start.
pub fn total_allocs() -> u64 {
    TOTAL_ALLOCS.load(Ordering::Relaxed)
}

/// Bytes requested across all allocation events.
pub fn total_bytes() -> u64 {
    TOTAL_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of live heap bytes since start (or [`reset_peak`]).
pub fn peak_bytes() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Allocation events on *this thread* since it started. Monotonic;
/// callers measure a region by differencing two reads.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Rebases the peak to the current live size (measure a phase's peak).
pub fn reset_peak() {
    PEAK_BYTES.store(CURRENT_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    // NB: the shim is *not* installed in this test binary, so the
    // counters must read zero — which is itself the contract library
    // callers depend on.
    #[test]
    fn uninstalled_counters_read_zero() {
        let _v: Vec<u64> = (0..1000).collect();
        assert_eq!(super::total_allocs(), 0);
        assert_eq!(super::peak_bytes(), 0);
        assert_eq!(super::thread_allocs(), 0);
    }
}
