//! A minimal deterministic fork/join worker pool on `std::thread::scope`.
//!
//! The crate has no crates.io access, so this is the whole parallel
//! substrate: ordered map primitives that split the input into contiguous
//! chunks, run each chunk on its own scoped thread, and splice the
//! results back **in input order**. Nothing here is work-stealing or
//! lock-free — per-item work in this workspace (a client's local training
//! round, a user's full ranking pass) is orders of magnitude heavier than
//! a thread spawn, and static chunking keeps the schedule — and therefore
//! the output — independent of timing.
//!
//! Determinism contract: for a pure-per-item `f`, every function in this
//! module returns **bit-identical output at any thread count, including
//! 1** (the single-thread path is a plain loop, not a pool of one).
//! Callers that need randomness derive an independent RNG per item (see
//! `ptf_federated::scheduler`) instead of threading one generator through
//! the loop.

/// Number of hardware threads, with a floor of 1 when the platform cannot
/// report it.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resolves a user-facing thread knob: `0` means "use every hardware
/// thread", any other value is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// Splits `n` items into at most `parts` contiguous chunk lengths whose
/// sizes differ by at most one (earlier chunks take the remainder).
fn chunk_lens(n: usize, parts: usize) -> Vec<usize> {
    let parts = parts.min(n).max(1);
    let base = n / parts;
    let extra = n % parts;
    (0..parts).map(|i| base + usize::from(i < extra)).collect()
}

/// Applies `f(index, &mut item)` to every element of `items` across up to
/// `threads` scoped threads and returns the results in input order.
///
/// `threads` is resolved with [`resolve_threads`]; `threads == 1` (or a
/// single item) runs inline on the caller's thread with no spawn at all.
pub fn map_slice_mut<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    if resolve_threads(threads) <= 1 || items.len() <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    map_chunks_mut(threads, items, |start, chunk| {
        chunk.iter_mut().enumerate().map(|(i, t)| f(start + i, t)).collect::<Vec<R>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Splits `items` into up to `threads` contiguous chunks of balanced
/// length, applies `f(offset of the chunk, chunk)` to each on its own
/// scoped thread, and returns one result per chunk, in input order — for a
/// worker that schedules its own items.
///
/// `threads == 1` (or at most one item) is one inline call over all of
/// `items`, with no spawn.
pub fn map_chunks_mut<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let threads = resolve_threads(threads);
    if threads <= 1 || items.len() <= 1 {
        return vec![f(0, items)];
    }
    let lens = chunk_lens(items.len(), threads);
    let f = &f;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(lens.len());
        let mut rest = items;
        let mut offset = 0usize;
        for len in lens {
            let (chunk, tail) = rest.split_at_mut(len);
            rest = tail;
            let start = offset;
            offset += len;
            handles.push(scope.spawn(move || f(start, chunk)));
        }
        handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
    })
}

/// Applies `f(index)` for `index in 0..n` across up to `threads` scoped
/// threads and returns the results in index order.
pub fn map_indices<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = resolve_threads(threads);
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let lens = chunk_lens(n, threads);
    let f = &f;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(lens.len());
        let mut start = 0usize;
        for len in lens {
            let range = start..start + len;
            start += len;
            handles.push(scope.spawn(move || range.map(f).collect::<Vec<R>>()));
        }
        let mut out = Vec::with_capacity(n);
        for h in handles {
            out.extend(h.join().expect("worker thread panicked"));
        }
        out
    })
}

/// A checkout/restore pool of reusable worker-scratch values.
///
/// The deterministic map primitives above run closures on scoped worker
/// threads; hot-path callers give each closure invocation a scratch value
/// from a shared `Pool` so steady-state iterations reuse warmed buffers
/// instead of allocating. A `Pool` never affects results — scratch
/// contents are cleared by the consumer before use — it only affects
/// *where the bytes live*. The pool is a `Mutex<Vec<T>>` (two
/// uncontended lock ops per checkout, no allocation once the slot vector
/// has grown to the worker count), which is noise next to the per-item
/// work these maps are designed for.
pub struct Pool<T> {
    slots: std::sync::Mutex<Vec<T>>,
}

impl<T: Default> Pool<T> {
    pub fn new() -> Self {
        // capacity for more workers than any host exposes, so the slot
        // vector itself never reallocates on the hot path
        Self { slots: std::sync::Mutex::new(Vec::with_capacity(128)) }
    }

    /// Takes a scratch value: a warmed one when available, else fresh.
    pub fn checkout(&self) -> T {
        let warmed = self.slots.lock().expect("pool lock").pop();
        warmed.unwrap_or_default()
    }

    /// Returns a scratch value for reuse.
    pub fn restore(&self, value: T) {
        let mut slots = self.slots.lock().expect("pool lock");
        if slots.len() < slots.capacity() {
            slots.push(value);
        }
    }
}

impl<T: Default> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_exactly_and_balance() {
        assert_eq!(chunk_lens(10, 3), vec![4, 3, 3]);
        assert_eq!(chunk_lens(2, 8), vec![1, 1]);
        assert_eq!(chunk_lens(0, 4), vec![0]);
        for (n, p) in [(1, 1), (7, 2), (100, 16), (5, 5)] {
            let lens = chunk_lens(n, p);
            assert_eq!(lens.iter().sum::<usize>(), n);
            let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced: {lens:?}");
        }
    }

    #[test]
    fn map_indices_is_ordered_and_thread_invariant() {
        let square = |i: usize| (i * i) as u64;
        let serial = map_indices(1, 37, square);
        for threads in [2, 3, 8, 64] {
            assert_eq!(map_indices(threads, 37, square), serial, "{threads} threads");
        }
        assert_eq!(serial[5], 25);
    }

    #[test]
    fn map_slice_mut_mutates_every_item_once() {
        let run = |threads: usize| {
            let mut xs: Vec<u32> = (0..23).collect();
            let doubled = map_slice_mut(threads, &mut xs, |i, x| {
                *x *= 2;
                (i as u32, *x)
            });
            (xs, doubled)
        };
        let serial = run(1);
        for threads in [2, 4, 16] {
            assert_eq!(run(threads), serial, "{threads} threads");
        }
        assert_eq!(serial.0[3], 6);
        assert_eq!(serial.1[3], (3, 6));
    }

    #[test]
    fn map_chunks_mut_covers_each_item_once_in_order() {
        for threads in [1, 2, 3, 8] {
            let mut xs: Vec<u32> = (0..10).collect();
            let chunks = map_chunks_mut(threads, &mut xs, |start, chunk| {
                chunk.iter_mut().for_each(|x| *x += 100);
                (start, chunk.len())
            });
            assert_eq!(chunks.len(), threads.min(10), "{threads} threads");
            let mut next = 0;
            for (start, len) in chunks {
                assert_eq!(start, next, "{threads} threads: chunks out of order");
                next += len;
            }
            assert_eq!(next, 10);
            assert!(xs.iter().enumerate().all(|(i, &x)| x == i as u32 + 100));
        }
        assert_eq!(map_chunks_mut(4, &mut [] as &mut [u8], |_, c| c.len()), vec![0]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(map_indices(4, 0, |i| i).is_empty());
        let mut one = [7u8];
        assert_eq!(map_slice_mut(4, &mut one, |_, x| *x), vec![7]);
    }

    #[test]
    fn resolve_zero_means_all_cores() {
        assert_eq!(resolve_threads(0), available_threads());
        assert_eq!(resolve_threads(3), 3);
        assert!(available_threads() >= 1);
    }

    #[test]
    fn pool_recycles_restored_values() {
        let pool: Pool<Vec<u32>> = Pool::new();
        let mut v = pool.checkout();
        v.reserve(1024);
        let cap = v.capacity();
        pool.restore(v);
        assert!(pool.checkout().capacity() >= cap, "warmed buffer was not recycled");
    }

    #[test]
    fn pool_is_safe_across_worker_threads() {
        let pool: Pool<Vec<u64>> = Pool::new();
        let out = map_indices(4, 64, |i| {
            let mut s = pool.checkout();
            s.clear();
            s.extend(0..i as u64);
            let sum: u64 = s.iter().sum();
            pool.restore(s);
            sum
        });
        let expected: Vec<u64> = (0..64).map(|i| (0..i as u64).sum()).collect();
        assert_eq!(out, expected);
    }
}
