//! A minimal deterministic fork/join on `std::thread::scope`.
//!
//! The crate has no crates.io access, so this is the whole parallel
//! substrate: one ordered map, [`map_chunks`], that splits the input into
//! contiguous chunks, runs each chunk on its own scoped thread with its
//! own per-worker state, and returns the results **in input order**.
//! Nothing here is work-stealing or lock-free — per-item work in this
//! workspace (a client's local training round, a user's full ranking
//! pass) is orders of magnitude heavier than a thread spawn, and static
//! chunking keeps the schedule — and therefore the output — independent
//! of timing.
//!
//! Per-worker state is owned by the caller, not by a shared pool: chunk
//! *k* always runs with `workers[k]`, so a caller that keeps its `workers`
//! between calls hands the same warmed buffers to the same share of the
//! input every time, at any thread count.
//!
//! Determinism contract: for an `f` whose result depends only on its
//! items (never on what a worker state held before), [`map_chunks`]
//! returns **bit-identical output at any thread count, including 1** (one
//! chunk is a plain inline call, not a pool of one). Callers that need
//! randomness derive an independent RNG per item (see
//! `ptf_federated::scheduler`) instead of threading one generator through
//! the loop.

/// Resolves a user-facing thread knob: `0` means "use every hardware
/// thread" (1 when the platform cannot report it), any other value is
/// taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Splits `n` items into `min(parts, n)` contiguous chunk lengths whose
/// sizes differ by at most one (earlier chunks take the remainder).
fn chunk_lens(n: usize, parts: usize) -> impl Iterator<Item = usize> {
    let parts = parts.min(n);
    (0..parts).map(move |i| n / parts + usize::from(i < n % parts))
}

/// Splits `items` into `min(threads, items.len())` contiguous chunks of
/// balanced length and applies `f(offset of the chunk, chunk, worker
/// state)` to each, chunk *k* with `workers[k]`, on its own scoped
/// thread. Returns one result per chunk, in input order.
///
/// `threads` is resolved with [`resolve_threads`]. One chunk is one
/// inline call on the caller's thread, with no spawn; no items is no
/// call. `workers` grows with `W::default()` to the number of chunks run
/// and never shrinks, so states keep their warmed buffers across calls.
pub fn map_chunks<T, W, R, F>(threads: usize, items: &mut [T], workers: &mut Vec<W>, f: F) -> Vec<R>
where
    T: Send,
    W: Default + Send,
    R: Send,
    F: Fn(usize, &mut [T], &mut W) -> R + Sync,
{
    let parts = resolve_threads(threads).min(items.len());
    if workers.len() < parts {
        workers.resize_with(parts, W::default);
    }
    match parts {
        0 => Vec::new(),
        1 => vec![f(0, items, &mut workers[0])],
        _ => std::thread::scope(|scope| {
            let f = &f;
            let mut handles = Vec::with_capacity(parts);
            let (mut rest, mut offset) = (items, 0);
            for (len, worker) in chunk_lens(rest.len(), parts).zip(workers.iter_mut()) {
                let (chunk, tail) = rest.split_at_mut(len);
                let start = offset;
                (rest, offset) = (tail, offset + len);
                handles.push(scope.spawn(move || f(start, chunk, worker)));
            }
            handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
        }),
    }
}

/// Applies `f(index)` for `index in 0..n` across up to `threads` scoped
/// threads and returns the results in index order: [`map_chunks`] with no
/// per-worker state.
pub fn map_indices<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // zero-sized items and states: neither vector allocates
    let chunks = map_chunks(threads, &mut vec![(); n], &mut Vec::<()>::new(), |start, chunk, _| {
        (start..start + chunk.len()).map(&f).collect::<Vec<R>>()
    });
    chunks.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_exactly_and_balance() {
        assert_eq!(chunk_lens(10, 3).collect::<Vec<_>>(), vec![4, 3, 3]);
        assert_eq!(chunk_lens(2, 8).collect::<Vec<_>>(), vec![1, 1]);
        assert_eq!(chunk_lens(0, 4).count(), 0);
        for (n, p) in [(1, 1), (7, 2), (100, 16), (5, 5)] {
            let lens: Vec<usize> = chunk_lens(n, p).collect();
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
    fn map_chunks_covers_each_item_once_in_order() {
        for threads in [1, 2, 3, 8] {
            let mut xs: Vec<u32> = (0..10).collect();
            let chunks = map_chunks(threads, &mut xs, &mut Vec::<()>::new(), |start, chunk, _| {
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
    }

    #[test]
    fn chunk_k_runs_with_worker_k() {
        // pre-seeded states: each chunk reports the state it was handed and
        // leaves its offset in it
        let mut workers: Vec<usize> = vec![100, 101, 102, 103];
        let mut xs = [0u8; 10];
        let seen = map_chunks(4, &mut xs, &mut workers, |start, _, w| {
            let handed = *w;
            *w = start;
            handed
        });
        assert_eq!(seen, [100, 101, 102, 103]);
        assert_eq!(workers, [0, 3, 6, 8], "chunk offsets of 4 + 3 + 2 + 1 items");
    }

    #[test]
    fn workers_grow_to_the_chunk_count_and_no_further() {
        let mut workers: Vec<Vec<u8>> = Vec::new();
        let caller = std::thread::current().id();
        let ran_on =
            map_chunks(8, &mut [1u8, 2, 3], &mut workers, |_, _, _| std::thread::current().id());
        assert_eq!(workers.len(), 3, "8 threads over 3 items");
        let mut threads = ran_on.clone();
        threads.dedup();
        assert_eq!(threads.len(), 3, "one spawned thread per chunk: {ran_on:?}");
        assert!(!ran_on.contains(&caller), "a spawned chunk ran on the caller");
        // one chunk runs inline and leaves the other states alone
        let inline = map_chunks(1, &mut [1u8, 2, 3], &mut workers, |_, c, _| {
            (std::thread::current().id(), c.len())
        });
        assert_eq!(inline, [(caller, 3)]);
        assert_eq!(workers.len(), 3);
        // no items, no call
        assert!(map_chunks(8, &mut [] as &mut [u8], &mut Vec::<()>::new(), |_, _, _| ()).is_empty());
    }

    #[test]
    fn warmed_worker_state_survives_into_the_next_call() {
        let mut workers: Vec<Vec<u64>> = Vec::new();
        let mut xs: Vec<u64> = (0..12).collect();
        let fill = |_: usize, chunk: &mut [u64], buf: &mut Vec<u64>| {
            let warmed = buf.capacity();
            buf.clear();
            buf.extend(chunk.iter().map(|x| x * x));
            (warmed, buf.iter().sum::<u64>())
        };
        let first = map_chunks(3, &mut xs, &mut workers, fill);
        assert!(first.iter().all(|&(warmed, _)| warmed == 0), "fresh states: {first:?}");
        let caps: Vec<usize> = workers.iter().map(Vec::capacity).collect();
        let second = map_chunks(3, &mut xs, &mut workers, fill);
        let warmed: Vec<usize> = second.iter().map(|&(w, _)| w).collect();
        assert_eq!(warmed, caps, "each chunk got back the buffer it warmed");
        assert_eq!(second.iter().map(|s| s.1).collect::<Vec<_>>(), [14, 126, 366]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(map_indices(4, 0, |i| i).is_empty());
        let mut one = [7u8];
        assert_eq!(map_chunks(4, &mut one, &mut Vec::<()>::new(), |_, c, _| c[0]), vec![7]);
    }

    #[test]
    fn resolve_zero_means_all_cores() {
        let all = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_threads(0), all);
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }
}
