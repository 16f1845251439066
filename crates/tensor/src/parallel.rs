//! Deterministic fork-join runtime for the compression hot paths.
//!
//! Every parallel kernel in this workspace is built on the handful of
//! primitives here, and all of them share one contract: **the result is
//! bitwise-identical to the sequential reference no matter how many threads
//! run it.** Two rules make that hold:
//!
//! 1. **Fixed work decomposition.** Chunk boundaries depend only on the input
//!    size (and a per-kernel constant), never on the thread count. Threads
//!    pick up contiguous *ranges of chunks*, so varying `GCS_THREADS` changes
//!    who computes a chunk but not what the chunk is.
//! 2. **Ordered combine.** Per-chunk results land in an index-ordered vector
//!    and are folded left-to-right by the caller. Floating-point reductions
//!    therefore see the exact same association regardless of scheduling.
//!
//! Thread count resolution, in priority order:
//!
//! 1. A thread-local override installed by [`with_threads`] (used by tests to
//!    compare thread counts race-free within one process).
//! 2. The `GCS_THREADS` environment variable (parsed once; `0` or garbage
//!    falls back to the default).
//! 3. [`std::thread::available_parallelism`].
//!
//! Nested parallelism is suppressed: a kernel invoked from inside a parallel
//! worker runs its sequential path (the bitwise-equivalence contract makes
//! this a pure scheduling decision). This keeps e.g. a parallel per-worker
//! scheme loop from oversubscribing the machine with parallel matmuls.
//!
//! Workers are plain scoped threads ([`std::thread::scope`]): no pools, no
//! channels, no external dependencies. Spawn cost is a few microseconds,
//! which is why every kernel gates parallelism behind a per-kernel element
//! threshold and falls back to its sequential loop below it.

use std::cell::Cell;
use std::sync::OnceLock;

/// Upper bound on the accepted `GCS_THREADS` value (sanity cap).
pub const MAX_THREADS: usize = 256;

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("GCS_THREADS") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n > 0 => n.min(MAX_THREADS),
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    })
}

thread_local! {
    /// 0 = no override; otherwise the thread count forced by `with_threads`.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// True while this thread is executing inside a parallel region.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// The number of threads a kernel may fan out to right now.
///
/// Returns 1 inside a parallel region (nested kernels run sequentially).
pub fn max_threads() -> usize {
    if IN_REGION.with(Cell::get) {
        return 1;
    }
    let forced = OVERRIDE.with(Cell::get);
    if forced > 0 {
        forced
    } else {
        env_threads()
    }
}

/// Runs `f` with the thread count forced to `n` on the current thread.
///
/// This is the race-free test hook: unlike mutating `GCS_THREADS` (global,
/// racy under a multi-threaded test harness), the override is thread-local
/// and restored on exit, including on panic.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(n.clamp(1, MAX_THREADS))));
    f()
}

/// Marks the current (worker) thread as inside a parallel region, so nested
/// kernel calls take their sequential path, and installs the forking
/// thread's [`crate::simd::with_scalar_dispatch`] state. Workers are freshly
/// spawned scoped threads, so there is nothing to restore.
fn enter_region(scalar_simd: bool) {
    IN_REGION.with(|c| c.set(true));
    crate::simd::force_scalar_dispatch(scalar_simd);
}

/// Flushes the worker's trace buffer before its closure returns. This must
/// happen *inside* the closure: `thread::scope`'s implicit wait is released
/// when the closure finishes, before thread-local destructors run, so a
/// flush left to drop glue can land after the scope (and a surrounding
/// `gcs_trace::take`) has already moved on.
fn exit_region() {
    gcs_trace::flush_thread();
}

/// Splits `0..n_items` into `parts` contiguous ranges of near-equal size.
fn split_range(n_items: usize, parts: usize, part: usize) -> std::ops::Range<usize> {
    (part * n_items / parts)..((part + 1) * n_items / parts)
}

/// Runs `f(i)` for every `i in 0..n_tasks` and returns the results in task
/// order. Tasks must be independent; the partition into threads is an
/// implementation detail the results cannot observe.
pub fn map_tasks<T, F>(n_tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = max_threads().min(n_tasks);
    if threads <= 1 {
        return (0..n_tasks).map(f).collect();
    }
    let mut per_thread: Vec<Vec<T>> = Vec::with_capacity(threads);
    let scalar_simd = crate::simd::scalar_dispatch_forced();
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let range = split_range(n_tasks, threads, t);
            let f = &f;
            handles.push(s.spawn(move || {
                enter_region(scalar_simd);
                let out = range.map(f).collect::<Vec<T>>();
                exit_region();
                out
            }));
        }
        for h in handles {
            per_thread.push(h.join().expect("parallel worker panicked"));
        }
    });
    per_thread.into_iter().flatten().collect()
}

/// [`map_tasks`] without results, for tasks that write through captured
/// state (e.g. interior mutability or pre-split buffers).
pub fn for_each_task<F>(n_tasks: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let threads = max_threads().min(n_tasks);
    if threads <= 1 {
        (0..n_tasks).for_each(f);
        return;
    }
    let scalar_simd = crate::simd::scalar_dispatch_forced();
    std::thread::scope(|s| {
        for t in 0..threads {
            let range = split_range(n_tasks, threads, t);
            let f = &f;
            s.spawn(move || {
                enter_region(scalar_simd);
                range.for_each(f);
                exit_region();
            });
        }
    });
}

/// Applies `f(chunk_index, chunk)` to fixed `chunk_len`-sized chunks of
/// `data` (the last chunk may be short). Chunk boundaries are a function of
/// `data.len()` and `chunk_len` only — never of the thread count.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "for_each_chunk_mut: zero chunk_len");
    let n_chunks = data.len().div_ceil(chunk_len);
    let threads = max_threads().min(n_chunks);
    if threads <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let scalar_simd = crate::simd::scalar_dispatch_forced();
    std::thread::scope(|s| {
        let mut rest = data;
        for t in 0..threads {
            let range = split_range(n_chunks, threads, t);
            let elems = (range.len() * chunk_len).min(rest.len());
            let (mine, tail) = rest.split_at_mut(elems);
            rest = tail;
            let f = &f;
            s.spawn(move || {
                enter_region(scalar_simd);
                for (i, chunk) in mine.chunks_mut(chunk_len).enumerate() {
                    f(range.start + i, chunk);
                }
                exit_region();
            });
        }
    });
}

/// Like [`for_each_chunk_mut`] over two slices: splits `a` into
/// `a_chunk`-sized chunks and `b` into `b_chunk`-sized chunks (the last of
/// each may be short) and runs `f(chunk_index, a_chunk, b_chunk)` on the
/// index-wise pairs — two halves split at the same boundaries, or an
/// output range paired with the scratch its task may use. Boundaries are a
/// function of the lengths and chunk sizes only.
///
/// # Panics
/// Panics if a chunk size is zero or the slices split into different
/// numbers of chunks.
pub fn for_each_chunk_pair_mut<T, U, F>(
    a: &mut [T],
    a_chunk: usize,
    b: &mut [U],
    b_chunk: usize,
    f: F,
) where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T], &mut [U]) + Sync,
{
    assert!(
        a_chunk > 0 && b_chunk > 0,
        "for_each_chunk_pair_mut: zero chunk_len"
    );
    let n_chunks = a.len().div_ceil(a_chunk);
    assert_eq!(
        n_chunks,
        b.len().div_ceil(b_chunk),
        "for_each_chunk_pair_mut: chunk count mismatch"
    );
    let threads = max_threads().min(n_chunks);
    if threads <= 1 {
        for (i, (ca, cb)) in a.chunks_mut(a_chunk).zip(b.chunks_mut(b_chunk)).enumerate() {
            f(i, ca, cb);
        }
        return;
    }
    let scalar_simd = crate::simd::scalar_dispatch_forced();
    std::thread::scope(|s| {
        let mut rest_a = a;
        let mut rest_b = b;
        for t in 0..threads {
            let range = split_range(n_chunks, threads, t);
            let (mine_a, tail_a) = rest_a.split_at_mut((range.len() * a_chunk).min(rest_a.len()));
            let (mine_b, tail_b) = rest_b.split_at_mut((range.len() * b_chunk).min(rest_b.len()));
            rest_a = tail_a;
            rest_b = tail_b;
            let f = &f;
            s.spawn(move || {
                enter_region(scalar_simd);
                for (i, (ca, cb)) in mine_a
                    .chunks_mut(a_chunk)
                    .zip(mine_b.chunks_mut(b_chunk))
                    .enumerate()
                {
                    f(range.start + i, ca, cb);
                }
                exit_region();
            });
        }
    });
}

/// Maps fixed `chunk_len`-sized chunks of `data` through `f` and returns the
/// per-chunk results in chunk order — the building block for deterministic
/// reductions (callers fold the returned vector left-to-right).
pub fn map_chunks<T, R, F>(data: &[T], chunk_len: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk_len > 0, "map_chunks: zero chunk_len");
    let n_chunks = data.len().div_ceil(chunk_len);
    map_tasks(n_chunks, |i| {
        let lo = i * chunk_len;
        let hi = (lo + chunk_len).min(data.len());
        f(i, &data[lo..hi])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_tasks_preserves_task_order() {
        for threads in [1, 2, 3, 8] {
            let out = with_threads(threads, || map_tasks(97, |i| i * i));
            assert_eq!(out, (0..97).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunk_boundaries_do_not_depend_on_thread_count() {
        let record = |threads: usize| {
            with_threads(threads, || {
                let data = vec![0u8; 1000];
                map_chunks(&data, 64, |i, chunk| (i, chunk.len()))
            })
        };
        let reference = record(1);
        for threads in [2, 3, 5, 8] {
            assert_eq!(record(threads), reference);
        }
    }

    #[test]
    fn for_each_chunk_mut_writes_every_element_once() {
        for threads in [1, 2, 4, 7] {
            let mut data = vec![0u32; 1003];
            with_threads(threads, || {
                for_each_chunk_mut(&mut data, 100, |i, chunk| {
                    for (j, x) in chunk.iter_mut().enumerate() {
                        *x = (i * 100 + j) as u32;
                    }
                });
            });
            assert!(data.iter().enumerate().all(|(i, &x)| x == i as u32));
        }
    }

    #[test]
    fn equal_chunk_pairs_stay_aligned() {
        for threads in [1, 2, 4] {
            let mut a: Vec<i64> = (0..517).collect();
            let mut b: Vec<i64> = (0..517).map(|i| 2 * i).collect();
            with_threads(threads, || {
                for_each_chunk_pair_mut(&mut a, 37, &mut b, 37, |_, ca, cb| {
                    for (x, y) in ca.iter_mut().zip(cb.iter_mut()) {
                        let s = *x + *y;
                        *x = s;
                        *y = -s;
                    }
                });
            });
            assert!(a.iter().enumerate().all(|(i, &x)| x == 3 * i as i64));
            assert!(b.iter().enumerate().all(|(i, &y)| y == -3 * i as i64));
        }
    }

    #[test]
    fn chunk_pairs_pair_index_wise_with_different_chunk_sizes() {
        for threads in [1, 2, 3] {
            let mut a = vec![0usize; 50]; // chunks of 12: 5 chunks, last short
            let mut b = vec![0usize; 15]; // chunks of 3: 5 chunks
            with_threads(threads, || {
                for_each_chunk_pair_mut(&mut a, 12, &mut b, 3, |i, ca, cb| {
                    ca.fill(i);
                    cb.fill(10 + i);
                });
            });
            assert!(a.iter().enumerate().all(|(j, &x)| x == j / 12));
            assert!(b.iter().enumerate().all(|(j, &x)| x == 10 + j / 3));
        }
    }

    #[test]
    fn workers_inherit_forced_scalar_dispatch() {
        let seen = with_threads(3, || {
            crate::simd::with_scalar_dispatch(|| {
                map_tasks(3, |_| crate::simd::scalar_dispatch_forced())
            })
        });
        assert_eq!(seen, vec![true, true, true]);
        let seen = with_threads(3, || {
            map_tasks(3, |_| crate::simd::scalar_dispatch_forced())
        });
        assert_eq!(seen, vec![false, false, false]);
    }

    #[test]
    fn nested_calls_run_sequentially() {
        let inner_counts = with_threads(4, || {
            map_tasks(4, |_| {
                // Inside a region the nested kernel must see one thread.
                max_threads()
            })
        });
        assert_eq!(inner_counts, vec![1, 1, 1, 1]);
        // And outside the region the override is visible again.
        assert_eq!(with_threads(4, max_threads), 4);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let before = max_threads();
        let result = std::panic::catch_unwind(|| {
            with_threads(3, || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(max_threads(), before);
    }
}
