//! Deterministic data-parallel helpers built on `std::thread::scope`.
//!
//! The workspace deliberately avoids a thread-pool dependency: the fan-out
//! patterns HiCS needs (per-candidate contrast, per-subspace index
//! builds, per-query kNN, per-row scoring) are plain index-space maps. The index range is cut
//! into short contiguous blocks that the workers claim one at a time from
//! a shared cursor, so a worker that drew cheap indices takes more blocks
//! instead of idling while another finishes a costly half. Results are
//! assembled in index order, so the output is identical regardless of the
//! number of worker threads or of which worker claimed which block.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Blocks per worker thread the index range is cut into: enough that the
/// workers finish within about one block of each other, few enough that a
/// claim (one atomic add) and a block's result buffer stay negligible
/// against the work in it.
const BLOCKS_PER_THREAD: usize = 64;

/// Maps `f` over `0..n` on up to `max_threads` worker threads (see
/// [`par_map_init`]). Returns results in index order.
///
/// Falls back to a sequential loop for small `n` or `max_threads <= 1`.
pub fn par_map<T, F>(n: usize, max_threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_init(n, max_threads, || (), |(), i| f(i))
}

/// Like [`par_map`], but every worker thread first builds a private mutable
/// state with `init` and threads it through every index it handles — the
/// hook that lets per-thread scratch (slice samplers, distance buffers) be
/// allocated once per worker instead of once per index.
///
/// The workers claim short contiguous blocks of `0..n` dynamically, about
/// 64 per requested thread, so which indices one state sees, and in what
/// order, depends on timing: `f(state, i)` must not depend on what the state saw
/// before `i`. `init` runs at most once per worker (once total on the
/// sequential path, and not at all for `n == 0`). Results are assembled in
/// index order, identical for every thread count.
pub fn par_map_init<T, S, I, F>(n: usize, max_threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = par_blocks(
        n,
        max_threads,
        || (init(), Vec::new()),
        |(state, done), block| {
            done.push((block.start, block.map(|i| f(state, i)).collect::<Vec<T>>()));
        },
    );
    let mut blocks: Vec<(usize, Vec<T>)> = workers.into_iter().flat_map(|(_, done)| done).collect();
    if blocks.len() == 1 {
        return blocks.pop().expect("one block").1;
    }
    blocks.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, block) in blocks {
        out.extend(block);
    }
    out
}

/// Cuts `0..n` into contiguous blocks of one length (the last may be
/// shorter) and hands them to up to `max_threads` worker threads. Each
/// worker builds its state with `init` before its first block, then
/// claims the next unclaimed block and runs `f` on it until none is left.
/// The calling thread only waits, so what the workers allocate and free
/// (the self-join's neighbourhoods, say) stays off the caller's heap, which
/// holds the long-lived results. Returns the state of every worker that
/// claimed a block, in no particular order: which worker claimed which
/// blocks depends on timing, so a caller must combine the states in a way
/// that does not (by block position, or by ids the blocks carry).
///
/// The block length follows `n` and `max_threads` alone — about
/// [`BLOCKS_PER_THREAD`] blocks per requested thread, whatever the host's
/// core count (the threads are capped at the cores), or the single block
/// `0..n` when `max_threads <= 1` or `n < 2`. Returns no states for
/// `n == 0`.
pub(crate) fn par_blocks<S, I, F>(n: usize, max_threads: usize, init: I, f: F) -> Vec<S>
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, Range<usize>) + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let budget = max_threads.min(n).max(1);
    if budget == 1 {
        let mut state = init();
        f(&mut state, 0..n);
        return vec![state];
    }
    let len = n.div_ceil(budget * BLOCKS_PER_THREAD);
    let count = n.div_ceil(len);
    let threads = budget.min(available_threads());
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut state = None;
        loop {
            // The cursor only hands out block numbers; the states reach
            // the caller through the workers' joins, not through it.
            let b = cursor.fetch_add(1, Ordering::Relaxed);
            if b >= count {
                return state;
            }
            f(
                state.get_or_insert_with(&init),
                b * len..((b + 1) * len).min(n),
            );
        }
    };
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|_| s.spawn(work)).collect();
        workers
            .into_iter()
            .filter_map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// Number of hardware threads available.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Hands the heap's free pages back to the operating system, once a
/// bulk computation's transient allocations are gone. glibc keeps freed
/// heap resident: in the main arena, whose dynamic mmap threshold turns
/// large freed buffers into reusable heap rather than unmapping them, and
/// in the arena of every worker thread that allocated. A long-lived
/// process that just fitted a model, or computed an artifact's hoods at
/// open, would otherwise carry that peak as resident memory. A no-op off
/// glibc on Linux.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: malloc_trim takes no pointers and only returns free pages
        // of glibc's own arenas to the kernel; it is thread-safe.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_index_order() {
        let out = par_map(1000, 8, |i| i * 2);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn sequential_fallback_matches() {
        let a = par_map(100, 1, |i| i as f64 / 3.0);
        let b = par_map(100, 8, |i| i as f64 / 3.0);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_range() {
        let out: Vec<usize> = par_map(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn single_element() {
        assert_eq!(par_map(1, 8, |i| i + 41), vec![41]);
    }

    #[test]
    fn thread_count_does_not_change_result() {
        for t in 1..6 {
            let out = par_map(97, t, |i| (i as u64).wrapping_mul(2654435761));
            assert_eq!(out[96], 96u64.wrapping_mul(2654435761));
            assert_eq!(out.len(), 97);
        }
    }

    #[test]
    fn init_state_matches_stateless_map() {
        for t in [1, 3, 8] {
            let plain = par_map(200, t, |i| i * i);
            let with_state = par_map_init(200, t, Vec::<usize>::new, |scratch, i| {
                // Exercise the state: reuse a buffer across indices.
                scratch.clear();
                scratch.extend(std::iter::repeat_n(i, 3));
                scratch[0] * scratch[1]
            });
            assert_eq!(plain, with_state);
        }
    }

    #[test]
    fn init_runs_once_per_worker_sequentially() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let out = par_map_init(
            50,
            1,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |calls, i| {
                *calls += 1;
                (*calls - 1 == i) as usize
            },
        );
        assert_eq!(inits.load(Ordering::SeqCst), 1);
        // The single sequential state observed every index in order.
        assert_eq!(out.iter().sum::<usize>(), 50);
    }

    #[test]
    fn blocks_tile_the_range_in_order() {
        for (n, t) in [(1, 4), (7, 3), (97, 2), (1000, 5), (130, 8)] {
            let workers = par_blocks(n, t, Vec::new, |claimed, block| claimed.push(block));
            assert!(!workers.is_empty() && workers.len() <= t, "n={n} t={t}");
            let mut blocks: Vec<_> = workers.into_iter().flatten().collect();
            blocks.sort_unstable_by_key(|b| b.start);
            assert_eq!(blocks[0].start, 0, "n={n} t={t}");
            assert_eq!(blocks.last().unwrap().end, n, "n={n} t={t}");
            for pair in blocks.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "n={n} t={t}");
                assert_eq!(pair[0].len(), blocks[0].len(), "n={n} t={t}");
            }
        }
        assert!(par_blocks(0, 4, || (), |(), _| {}).is_empty());
    }

    #[test]
    fn uneven_work_is_assembled_in_index_order() {
        // Costly low indices: the worker that draws them claims fewer
        // blocks, and the result is still in index order.
        for t in [2, 3, 5] {
            let out = par_map(300, t, |i| {
                if i < 40 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                i * 3
            });
            assert_eq!(out, (0..300).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn init_not_called_for_empty_range() {
        let out: Vec<usize> =
            par_map_init(0, 4, || panic!("init for empty range"), |_: &mut (), i| i);
        assert!(out.is_empty());
    }
}
