//! Scoped data-parallel helpers.
//!
//! Everything here follows the hpc guidance the project was built under:
//!
//! * **Scoped threads only** (`std::thread::scope`) — no detached threads, every join
//!   happens before the function returns, borrows of stack data are safe.
//! * **Disjoint mutable splits** (`chunks_mut`) — data-race freedom by construction.
//! * **Deterministic reductions** — per-chunk partial results are combined in index
//!   order, so results are bit-identical regardless of thread count.
//!
//! The thread count defaults to the machine's available parallelism and can be pinned
//! with the `HC_THREADS` environment variable.

use std::num::NonZeroUsize;

/// Number of worker threads used by the parallel kernels.
///
/// Resolution order: `HC_THREADS` environment variable (if a positive integer),
/// then [`std::thread::available_parallelism`], then 1.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("HC_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits `data` into at most `threads` contiguous chunks and runs `f(chunk_start,
/// chunk)` on each from a scoped thread. Falls back to a plain call for one thread or
/// tiny inputs.
pub fn par_chunks_mut<T, F>(data: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    if n == 0 {
        return;
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        f(0, data);
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        for (ci, slice) in data.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || f(ci * chunk, slice));
        }
    });
}

/// Maps `f` over `0..n` in parallel, returning results in index order.
///
/// Each worker fills a private vector for a contiguous index range; the ranges are
/// concatenated in order, so the output is identical to the serial
/// `(0..n).map(f).collect()` regardless of `threads`.
pub fn par_map_indexed<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let ranges: Vec<(usize, usize)> = (0..n)
        .step_by(chunk)
        .map(|lo| (lo, (lo + chunk).min(n)))
        .collect();
    let mut parts: Vec<Vec<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(lo, hi)| {
                let f = &f;
                s.spawn(move || (lo..hi).map(f).collect::<Vec<R>>())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(n);
    for p in parts.drain(..) {
        out.extend(p);
    }
    out
}

/// Parallel fold: maps `f` over `0..n`, reduces with `combine` in index order.
///
/// `combine` must be associative for the result to match the serial fold; with the
/// in-order reduction used here, associativity (not commutativity) is sufficient for
/// determinism.
pub fn par_fold<R, F, C>(n: usize, threads: usize, identity: R, f: F, combine: C) -> R
where
    R: Send + Clone,
    F: Fn(usize) -> R + Sync,
    C: Fn(R, R) -> R + Sync,
{
    if n == 0 {
        return identity;
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return (0..n).map(f).fold(identity, combine);
    }
    let chunk = n.div_ceil(threads);
    let ranges: Vec<(usize, usize)> = (0..n)
        .step_by(chunk)
        .map(|lo| (lo, (lo + chunk).min(n)))
        .collect();
    let partials: Vec<R> = std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(lo, hi)| {
                let f = &f;
                let combine = &combine;
                let id = identity.clone();
                s.spawn(move || (lo..hi).map(f).fold(id, combine))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    partials.into_iter().fold(identity, combine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_threads_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn par_chunks_mut_covers_every_element() {
        for threads in [1, 2, 3, 8, 100] {
            let mut data = vec![0usize; 57];
            par_chunks_mut(&mut data, threads, |start, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = start + k;
                }
            });
            let expect: Vec<usize> = (0..57).collect();
            assert_eq!(data, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_chunks_mut_empty_ok() {
        let mut data: Vec<u8> = vec![];
        par_chunks_mut(&mut data, 4, |_, _| panic!("should not run"));
    }

    #[test]
    fn par_map_indexed_matches_serial() {
        for threads in [1, 2, 5, 16] {
            let got = par_map_indexed(101, threads, |i| i * i);
            let want: Vec<usize> = (0..101).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
        assert!(par_map_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn par_fold_deterministic_sum() {
        let want: u64 = (0..1000u64).sum();
        for threads in [1, 2, 7, 32] {
            let got = par_fold(1000, threads, 0u64, |i| i as u64, |a, b| a + b);
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn par_fold_in_order_for_nonconmutative_combine() {
        // String concatenation is associative but not commutative: the in-order
        // reduction must still produce the serial result.
        let want: String = (0..26).map(|i| (b'a' + i as u8) as char).collect();
        let got = par_fold(
            26,
            4,
            String::new(),
            |i| ((b'a' + i as u8) as char).to_string(),
            |a, b| a + &b,
        );
        assert_eq!(got, want);
    }
}
