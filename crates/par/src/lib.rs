//! Minimal data-parallel runtime for the `ptherm` workspace.
//!
//! The sweep engine's workloads are embarrassingly parallel: thousands of
//! independent fixed-point solves over one shared, immutable
//! [`ThermalOperator`](../ptherm_core/cosim/struct.ThermalOperator.html),
//! and the row-wise build of that operator itself. Three primitives on
//! top of `std::thread::scope` cover them:
//!
//! * [`par_map`] / [`par_map_with`] — parallel indexed map whose
//!   workers claim items one at a time from a shared cursor, so uneven
//!   items (e.g. runaway scenarios that bail early next to
//!   slow-converging ones, or a fleet's cheap transients next to large
//!   sweeps) do not leave threads idle, plus optional per-worker state;
//! * [`par_workers`] — raw scoped workers for self-scheduling loops (the
//!   batched sweep pulls scenario indices from a shared atomic counter);
//! * [`par_partition_mut`] — splits one `&mut [T]` into contiguous
//!   unit-aligned pieces, one per worker, for filling disjoint rows of a
//!   matrix in place.
//!
//! In an environment with crates.io access this is the role `rayon` would
//! play; the API is deliberately small so swapping it out stays easy.
//!
//! # Example
//!
//! ```
//! let squares = ptherm_par::par_map_with(
//!     4,            // worker threads
//!     &[1u64, 2, 3, 4, 5][..],
//!     || 0u64,      // per-worker scratch state
//!     |scratch, _index, &x| {
//!         *scratch += 1; // e.g. count items this worker handled
//!         x * x
//!     },
//! );
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

pub mod cancel;

pub use cancel::CancelToken;

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding [`default_threads`]: set
/// `PTHERM_THREADS=n` to pin every default-threaded code path in the
/// workspace to `n` workers. This is how containerized deployments cap
/// worker counts below the host's CPU count, and how the CI
/// thread-invariance matrix runs the whole test suite at 1, 2 and 8
/// workers without code changes.
pub const THREADS_ENV: &str = "PTHERM_THREADS";

/// A sensible worker count: the [`THREADS_ENV`] override when set to a
/// positive integer, otherwise the machine's available parallelism, or
/// 1 if neither can be determined.
pub fn default_threads() -> usize {
    if let Some(n) = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on `threads` workers, preserving input order in
/// the output.
///
/// Items are claimed one at a time from a shared atomic counter, so
/// workloads with very uneven per-item cost still balance. With
/// `threads <= 1` the map runs inline on the calling thread (no spawn
/// cost, exact same results).
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(threads, items, || (), |(), i, item| f(i, item))
}

/// [`par_map`] with per-worker mutable scratch state.
///
/// `init` runs once on each worker thread; the state it returns is passed
/// to every call that worker makes. This is what lets the sweep engine
/// give each thread one reusable solve workspace instead of allocating
/// per scenario.
pub fn par_map_with<T, R, S, F, I>(threads: usize, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&mut S, usize, &T) -> R + Sync,
    I: Fn() -> S + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, i, item))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next = &next;
            let init = &init;
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut state = init();
                let mut produced: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    produced.push((i, f(&mut state, i, &items[i])));
                }
                produced
            }));
        }
        for handle in handles {
            // A worker that unwound re-raises with its original payload so
            // callers' `catch_unwind` (the fleet's panic isolation) still
            // sees the real panic, not a synthetic join message.
            let produced = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (i, r) in produced {
                results[i] = Some(r);
            }
        }
    });

    results
        .into_iter()
        // lint:allow(panic-freedom) — the shared cursor hands out every
        // index in 0..len exactly once, so every slot is filled.
        .map(|r| r.expect("every index claimed exactly once"))
        .collect()
}

/// Runs `f(worker_index)` on `threads` scoped workers and returns their
/// results in worker order.
///
/// The raw building block for self-scheduling loops: workers typically
/// share an `AtomicUsize` cursor and claim work items until it runs dry
/// (the batched sweep engine refills solver lanes this way). With
/// `threads <= 1` the single worker runs inline on the calling thread.
pub fn par_workers<R, F>(threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1);
    if threads == 1 {
        return vec![f(0)];
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..threads).map(|w| scope.spawn(move || f(w))).collect();
        handles
            .into_iter()
            // Re-raise a worker's own panic payload; see par_map_with.
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

/// Splits `data` into at most `threads` contiguous pieces aligned to
/// `unit` elements and runs `f(first_unit_index, piece)` on each piece on
/// its own scoped worker.
///
/// This is the in-place counterpart of [`par_map`] for filling a shared
/// row-major buffer: each worker owns a disjoint run of whole units
/// (matrix rows), so no synchronization is needed. The split is static —
/// appropriate when per-unit cost is roughly uniform, as it is for
/// influence-matrix rows. With `threads <= 1` (or a single piece) `f`
/// runs inline.
///
/// # Panics
///
/// Panics if `unit == 0` or `data.len()` is not a multiple of `unit`.
pub fn par_partition_mut<T, F>(threads: usize, data: &mut [T], unit: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(unit > 0, "unit must be non-zero");
    assert!(
        data.len().is_multiple_of(unit),
        "data must hold whole units"
    );
    let units = data.len() / unit;
    let threads = threads.max(1).min(units.max(1));
    if threads <= 1 {
        f(0, data);
        return;
    }
    // Spread `units` over workers, front-loading the remainder.
    let base = units / threads;
    let extra = units % threads;
    std::thread::scope(|scope| {
        let f = &f;
        let mut rest = data;
        let mut first = 0;
        for w in 0..threads {
            let take = (base + usize::from(w < extra)) * unit;
            let (piece, tail) = rest.split_at_mut(take);
            rest = tail;
            let start = first;
            first += take / unit;
            scope.spawn(move || f(start, piece));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_across_thread_counts() {
        let items: Vec<usize> = (0..1000).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 4, 16] {
            let got = par_map(threads, &items, |_, &x| x * 3);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn uneven_workloads_complete() {
        let items: Vec<u64> = (0..64).collect();
        let got = par_map(8, &items, |_, &x| {
            // Make early items much slower than late ones.
            let spins = if x < 4 { 200_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(acc);
            x + 1
        });
        assert_eq!(got, (1..=64).collect::<Vec<u64>>());
    }

    #[test]
    fn worker_state_is_reused() {
        let items: Vec<usize> = (0..100).collect();
        // Each worker counts how many items it handled; totals must cover
        // every item exactly once.
        let counts = par_map_with(
            4,
            &items,
            || 0usize,
            |count, _, _| {
                *count += 1;
                *count
            },
        );
        // Per-item values are the worker-local running count: all >= 1.
        assert!(counts.iter().all(|&c| c >= 1));
    }

    #[test]
    fn env_override_pins_default_threads() {
        // The only test in this process touching the variable; restore
        // whatever the harness (e.g. the CI thread matrix) set.
        let previous = std::env::var(THREADS_ENV).ok();
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(default_threads(), 3);
        std::env::set_var(THREADS_ENV, "not a number");
        assert!(default_threads() >= 1);
        std::env::set_var(THREADS_ENV, "0");
        assert!(default_threads() >= 1);
        match previous {
            Some(value) => std::env::set_var(THREADS_ENV, value),
            None => std::env::remove_var(THREADS_ENV),
        }
        assert!(default_threads() >= 1);
    }

    #[test]
    fn empty_input() {
        let got: Vec<u32> = par_map(8, &[] as &[u32], |_, &x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn workers_drain_a_shared_counter() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let next = AtomicUsize::new(0);
        for threads in [1, 4] {
            next.store(0, Ordering::Relaxed);
            let claimed = par_workers(threads, |w| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= 100 {
                        break;
                    }
                    mine.push(i);
                }
                (w, mine)
            });
            assert_eq!(claimed.len(), threads);
            let mut all: Vec<usize> = claimed.into_iter().flat_map(|(_, v)| v).collect();
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn partition_covers_every_unit_once() {
        // 10 rows of 3 over several worker counts, including more workers
        // than rows.
        for threads in [1, 3, 4, 16] {
            let mut data = vec![0u32; 30];
            par_partition_mut(threads, &mut data, 3, |first_row, piece| {
                for (r, row) in piece.chunks_mut(3).enumerate() {
                    for v in row.iter_mut() {
                        *v += (first_row + r) as u32 + 1;
                    }
                }
            });
            let want: Vec<u32> = (0..10).flat_map(|r| [r + 1; 3]).collect();
            assert_eq!(data, want, "threads = {threads}");
        }
    }

    #[test]
    fn partition_handles_empty_data() {
        let mut data: Vec<u8> = Vec::new();
        par_partition_mut(4, &mut data, 5, |_, piece| {
            assert!(piece.is_empty());
        });
    }

    #[test]
    #[should_panic(expected = "whole units")]
    fn partition_rejects_ragged_data() {
        let mut data = vec![0u8; 7];
        par_partition_mut(2, &mut data, 3, |_, _| {});
    }
}
