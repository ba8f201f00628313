//! Deterministic parallel fan-out for the experiment harness.
//!
//! [`par_map`] runs `f(0), f(1), …, f(n-1)` on a pool of scoped threads
//! and returns the results **in index order**. Work items are claimed
//! from a shared atomic counter, so the scheduling interleaving is
//! nondeterministic — but because every item is keyed by its index and
//! the caller derives each item's randomness from that index alone
//! (see `bisect_gen::rng::SeedSequence`), the returned vector is
//! bit-identical at any thread count, including 1.
//!
//! [`par_for_each_mut`] is the in-place twin for callers that keep
//! per-worker scratch between calls: index `k` gets `&mut` to slot `k`
//! of a caller-owned slice, so nothing is allocated per item.
//!
//! The thread count comes from, in order of precedence:
//!
//! 1. a process-wide override set by [`set_thread_override`] (the
//!    `repro --threads N` flag);
//! 2. the `RAYON_NUM_THREADS` or `BISECT_NUM_THREADS` environment
//!    variable (the rayon convention, honored so existing workflows
//!    carry over);
//! 3. [`std::thread::available_parallelism`].
//!
//! There is no global pool: each [`par_map`] call spawns
//! `min(threads, n)` scoped threads and joins them before returning.
//! Threads are cheap relative to the trials they run (a trial is a full
//! KL/SA bisection, milliseconds at minimum), and scoped spawning keeps
//! the crate dependency-free and panic-transparent. Nested calls are
//! allowed; each level caps its own spawn count.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the thread count used by [`par_map`] for the whole
/// process. Passing 0 clears the override. Takes precedence over the
/// environment variables.
pub fn set_thread_override(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::SeqCst);
}

/// The thread count [`par_map`] will use: the [`set_thread_override`]
/// value if set, else `RAYON_NUM_THREADS`/`BISECT_NUM_THREADS` if set
/// to a positive integer, else the machine's available parallelism.
pub fn num_threads() -> usize {
    let overridden = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if overridden > 0 {
        return overridden;
    }
    for var in ["RAYON_NUM_THREADS", "BISECT_NUM_THREADS"] {
        if let Some(n) = std::env::var(var)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
        {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `0..n` on up to [`num_threads`] threads; results are
/// returned in index order, bit-identical to the serial run as long as
/// `f(i)` depends only on `i` (and shared immutable state).
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_with(num_threads(), n, f)
}

/// As [`par_map`] with an explicit thread count (used by the
/// determinism regression tests to pin both sides of the comparison).
///
/// A panic in any `f(i)` is propagated to the caller after the
/// remaining workers drain.
pub fn par_map_with<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.max(1).min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(local) => indexed.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, value)| value).collect()
}

/// Runs `f(k, &mut slots[k])` for every slot on up to `threads`
/// threads — the fan-out for per-worker scratch arenas that outlive
/// the call. Index `k` gets exclusive access to slot `k` only, so as
/// long as `f(k, …)` depends only on `k`, that slot and shared
/// immutable state, every slot ends bit-identical at any thread count.
///
/// With `threads <= 1` (or at most one slot) this is a plain loop;
/// otherwise the slice is split into contiguous groups, one scoped
/// thread each. A panic in any `f` is propagated to the caller after
/// the remaining groups finish.
pub fn par_for_each_mut<S, F>(threads: usize, slots: &mut [S], f: F)
where
    S: Send,
    F: Fn(usize, &mut S) + Sync,
{
    let workers = threads.max(1).min(slots.len());
    if workers <= 1 {
        for (k, slot) in slots.iter_mut().enumerate() {
            f(k, slot);
        }
        return;
    }
    let per = slots.len().div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = slots
            .chunks_mut(per)
            .enumerate()
            .map(|(g, group)| {
                scope.spawn(move || {
                    for (j, slot) in group.iter_mut().enumerate() {
                        f(g * per + j, slot);
                    }
                })
            })
            .collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        let out = par_map_with(4, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn identical_across_thread_counts() {
        let serial = par_map_with(1, 37, |i| i.wrapping_mul(0x9E37_79B9) ^ (i << 3));
        for threads in [2, 3, 4, 8, 64] {
            assert_eq!(
                par_map_with(threads, 37, |i| i.wrapping_mul(0x9E37_79B9) ^ (i << 3)),
                serial
            );
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map_with(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_with(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(par_map_with(32, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let counts: Vec<AtomicU32> = (0..200).map(|_| AtomicU32::new(0)).collect();
        par_map_with(8, 200, |i| counts[i].fetch_add(1, Ordering::SeqCst));
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "index {i}");
        }
    }

    #[test]
    fn override_takes_precedence() {
        set_thread_override(3);
        assert_eq!(num_threads(), 3);
        set_thread_override(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        par_map_with(4, 16, |i| {
            if i == 7 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn for_each_mut_hands_each_index_its_own_slot() {
        let serial = {
            let mut slots = vec![0usize; 37];
            par_for_each_mut(1, &mut slots, |k, s| *s += k * k + 1);
            slots
        };
        assert_eq!(serial, (0..37).map(|k| k * k + 1).collect::<Vec<_>>());
        for threads in [2, 3, 4, 8, 64] {
            let mut slots = vec![0usize; 37];
            par_for_each_mut(threads, &mut slots, |k, s| *s += k * k + 1);
            assert_eq!(slots, serial, "threads {threads}");
        }
        par_for_each_mut(4, &mut [] as &mut [usize], |_, _| unreachable!());
    }

    #[test]
    #[should_panic(expected = "slot boom")]
    fn for_each_mut_worker_panic_propagates() {
        let mut slots = vec![0u8; 16];
        par_for_each_mut(4, &mut slots, |k, _| {
            if k == 9 {
                panic!("slot boom");
            }
        });
    }

    #[test]
    fn nested_calls_work() {
        let out = par_map_with(4, 8, |i| par_map_with(2, 4, move |j| i * 10 + j));
        assert_eq!(out[3], vec![30, 31, 32, 33]);
        assert_eq!(out.len(), 8);
    }
}
