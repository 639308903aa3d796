//! The parallel experiment engine: deterministic fan-out of independent
//! work items across OS threads.
//!
//! Every experiment surface in this repository — bound sweeps
//! ([`sweep`](crate::sweep)), figure series ([`figures`](crate::figures)),
//! the reproduction checklist ([`reproduce`](crate::reproduce)), the
//! empirical program×manager grid in `pcb-bench`, and the exhaustive
//! worst-case search ([`exhaustive`](crate::exhaustive)) — is a map over
//! independent, pure work items. [`par_map`] fans such maps across
//! threads and collects results **in input order**, so parallel runs are
//! bit-identical to sequential ones; the only observable difference is
//! wall-clock time.
//!
//! The thread count comes from the `PCB_THREADS` environment variable
//! (unset, empty, `0`, or unparsable values fall back to the machine's
//! available parallelism). `PCB_THREADS=1` forces the exact sequential
//! code path.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads the engine will use: `PCB_THREADS` if set to
/// a positive integer, otherwise [`std::thread::available_parallelism`].
pub fn thread_count() -> usize {
    if let Ok(raw) = std::env::var("PCB_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to [`thread_count`] threads, returning the
/// results in input order.
///
/// This is the environment-driven convenience form of
/// [`par_map_threads`]; code that has a resolved
/// [`RunConfig`](crate::RunConfig) should pass `config.threads` to
/// [`par_map_threads`] instead of re-reading `PCB_THREADS` here.
///
/// # Panics
///
/// Re-raises the first panic from `f`, like the sequential map would.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_threads(thread_count(), items, f)
}

/// Maps `f` over `items` on up to `threads` threads, returning the
/// results in input order.
///
/// Work is distributed dynamically (an atomic cursor), so uneven item
/// costs balance across workers; results are scattered back by index, so
/// the output is identical to `items.iter().map(f).collect()` regardless
/// of the thread count or scheduling. With one thread (or one item) it
/// *is* that sequential expression — no threads are spawned.
///
/// # Panics
///
/// Re-raises the first panic from `f`, like the sequential map would.
pub fn par_map_threads<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let _span = pcb_metrics::span!("parallel.par_map");
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<U>> = Vec::new();
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    // One span per shard lifetime: in a trace each worker
                    // renders as its own track, so load imbalance between
                    // shards is visible as ragged lane ends.
                    let _span = pcb_metrics::span!("parallel.worker");
                    let mut produced = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        produced.push((i, f(item)));
                    }
                    produced
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(produced) => {
                    for (i, value) in produced {
                        slots[i] = Some(value);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * x);
        let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(&[] as &[u64], |&x| x), Vec::<u64>::new());
        assert_eq!(par_map(&[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_work_still_lands_in_order() {
        // Make early items slow so late items finish first on other threads.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, |&x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn explicit_thread_counts_agree_with_sequential() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                par_map_threads(threads, &items, |&x| x * 3 + 1),
                expected,
                "threads={threads}"
            );
        }
        // 0 is clamped to the sequential path rather than panicking.
        assert_eq!(par_map_threads(0, &items, |&x| x * 3 + 1), expected);
    }
}
