//! The packed/interned search must be indistinguishable from the seed
//! implementation: byte-identical `WorstCase` on a pinned parameter grid,
//! for every policy, at `PCB_THREADS=1` and at several worker counts.
//!
//! This file holds a single `#[test]` on purpose: it mutates the
//! process-wide `PCB_THREADS` variable, and cargo runs test binaries one
//! at a time, so a lone test is the race-free way to flip the knob.

mod oracle;

use partial_compaction::exhaustive::{try_worst_case, SearchPolicy};
use partial_compaction::{parallel, Params};

fn with_threads<T>(threads: &str, run: impl FnOnce() -> T) -> T {
    let saved = std::env::var("PCB_THREADS").ok();
    std::env::set_var("PCB_THREADS", threads);
    let out = run();
    match saved {
        Some(v) => std::env::set_var("PCB_THREADS", v),
        None => std::env::remove_var("PCB_THREADS"),
    }
    out
}

#[test]
fn packed_search_is_byte_identical_to_the_seed_implementation() {
    // The pinned grid: every cell small enough to run the deliberately
    // slow oracle, large enough to exercise spills
    // (states beyond 4 intervals) and multi-size allocation.
    let grid: [(u64, u32); 4] = [(6, 1), (8, 1), (6, 2), (8, 2)];
    for (m, log_n) in grid {
        let params = Params::new(m, log_n, 10).expect("toy parameters");
        for policy in SearchPolicy::ALL {
            let seed = oracle::worst_case(params, policy, 3_000_000).expect("grid is toy-scale");
            let sequential = with_threads("1", || {
                assert_eq!(parallel::thread_count(), 1);
                try_worst_case(params, policy, 3_000_000)
                    .expect("toy")
                    .worst
            });
            assert_eq!(
                sequential,
                seed,
                "{} at (M={m}, log n={log_n}): packed sequential diverged from seed",
                policy.name()
            );
            for threads in ["2", "4"] {
                let parallel_run = with_threads(threads, || {
                    try_worst_case(params, policy, 3_000_000)
                        .expect("toy")
                        .worst
                });
                assert_eq!(
                    parallel_run,
                    seed,
                    "{} at (M={m}, log n={log_n}): diverged with PCB_THREADS={threads}",
                    policy.name()
                );
            }
        }
    }

    // Typed errors agree with the oracle too: the same cap trips both.
    let params = Params::new(8, 2, 10).expect("toy");
    let packed_err = try_worst_case(params, SearchPolicy::FirstFit, 100).unwrap_err();
    let seed_err = oracle::worst_case(params, SearchPolicy::FirstFit, 100).unwrap_err();
    assert!(matches!(
        packed_err,
        partial_compaction::exhaustive::SearchError::StateSpaceExceeded { .. }
    ));
    assert!(matches!(
        seed_err,
        partial_compaction::exhaustive::SearchError::StateSpaceExceeded { .. }
    ));
}
