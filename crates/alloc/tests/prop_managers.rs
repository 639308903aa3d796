//! Property-based tests: every manager in the suite serves arbitrary
//! well-formed request traces without ever double-booking a word (the
//! engine checks each placement against the ground truth), and the
//! free-space index keeps its invariants under random churn.

use proptest::prelude::*;

use pcb_alloc::{FitPolicy, FreeSpace, ManagerKind};
use pcb_heap::{Addr, Execution, Heap, Params, Size};

/// A random but well-formed script: each round allocates sizes in
/// `[1, 2^log_n]` and frees a random subset of what is live, keeping total
/// live below the bound.
fn random_script(rounds: &[(Vec<u64>, Vec<usize>)], live_bound: u64) -> pcb_heap::ScriptedProgram {
    let mut program = pcb_heap::ScriptedProgram::new(Size::new(live_bound));
    let mut live: Vec<(usize, u64)> = Vec::new(); // (index, size)
    let mut live_words = 0u64;
    let mut next_index = 0usize;
    for (sizes, free_picks) in rounds {
        let mut frees = Vec::new();
        for &pick in free_picks {
            if live.is_empty() {
                break;
            }
            let (idx, size) = live.remove(pick % live.len());
            frees.push(idx);
            live_words -= size;
        }
        let mut allocs = Vec::new();
        for &size in sizes {
            if live_words + size > live_bound {
                break;
            }
            allocs.push(size);
            live.push((next_index, size));
            next_index += 1;
            live_words += size;
        }
        program = program.round(frees, allocs);
    }
    program
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_manager_serves_random_traces(
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec(1u64..64, 1..12),
                proptest::collection::vec(0usize..32, 0..8),
            ),
            1..12,
        ),
    ) {
        let live_bound = 1u64 << 12;
        for kind in ManagerKind::ALL {
            let program = random_script(&rounds, live_bound);
            let heap = if kind.is_compacting() { Heap::new(8) } else { Heap::non_moving() };
            let mut exec = Execution::new(heap, program, kind.build(&Params::new(live_bound, 6, 8).unwrap()));
            let report = exec.run_summary().map_err(|e| {
                TestCaseError::fail(format!("{kind}: {e}"))
            })?;
            prop_assert!(report.peak_live <= live_bound);
            if kind.is_compacting() {
                prop_assert!(report.moved_fraction <= 1.0 / 8.0 + 1e-12);
            } else {
                prop_assert_eq!(report.objects_moved, 0);
            }
        }
    }

    #[test]
    fn free_space_invariants_under_churn(
        ops in proptest::collection::vec((1u64..32, any::<bool>(), 0usize..64), 1..200),
        policy_pick in 0usize..4,
    ) {
        let policy = FitPolicy::ALL[policy_pick];
        let mut fs = FreeSpace::new();
        let mut held: Vec<(Addr, Size)> = Vec::new();
        let mut cursor = Addr::ZERO;
        for (size, release, pick) in ops {
            let size = Size::new(size);
            let addr = if policy == FitPolicy::NextFit {
                fs.take_next_fit(size, &mut cursor).0
            } else {
                fs.take(size, policy).0
            };
            // No overlap with anything currently held.
            for &(a, s) in &held {
                let disjoint = addr.get() + size.get() <= a.get()
                    || a.get() + s.get() <= addr.get();
                prop_assert!(disjoint, "{policy:?}: [{addr}, +{size}) overlaps [{a}, +{s})");
            }
            held.push((addr, size));
            if release && !held.is_empty() {
                let (a, s) = held.remove(pick % held.len());
                fs.release(a, s);
            }
            fs.check_invariants().map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn aligned_take_is_aligned_and_disjoint(
        ops in proptest::collection::vec((0u32..5, any::<bool>(), 0usize..32), 1..100),
    ) {
        let mut fs = FreeSpace::new();
        let mut held: Vec<(Addr, Size)> = Vec::new();
        for (order, release, pick) in ops {
            let size = Size::new(1 << order);
            let addr = fs.take_aligned(size, size.get());
            prop_assert!(addr.is_aligned_to(size.get()));
            for &(a, s) in &held {
                let disjoint = addr.get() + size.get() <= a.get()
                    || a.get() + s.get() <= addr.get();
                prop_assert!(disjoint);
            }
            held.push((addr, size));
            if release && !held.is_empty() {
                let (a, s) = held.remove(pick % held.len());
                fs.release(a, s);
            }
            fs.check_invariants().map_err(TestCaseError::fail)?;
        }
    }
}
