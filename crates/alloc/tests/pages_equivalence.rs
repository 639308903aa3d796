//! Lockstep differential test: the dense runtime [`PageManager`] against
//! the seed `BTreeMap`/`BTreeSet` page manager kept in `oracle/`.
//!
//! Both are driven through [`Execution`] with the same programs — random
//! multi-class churn scripts under compaction budgets that make eviction
//! fire, and the `P_F` adversary — for page geometries of 4, 8, 16 and
//! 128 slots (128 slots span two occupancy words per page). The recorded
//! event streams, reports, eviction counts and internal waste must be
//! identical, and the dense manager's page table must pass its own mirror
//! check against the referee at the end.

#[allow(dead_code, unused_imports)] // shared with `manager_equivalence`, which drives the rest
mod oracle;

use pcb_adversary::{PfConfig, PfProgram};
use pcb_alloc::PageManager;
use pcb_heap::{
    Execution, Heap, MemoryManager, MirrorCheck, Program, ScriptedProgram, Size, Trace,
    TraceRecorder,
};
use proptest::prelude::*;

use oracle::SeedPageManager;

const GEOMETRIES: [usize; 4] = [4, 8, 16, 128];

/// Everything a run exposes: the report (or the error), the event
/// stream, the eviction count and the internal waste at the end.
#[derive(Debug, PartialEq)]
struct Outcome {
    report: Result<String, String>,
    trace: Trace,
    evictions: u64,
    internal_waste: u64,
}

fn drive<P: Program, M: MemoryManager>(
    c: u64,
    program: P,
    manager: M,
    evictions: impl Fn(&M) -> u64,
) -> (Outcome, Heap, M) {
    let mut exec = Execution::new(Heap::new(c), program, manager);
    let mut rec = TraceRecorder::new(c);
    let report = exec
        .run_observed(&mut rec)
        .map(|r| format!("{r:?}"))
        .map_err(|e| e.to_string());
    let (heap, _, manager) = exec.into_parts();
    let outcome = Outcome {
        report,
        trace: rec.into_trace(),
        evictions: evictions(&manager),
        internal_waste: manager.internal_waste(),
    };
    (outcome, heap, manager)
}

/// Runs `make()` against both managers and returns the shared outcome.
fn lockstep<P: Program>(
    c: u64,
    max_order: u32,
    slots: usize,
    make: impl Fn() -> P,
) -> Result<Outcome, TestCaseError> {
    let (dense, heap, manager) = drive(
        c,
        make(),
        PageManager::with_geometry(c, max_order, slots),
        PageManager::evictions,
    );
    let (seed, _, _) = drive(
        c,
        make(),
        SeedPageManager::with_geometry(c, max_order, slots),
        SeedPageManager::evictions,
    );
    prop_assert_eq!(&dense, &seed, "slots={}", slots);
    if dense.report.is_ok() {
        prop_assert_eq!(manager.mirror_check(heap.space()), MirrorCheck::Clean);
    }
    Ok(dense)
}

/// A churn script: each round frees the picked live objects, then
/// allocates sizes spanning several classes while live words stay under
/// `live_bound` (shared shape with `manager_equivalence`).
fn churn_script(rounds: &[(Vec<u64>, Vec<usize>)], live_bound: u64) -> ScriptedProgram {
    let mut program = ScriptedProgram::new(Size::new(live_bound));
    let mut live: Vec<(usize, u64)> = Vec::new();
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

/// Object sizes skewed towards the small classes, so a class holds
/// enough objects to fill and then thin out even 128-slot pages.
fn size_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..3, 1u64..3, 1u64..9, 1u64..65]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Churn that leaves pages sparse (frees most of what is live each
    // round) while the live bound keeps the heap packed, so classes keep
    // running out of open pages and eviction competes for the budget.
    #[test]
    fn dense_pages_match_the_seed_under_churn(
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec(size_strategy(), 0..64),
                proptest::collection::vec(0usize..512, 0..64),
            ),
            2..24,
        ),
        live_bound in 256u64..2048,
        c in 2u64..12,
        geometry in 0usize..GEOMETRIES.len(),
    ) {
        let script = churn_script(&rounds, live_bound);
        lockstep(c, 8, GEOMETRIES[geometry], || script.clone())?;
    }
}

/// `P_F` (full variant) drives every geometry through both stages,
/// compaction included, at M = 2^12 and 2^13.
#[test]
fn dense_pages_match_the_seed_under_pf() {
    let mut evictions = 0;
    for (m, log_n, c) in [(1u64 << 12, 8u32, 10u64), (1 << 13, 9, 15)] {
        for slots in GEOMETRIES {
            let make = || PfProgram::new(PfConfig::new(m, log_n, c).expect("feasible"));
            let outcome = lockstep(c, log_n, slots, make)
                .unwrap_or_else(|e| panic!("M={m} slots={slots}: {e}"));
            assert!(
                outcome.report.is_ok(),
                "M={m} slots={slots}: {:?}",
                outcome.report
            );
            evictions += outcome.evictions;
        }
    }
    assert!(evictions > 0, "P_F never triggered an evacuation");
}

/// Eight full class-0 pages thinned to one or two survivors each (the
/// first and last slot, so a 128-slot page keeps one in each of its
/// words), then a burst of class-3 requests with no pool room: every
/// geometry must evacuate, identically on both sides.
#[test]
fn dense_pages_match_the_seed_when_evacuating_thinned_pages() {
    for slots in GEOMETRIES {
        let n = 8 * slots;
        let survivor =
            |i: &usize| i.is_multiple_of(slots) || (slots >= 8 && i % slots == slots - 1);
        let script = ScriptedProgram::new(Size::new(2 * n as u64))
            .round([], vec![1u64; n])
            .round((0..n).filter(|i| !survivor(i)), vec![8u64; slots]);
        let outcome = lockstep(5, 10, slots, || script.clone())
            .unwrap_or_else(|e| panic!("slots={slots}: {e}"));
        assert!(
            outcome.report.is_ok(),
            "slots={slots}: {:?}",
            outcome.report
        );
        assert!(outcome.evictions > 0, "slots={slots}: no evacuation");
    }
}
