//! Property: every injected mirror corruption is *detected*.
//!
//! The chaos harness plants a single mirror corruption
//! ([`FaultSite::MirrorFlip`]) mid-run; paranoia mode cross-checks the
//! manager's mirror against the ground-truth `SpaceMap` every `k`
//! rounds. The property under test is the safety contract of §2.12:
//! a run that suffered an injected corruption must never complete
//! cleanly. It may fail loudly in one of three acceptable ways —
//! a `MirrorDivergence` from the paranoia sweep (within `k` rounds of
//! the injection), any other execution error (the ground-truth referee
//! rejecting an overlapping placement), or a panic — but `Ok` is a
//! silent survival and fails the test.

use std::panic::{catch_unwind, AssertUnwindSafe};

use partial_compaction::heap::{Execution, ExecutionError, Heap, MirrorCheck};
use partial_compaction::workload::{ChurnConfig, ChurnWorkload};
use partial_compaction::{FaultPlan, FaultSite, ManagerKind, Params};
use proptest::prelude::*;

/// The managers that maintain a mirror of the referee (a free list, or
/// the page table of `pages-thm2`) and therefore implement fault
/// injection; the other kinds report [`MirrorCheck::Unsupported`] and are
/// exercised separately below.
const MIRRORED: [ManagerKind; 4] = [
    ManagerKind::FirstFit,
    ManagerKind::BestFit,
    ManagerKind::NextFit,
    ManagerKind::PagesThm2,
];

const M: u64 = 1 << 12;
const LOG_N: u32 = 6;

fn churn(seed: u64) -> ChurnWorkload {
    let mut cfg = ChurnConfig::typical(M, LOG_N);
    cfg.rounds = 24;
    cfg.allocs_per_round = 16;
    cfg.seed = seed;
    ChurnWorkload::new(cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Corruption injected at a chaos-chosen round is caught within the
    // paranoia cadence, across managers and seeds.
    #[test]
    fn injected_corruption_is_detected_within_the_paranoia_cadence(
        seed in 0u64..(1 << 48),
        cadence in 1u32..5,
        kind_idx in 0usize..MIRRORED.len(),
    ) {
        let kind = MIRRORED[kind_idx];
        let params = Params::new(M, LOG_N, 2).expect("valid params");
        let manager = kind.try_build(&params).expect("mirrored kinds build");
        let heap = Heap::non_moving();
        // Rate 100% arms the flip at the first round with live objects;
        // the engine plants at most one corruption per run.
        let plan = FaultPlan::new(seed).with_rate(FaultSite::MirrorFlip, 1_000_000);
        let mut exec = Execution::new(heap, churn(seed), manager)
            .with_chaos(plan)
            .with_paranoia(cadence);
        let outcome = catch_unwind(AssertUnwindSafe(|| exec.run_summary()));
        let injected = exec.mirror_fault_round();
        match outcome {
            // A panic is a loud failure: the corruption did not survive.
            Err(_) => {}
            Ok(Ok(_)) => {
                // A clean run is only acceptable if no fault was planted
                // (e.g. the heap was empty at every decision point —
                // impossible for this churn, but the property spells it
                // out rather than assuming).
                prop_assert!(
                    injected.is_none(),
                    "corruption injected at round {:?} survived a clean \
                     {kind} run (cadence {cadence})",
                    injected,
                );
            }
            Ok(Err(ExecutionError::MirrorDivergence {
                round,
                injected_round,
                ..
            })) => {
                prop_assert_eq!(injected_round, injected);
                let at = injected_round.expect("divergence implies an injection");
                prop_assert!(
                    round >= at && round - at < cadence,
                    "divergence at round {round} is outside the cadence \
                     window [{at}, {})",
                    at + cadence,
                );
            }
            // Any other error means the ground-truth referee caught the
            // corruption (overlapping placement) before the next sweep.
            Ok(Err(_)) => {}
        }
    }

    // The direct contract behind the cadence bound: planting a fault
    // flips the mirror check from `Clean` to `Divergent` immediately.
    #[test]
    fn a_planted_fault_is_visible_to_the_very_next_mirror_check(
        seed in 0u64..(1 << 48),
        roll in 0u64..u64::MAX,
        kind_idx in 0usize..MIRRORED.len(),
    ) {
        let kind = MIRRORED[kind_idx];
        let params = Params::new(M, LOG_N, 2).expect("valid params");
        let manager = kind.try_build(&params).expect("mirrored kinds build");
        let heap = Heap::non_moving();
        let mut exec = Execution::new(heap, churn(seed), manager);
        exec.run_summary().expect("fault-free churn completes");
        let (heap, _, mut manager) = exec.into_parts();
        prop_assert!(matches!(
            manager.mirror_check(heap.space()),
            MirrorCheck::Clean
        ));
        let planted = manager.inject_mirror_fault(roll, heap.space());
        prop_assert!(planted, "a finished churn run leaves live objects");
        prop_assert!(
            matches!(manager.mirror_check(heap.space()), MirrorCheck::Divergent(_)),
            "planted corruption invisible to {kind} mirror check",
        );
    }
}

/// Kinds without a mirror opt out explicitly rather than silently: the
/// check reports `Unsupported` and injection reports `false`, so the
/// engine never believes it planted a fault it cannot detect.
#[test]
fn unmirrored_kinds_decline_injection_instead_of_lying() {
    let params = Params::new(M, LOG_N, 2).expect("valid params");
    for kind in [ManagerKind::Buddy, ManagerKind::Segregated] {
        let manager = kind.try_build(&params).expect("builds");
        let heap = Heap::non_moving();
        let mut exec = Execution::new(heap, churn(7), manager);
        exec.run_summary().expect("fault-free churn completes");
        let (heap, _, mut manager) = exec.into_parts();
        assert!(
            !manager.inject_mirror_fault(42, heap.space()),
            "{kind} accepted an injection it cannot mirror-check"
        );
        assert!(matches!(
            manager.mirror_check(heap.space()),
            MirrorCheck::Unsupported
        ));
    }
}
