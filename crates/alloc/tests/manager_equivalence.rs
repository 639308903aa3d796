//! Lockstep manager-side equivalence: random free-space operation
//! sequences and random manager workloads are driven through the runtime
//! structures and the seed `BTreeMap`/`BTreeSet` oracles kept in `oracle/`
//! simultaneously, asserting identical answers at every step. This is the
//! ground-truth argument for the runtime indexes: any divergence, however
//! small, fails here before it can bias a placement decision.
//!
//! Covered: every [`FreeSpace`] operation (carved gap lengths and
//! next-fit probe counts included) against [`ReferenceFreeSpace`]; the
//! buddy allocator under both [`BuddySelect`] strategies (`LowestAddr` is
//! the discipline behind `robson-aligned`), the segregated and the TLSF
//! managers against their seed managers; and `pages-thm2` against the
//! seed page manager, whose page pool runs on the seed free space.

mod oracle;

use proptest::prelude::*;

use pcb_alloc::{
    BuddyAllocator, BuddySelect, FitPolicy, FreeSpace, PageManager, SegregatedManager, TlsfManager,
};
use pcb_heap::{
    Addr, Execution, Extent, Heap, MemoryManager, ScriptedProgram, Size, Trace, TraceRecorder,
};

use oracle::{
    ReferenceFreeSpace, SeedBuddyAllocator, SeedPageManager, SeedSegregatedManager, SeedTlsfManager,
};

#[derive(Debug, Clone)]
enum Op {
    /// Take via a fit policy (0..4 maps onto `FitPolicy::ALL`).
    Take { size: u64, policy: usize },
    /// Take the next-fit way, advancing the external cursor.
    TakeNextFit { size: u64 },
    /// Take the lowest aligned gap (buddy-style).
    TakeAligned { size: u64, align_log2: u32 },
    /// Claim an explicit extent; both sides must agree on whether it was
    /// free.
    TakeExact { start: u64, size: u64 },
    /// A bounded take; both sides must agree on `None` when nothing fits
    /// below the limit.
    TakeWithin {
        size: u64,
        policy: usize,
        limit: u64,
    },
    /// Release the `pick`-th previously taken extent.
    Release { pick: usize },
    /// Forget everything.
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Mostly small sizes keep holes reusable; the large arms straddle the
    // runtime's exact-class limit (256 words) so the overflow index sees
    // traffic too, and the three fixed large sizes leave equal-length
    // large gaps behind, so best/worst-fit ties are decided there as well.
    let size = || {
        prop_oneof![
            1u64..48,
            1u64..48,
            1u64..48,
            200u64..700,
            (0u64..3).prop_map(|k| 300 + 200 * k),
        ]
    };
    let release = || (0usize..64).prop_map(|pick| Op::Release { pick });
    prop_oneof![
        (size(), 0usize..4).prop_map(|(size, policy)| Op::Take { size, policy }),
        (size(), 0usize..4).prop_map(|(size, policy)| Op::Take { size, policy }),
        (size(), 0usize..4).prop_map(|(size, policy)| Op::Take { size, policy }),
        size().prop_map(|size| Op::TakeNextFit { size }),
        (1u64..32, 0u32..5).prop_map(|(size, align_log2)| Op::TakeAligned { size, align_log2 }),
        (0u64..4_000, 0u64..48).prop_map(|(start, size)| Op::TakeExact { start, size }),
        (size(), 0usize..4, 1u64..4_000).prop_map(|(size, policy, limit)| Op::TakeWithin {
            size,
            policy,
            limit
        }),
        release(),
        release(),
        release(),
        release(),
        (0u8..40).prop_map(|roll| if roll == 0 {
            Op::Clear
        } else {
            Op::Release {
                pick: roll as usize,
            }
        }),
    ]
}

/// The state comparison run after every operation: gap structure,
/// frontier, aggregates and both invariant checks.
fn assert_same_state(fs: &FreeSpace, oracle: &ReferenceFreeSpace) -> Result<(), TestCaseError> {
    prop_assert_eq!(fs.frontier(), oracle.frontier());
    prop_assert_eq!(fs.gap_count(), oracle.gap_count());
    prop_assert_eq!(fs.gap_words(), oracle.gap_words());
    prop_assert_eq!(fs.largest_gap(), oracle.largest_gap());
    let gaps: Vec<Extent> = fs.gaps().collect();
    let oracle_gaps: Vec<Extent> = oracle.gaps().collect();
    prop_assert_eq!(gaps, oracle_gaps);
    prop_assert_eq!(fs.check_invariants(), Ok(()));
    prop_assert_eq!(oracle.check_invariants(), Ok(()));
    Ok(())
}

/// A random but well-formed script: each round allocates the given sizes
/// and frees a random subset of what is live, keeping total live below
/// the bound (shared shape with `prop_managers`).
fn random_script(rounds: &[(Vec<u64>, Vec<usize>)], live_bound: u64) -> ScriptedProgram {
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

/// Everything a managed run exposes: the report (or the error), the event
/// stream and a manager-specific index digest.
#[derive(Debug, PartialEq)]
struct Outcome {
    report: Result<String, String>,
    trace: Trace,
    index: String,
}

fn drive<M: MemoryManager>(
    heap: Heap,
    program: ScriptedProgram,
    manager: M,
    index: impl Fn(&M) -> String,
) -> Outcome {
    let c = heap.budget().c();
    let mut exec = Execution::new(heap, program, manager);
    let mut rec = TraceRecorder::new(c);
    let report = exec
        .run_observed(&mut rec)
        .map(|r| format!("{r:?}"))
        .map_err(|e| e.to_string());
    let (_, _, manager) = exec.into_parts();
    Outcome {
        report,
        trace: rec.into_trace(),
        index: index(&manager),
    }
}

/// Runs `program` through every runtime manager that has a seed oracle
/// and through that oracle, demanding identical outcomes.
fn managers_match_their_seeds(program: &ScriptedProgram, max_order: u32) {
    for select in [BuddySelect::SmallestOrder, BuddySelect::LowestAddr] {
        let runtime = drive(
            Heap::non_moving(),
            program.clone(),
            BuddyAllocator::new(max_order, select),
            |m| format!("{:?}", m.free_blocks()),
        );
        let seed = drive(
            Heap::non_moving(),
            program.clone(),
            SeedBuddyAllocator::new(max_order, select),
            |m| format!("{:?}", m.free_blocks()),
        );
        assert_eq!(runtime, seed, "buddy {select:?}");
    }
    let runtime = drive(
        Heap::non_moving(),
        program.clone(),
        SegregatedManager::new(max_order),
        |m| format!("{:?}", m.free_slots()),
    );
    let seed = drive(
        Heap::non_moving(),
        program.clone(),
        SeedSegregatedManager::new(max_order),
        |m| format!("{:?}", m.free_slots()),
    );
    assert_eq!(runtime, seed, "segregated");
    let runtime = drive(
        Heap::non_moving(),
        program.clone(),
        TlsfManager::new(),
        |m| m.indexed_free_words().to_string(),
    );
    let seed = drive(
        Heap::non_moving(),
        program.clone(),
        SeedTlsfManager::default(),
        |m| m.indexed_free_words().to_string(),
    );
    assert_eq!(runtime, seed, "tlsf");
    let runtime = drive(
        Heap::new(8),
        program.clone(),
        PageManager::new(8, max_order),
        |m| m.evictions().to_string(),
    );
    let seed = drive(
        Heap::new(8),
        program.clone(),
        SeedPageManager::with_geometry(8, max_order, 4),
        |m| m.evictions().to_string(),
    );
    assert_eq!(runtime, seed, "pages-thm2");
}

/// A deterministic churn script: `rounds` rounds of `per_round` sizes from
/// `size(round, i)`, each round freeing every `stride`-th object of the
/// previous one.
fn churn(
    rounds: u64,
    per_round: usize,
    stride: usize,
    size: impl Fn(u64, u64) -> u64,
) -> ScriptedProgram {
    let mut program = ScriptedProgram::new(Size::new(1 << 20));
    let mut base = 0usize;
    for r in 0..rounds {
        let sizes: Vec<u64> = (1..=per_round as u64).map(|i| size(r, i)).collect();
        let frees: Vec<usize> = if base >= per_round {
            (base - per_round..base).step_by(stride).collect()
        } else {
            Vec::new()
        };
        program = program.round(frees, sizes);
        base += per_round;
    }
    program
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Operation-level lockstep: every take answers with the same address
    // and carved gap (next-fit also with the same probe count), every
    // exact claim with the same verdict, and the full gap structure
    // matches after every single operation.
    #[test]
    fn free_space_matches_the_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        probes in proptest::collection::vec(0u64..4_200, 1..8),
    ) {
        let mut fs = FreeSpace::new();
        let mut oracle = ReferenceFreeSpace::new();
        let mut cursor = Addr::ZERO;
        let mut oracle_cursor = Addr::ZERO;
        let mut taken: Vec<(Addr, Size)> = Vec::new();
        for op in ops {
            match op {
                Op::Take { size, policy } => {
                    let (size, policy) = (Size::new(size), FitPolicy::ALL[policy]);
                    let got = fs.take(size, policy);
                    let want = oracle.take(size, policy);
                    prop_assert_eq!(got, want, "take {} {:?}", size, policy);
                    taken.push((got.0, size));
                }
                Op::TakeNextFit { size } => {
                    let size = Size::new(size);
                    let got = fs.take_next_fit(size, &mut cursor);
                    let want = oracle.take_next_fit(size, &mut oracle_cursor);
                    prop_assert_eq!(got, want, "take_next_fit {}", size);
                    prop_assert_eq!(cursor, oracle_cursor, "next-fit cursors");
                    taken.push((got.0, size));
                }
                Op::TakeAligned { size, align_log2 } => {
                    let size = Size::new(size);
                    let align = 1u64 << align_log2;
                    let got = fs.take_aligned(size, align);
                    let want = oracle.take_aligned(size, align);
                    prop_assert_eq!(got, want, "take_aligned {} @{}", size, align);
                    taken.push((got, size));
                }
                Op::TakeExact { start, size } => {
                    let (start, size) = (Addr::new(start), Size::new(size));
                    prop_assert_eq!(fs.is_free(start, size), oracle.is_free(start, size));
                    let got = fs.take_exact(start, size);
                    let want = oracle.take_exact(start, size);
                    prop_assert_eq!(got, want, "take_exact [{}, {}+{})", start, start, size);
                    if got && !size.is_zero() {
                        taken.push((start, size));
                    }
                }
                Op::TakeWithin { size, policy, limit } => {
                    let (size, policy) = (Size::new(size), FitPolicy::ALL[policy]);
                    let got = fs.try_take_within(size, policy, limit);
                    let want = oracle.try_take_within(size, policy, limit);
                    prop_assert_eq!(got, want, "try_take_within {} {:?} < {}", size, policy, limit);
                    if let Some(addr) = got {
                        taken.push((addr, size));
                    }
                }
                Op::Release { pick } => {
                    if taken.is_empty() {
                        continue;
                    }
                    let (addr, size) = taken.remove(pick % taken.len());
                    fs.release(addr, size);
                    oracle.release(addr, size);
                }
                Op::Clear => {
                    fs.clear();
                    oracle.clear();
                    taken.clear();
                    cursor = Addr::ZERO;
                    oracle_cursor = Addr::ZERO;
                }
            }
            assert_same_state(&fs, &oracle)?;
            for &probe in &probes {
                let addr = Addr::new(probe);
                prop_assert_eq!(fs.gap_containing(addr), oracle.gap_containing(addr), "gap_containing {}", addr);
                prop_assert_eq!(fs.gap_starting_at(addr), oracle.gap_starting_at(addr));
                prop_assert_eq!(fs.gap_ending_at(addr), oracle.gap_ending_at(addr));
            }
        }
    }
}

/// Words covered by one top-level entry of the first-fit length bounds.
const LEVEL2_SPAN: u64 = 1 << 18;

/// Free-space operations over a heap spread across several top-level
/// blocks of the first-fit length bounds.
#[derive(Debug, Clone)]
enum WideOp {
    /// Claim `[block * LEVEL2_SPAN + offset, + size)` exactly (skipping
    /// the frontier past it when it lies above).
    Claim { block: u64, offset: u64, size: u64 },
    /// Take under first-, best- or worst-fit.
    Take { size: u64, policy: usize },
    /// Release the `pick`-th claimed extent.
    Release { pick: usize },
    /// Claim the lowest of the largest gaps whole, then ask first-fit for
    /// its length: the claimed gap's block keeps a stale bound that the
    /// descent must tighten on its way to the next fitting gap.
    ConsumeLargest,
}

fn wide_op_strategy() -> impl Strategy<Value = WideOp> {
    let size = || prop_oneof![1u64..48, 1u64..48, 200u64..3_000];
    prop_oneof![
        (0u64..4, 0u64..LEVEL2_SPAN, 1u64..600).prop_map(|(block, offset, size)| WideOp::Claim {
            block,
            offset,
            size
        }),
        (0u64..4, 0u64..LEVEL2_SPAN, 1u64..600).prop_map(|(block, offset, size)| WideOp::Claim {
            block,
            offset,
            size
        }),
        (size(), 0usize..3).prop_map(|(size, policy)| WideOp::Take { size, policy }),
        (size(), 0usize..3).prop_map(|(size, policy)| WideOp::Take { size, policy }),
        (0usize..64).prop_map(|pick| WideOp::Release { pick }),
        (0usize..64).prop_map(|pick| WideOp::Release { pick }),
        (0u8..1).prop_map(|_| WideOp::ConsumeLargest),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Lockstep across level-2 blocks: gaps live in at least three
    // top-level blocks of the length bounds, so the first-fit descent
    // really skips and tightens blocks at every level. Every address and
    // carved gap matches the seed oracle.
    #[test]
    fn free_space_matches_the_oracle_across_summary_blocks(
        ops in proptest::collection::vec(wide_op_strategy(), 1..150),
    ) {
        let mut fs = FreeSpace::new();
        let mut oracle = ReferenceFreeSpace::new();
        let mut taken: Vec<(Addr, Size)> = Vec::new();
        // Three islands in three different level-2 blocks.
        for block in [1u64, 2, 3] {
            let at = Addr::new(block * LEVEL2_SPAN + 1_000);
            prop_assert!(fs.take_exact(at, Size::new(10)));
            prop_assert!(oracle.take_exact(at, Size::new(10)));
            taken.push((at, Size::new(10)));
        }
        let blocks: std::collections::BTreeSet<u64> =
            fs.gaps().map(|g| g.start().get() / LEVEL2_SPAN).collect();
        prop_assert_eq!(blocks.len(), 3);
        for op in ops {
            match op {
                WideOp::Claim { block, offset, size } => {
                    let (start, size) = (Addr::new(block * LEVEL2_SPAN + offset), Size::new(size));
                    let got = fs.take_exact(start, size);
                    prop_assert_eq!(got, oracle.take_exact(start, size), "claim {} +{}", start, size);
                    if got {
                        taken.push((start, size));
                    }
                }
                WideOp::Take { size, policy } => {
                    let (size, policy) = (Size::new(size), FitPolicy::ALL[policy]);
                    let got = fs.take(size, policy);
                    prop_assert_eq!(got, oracle.take(size, policy), "take {} {:?}", size, policy);
                    taken.push((got.0, size));
                }
                WideOp::Release { pick } => {
                    if taken.is_empty() {
                        continue;
                    }
                    let (addr, size) = taken.remove(pick % taken.len());
                    fs.release(addr, size);
                    oracle.release(addr, size);
                }
                WideOp::ConsumeLargest => {
                    let largest = fs.largest_gap();
                    let Some(gap) = fs.gaps().find(|g| g.size() == largest) else {
                        continue;
                    };
                    prop_assert!(fs.take_exact(gap.start(), gap.size()));
                    prop_assert!(oracle.take_exact(gap.start(), gap.size()));
                    taken.push((gap.start(), gap.size()));
                    let got = fs.take(largest, FitPolicy::FirstFit);
                    prop_assert_eq!(got, oracle.take(largest, FitPolicy::FirstFit), "ask {}", largest);
                    taken.push((got.0, largest));
                }
            }
            assert_same_state(&fs, &oracle)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Manager-level lockstep: every manager with a seed oracle produces
    // the same report, event stream and index state for arbitrary
    // well-formed workloads.
    #[test]
    fn managers_match_their_seeds_on_random_scripts(
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec(1u64..64, 1..12),
                proptest::collection::vec(0usize..32, 0..8),
            ),
            1..10,
        ),
    ) {
        managers_match_their_seeds(&random_script(&rounds, 1 << 12), 6);
    }
}

/// A denser free-space cross-check than the proptest: an identical mixed
/// script with sizes straddling the exact-class limit, comparing every
/// observable after every operation.
#[test]
fn free_space_matches_the_oracle_on_a_long_mixed_script() {
    let mut fs = FreeSpace::new();
    let mut oracle = ReferenceFreeSpace::new();
    let mut live: Vec<(Addr, Size)> = Vec::new();
    let mut cursor = Addr::ZERO;
    let mut oracle_cursor = Addr::ZERO;
    for i in 0..3000u64 {
        let roll = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        let size = Size::new(1 + roll % 300);
        match roll % 7 {
            0..=3 => {
                let policy = FitPolicy::ALL[(roll % 4) as usize];
                let got = fs.take(size, policy);
                assert_eq!(got, oracle.take(size, policy), "step {i}");
                live.push((got.0, size));
            }
            4 => {
                let got = fs.take_next_fit(size, &mut cursor);
                let want = oracle.take_next_fit(size, &mut oracle_cursor);
                assert_eq!(got, want, "step {i}");
                assert_eq!(cursor, oracle_cursor);
                live.push((got.0, size));
            }
            5 => {
                let got = fs.take_aligned(size, 1 << (roll % 6));
                assert_eq!(got, oracle.take_aligned(size, 1 << (roll % 6)), "step {i}");
                live.push((got, size));
            }
            _ => {
                if !live.is_empty() {
                    let (a, s) = live.remove((roll as usize * 31) % live.len());
                    fs.release(a, s);
                    oracle.release(a, s);
                }
            }
        }
        assert_eq!(fs.frontier(), oracle.frontier(), "step {i}");
        assert_eq!(fs.gap_count(), oracle.gap_count(), "step {i}");
        assert_eq!(fs.gap_words(), oracle.gap_words(), "step {i}");
        assert_eq!(fs.largest_gap(), oracle.largest_gap(), "step {i}");
        if i % 64 == 0 {
            let gaps: Vec<Extent> = fs.gaps().collect();
            let oracle_gaps: Vec<Extent> = oracle.gaps().collect();
            assert_eq!(gaps, oracle_gaps, "step {i}");
            fs.check_invariants().unwrap();
        }
    }
}

/// Equal-length gaps, below and above the exact-class limit: every fit
/// policy must break the tie towards the lowest address, like the oracle.
#[test]
fn fit_ties_break_towards_the_lowest_address() {
    for len in [10u64, 300] {
        for policy in FitPolicy::ALL {
            let mut fs = FreeSpace::new();
            let mut oracle = ReferenceFreeSpace::new();
            // Three equal blocks, each followed by a one-word spacer; the
            // first and last blocks are freed, leaving two equal gaps.
            let size = Size::new(len);
            let one = Size::new(1);
            let mut starts = Vec::new();
            for _ in 0..3 {
                let a = fs.take(size, FitPolicy::FirstFit);
                assert_eq!(a, oracle.take(size, FitPolicy::FirstFit));
                starts.push(a.0);
                let spacer = fs.take(one, FitPolicy::FirstFit);
                assert_eq!(spacer, oracle.take(one, FitPolicy::FirstFit));
            }
            for &a in [starts[0], starts[2]].iter() {
                fs.release(a, size);
                oracle.release(a, size);
            }
            let ask = Size::new(len - 3);
            let got = fs.take(ask, policy);
            assert_eq!(got, oracle.take(ask, policy), "{len} {policy:?}");
            assert_eq!(got.0, starts[0], "{len} {policy:?}");
        }
    }
}

/// Split/merge churn for the buddy allocator, reuse churn for the
/// segregated manager, wide-size churn for TLSF's buckets, and eviction
/// pressure for the page pool.
#[test]
fn managers_match_their_seeds_under_churn() {
    managers_match_their_seeds(&churn(16, 12, 2, |r, s| (s * 5 * (r + 1)) % 60 + 1), 8);
    managers_match_their_seeds(&churn(12, 10, 2, |r, s| (s * 7 * (r + 1)) % 100 + 1), 10);
    managers_match_their_seeds(&churn(20, 24, 3, |r, s| (s * 13 * (r + 1)) % 700 + 1), 10);
    managers_match_their_seeds(&churn(20, 8, 4, |r, s| (s * 3 * (r + 1)) % 16 + 1), 8);
}

/// A request above the largest class fails identically on both sides.
#[test]
fn managers_match_their_seeds_on_oversized_requests() {
    let program = ScriptedProgram::new(Size::new(4096)).round([], [8, 65]);
    managers_match_their_seeds(&program, 6);
}
