//! Lockstep referee equivalence: random occupy/release/relocate/query
//! sequences are driven through the bitmap [`SpaceMap`] and the seed
//! `BTreeMap` oracle simultaneously, asserting that the full state and
//! every query answer — including every error — are identical at every
//! step. This is the ground-truth argument for the bitmap referee: any
//! divergence, however small, fails here before it can bias a simulation
//! result.

mod oracle;

use proptest::prelude::*;

use pcb_heap::{Addr, Extent, Heap, HeapError, ObjectId, Size, SpaceMap};

use oracle::ReferenceSpace;

#[derive(Debug, Clone)]
enum Op {
    /// Attempt an occupation (may overlap: both sides must agree on the
    /// exact error, holder included).
    Occupy { start: u64, len: u64 },
    /// Release the `pick`-th live interval.
    Release { pick: usize },
    /// Release an arbitrary address (error-path probing; occasionally
    /// lands on a live start, which both sides must honour identically).
    ReleaseAt { addr: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored `prop_oneof!` picks arms uniformly, so weighting is done
    // by repeating arms. Mostly-small geometry keeps collisions frequent;
    // the large start/len arms cross word and summary-block boundaries, and
    // the zero-size lower bound exercises the `EmptyExtent` error path.
    let small = || (0u64..500, 0u64..40).prop_map(|(start, len)| Op::Occupy { start, len });
    let large = || (0u64..12_000, 1u64..300).prop_map(|(start, len)| Op::Occupy { start, len });
    let release = || (0usize..64).prop_map(|pick| Op::Release { pick });
    prop_oneof![
        small(),
        small(),
        small(),
        small(),
        large(),
        large(),
        release(),
        release(),
        release(),
        (0u64..13_000).prop_map(|addr| Op::ReleaseAt { addr }),
    ]
}

/// The full-state comparison run after every operation: aggregates,
/// iteration order and gap structure.
fn assert_same_state(bit: &SpaceMap, oracle: &ReferenceSpace) -> Result<(), TestCaseError> {
    prop_assert_eq!(bit.len(), oracle.len());
    prop_assert_eq!(bit.is_empty(), oracle.is_empty());
    prop_assert_eq!(bit.occupied_words(), oracle.occupied_words());
    prop_assert_eq!(bit.frontier(), oracle.frontier());
    prop_assert_eq!(bit.lowest(), oracle.lowest());
    let bit_iter: Vec<_> = bit.iter().collect();
    let oracle_iter: Vec<_> = oracle.iter().collect();
    prop_assert_eq!(bit_iter, oracle_iter);
    let bit_gaps: Vec<_> = bit.gaps().collect();
    let oracle_gaps: Vec<_> = oracle.gaps().collect();
    prop_assert_eq!(bit_gaps, oracle_gaps);
    Ok(())
}

// Every mutation result, every aggregate, and every window query must be
// identical between the referee and the oracle after every single
// operation.
proptest! {
    #[test]
    fn space_maps_answer_identically(
        ops in proptest::collection::vec(op_strategy(), 1..150),
        probes in proptest::collection::vec((0u64..13_000, 0u64..600), 1..10),
    ) {
        let (mut bit, mut oracle) = (SpaceMap::new(), ReferenceSpace::default());
        let mut live_starts: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
        for op in ops {
            match op {
                Op::Occupy { start, len } => {
                    let id = ObjectId::from_raw(next_id);
                    next_id += 1;
                    let ext = Extent::from_raw(start, len);
                    let got = bit.occupy(id, ext);
                    let want = oracle.occupy(id, ext);
                    prop_assert_eq!(&got, &want, "occupy {} diverged", ext);
                    if got.is_ok() {
                        live_starts.push(start);
                    }
                }
                Op::Release { pick } => {
                    if live_starts.is_empty() {
                        continue;
                    }
                    let start = live_starts.remove(pick % live_starts.len());
                    let got = bit.release(Addr::new(start));
                    let want = oracle.release(Addr::new(start));
                    prop_assert_eq!(&got, &want, "release @{} diverged", start);
                    prop_assert!(got.is_ok());
                }
                Op::ReleaseAt { addr } => {
                    let got = bit.release(Addr::new(addr));
                    let want = oracle.release(Addr::new(addr));
                    prop_assert_eq!(&got, &want, "release @{} diverged", addr);
                    if got.is_ok() {
                        live_starts.retain(|&s| s != addr);
                    }
                }
            }
            assert_same_state(&bit, &oracle)?;
            // Window queries, including zero-sized windows.
            for &(start, len) in &probes {
                let w = Extent::from_raw(start, len);
                prop_assert_eq!(bit.is_free(w), oracle.is_free(w), "is_free {}", w);
                prop_assert_eq!(
                    bit.first_overlap(w),
                    oracle.first_overlap(w),
                    "first_overlap {}",
                    w
                );
                prop_assert_eq!(
                    bit.occupied_words_in(w),
                    oracle.occupied_words_in(w),
                    "occupied_words_in {}",
                    w
                );
                let bit_over: Vec<_> = bit.overlapping(w).collect();
                let oracle_over: Vec<_> = oracle.overlapping(w).collect();
                prop_assert_eq!(bit_over, oracle_over, "overlapping {}", w);
                prop_assert_eq!(
                    bit.object_at(Addr::new(start)),
                    oracle.object_at(Addr::new(start)),
                    "object_at {}",
                    start
                );
            }
        }
    }

    // Heap-level lockstep: place/free/relocate through a full `Heap`
    // while the oracle replays the occupy/release calls each one implies
    // (relocation is release-then-occupy with rollback); the heap's
    // referee must answer every call, error and query like the oracle.
    #[test]
    fn heap_referee_matches_the_oracle(
        ops in proptest::collection::vec(
            (0u64..2_000, 0u64..48, any::<bool>(), 0u64..2_000),
            1..120,
        ),
    ) {
        let mut heap = Heap::new(4);
        let mut oracle = ReferenceSpace::default();
        let mut live: Vec<ObjectId> = Vec::new();
        for (start, len, relocate, dest) in ops {
            let id = heap.fresh_id();
            let (at, size) = (Addr::new(start), Size::new(len));
            let got = heap.place(id, at, size);
            if len == 0 {
                prop_assert!(matches!(got, Err(HeapError::InvalidSize { .. })));
            } else {
                let want = oracle.occupy(id, Extent::new(at, size)).map_err(HeapError::from);
                prop_assert_eq!(&got, &want, "place {} diverged", id);
            }
            if got.is_ok() {
                live.push(id);
            }
            if relocate && !live.is_empty() {
                let target = live[(start as usize) % live.len()];
                let rec = *heap.record(target).expect("live");
                let got = heap.relocate(target, Addr::new(dest));
                match &got {
                    Ok(_) if rec.addr() == Addr::new(dest) => {}
                    Err(HeapError::BudgetExceeded { .. }) => {}
                    _ => {
                        oracle.release(rec.addr()).expect("oracle holds the object");
                        let moved = oracle.occupy(target, Extent::new(Addr::new(dest), rec.size()));
                        if let Err(e) = &moved {
                            prop_assert_eq!(&got, &Err(HeapError::Space(e.clone())));
                            oracle.occupy(target, rec.extent()).expect("rollback");
                        } else {
                            prop_assert_eq!(&got, &Ok(rec.addr()), "relocate {} diverged", target);
                        }
                    }
                }
            }
            if len % 3 == 0 && !live.is_empty() {
                let victim = live.remove((dest as usize) % live.len());
                let (addr, size) = heap.free(victim).expect("victim is live");
                let want = oracle.release(addr).expect("oracle holds the victim");
                prop_assert_eq!(want, (Extent::new(addr, size), victim));
            }
            assert_same_state(heap.space(), &oracle)?;
            prop_assert_eq!(heap.live_words(), oracle.occupied_words());
            prop_assert_eq!(heap.live_count(), oracle.len());
            for probe in [start, dest, start + len] {
                prop_assert_eq!(
                    heap.space().object_at(Addr::new(probe)),
                    oracle.object_at(Addr::new(probe))
                );
            }
        }
        // Final object records agree with the oracle's intervals.
        let mut objs: Vec<_> = heap
            .live_objects()
            .map(|r| (r.extent(), r.id()))
            .collect();
        objs.sort_by_key(|&(e, _)| e.start());
        let oracle_objs: Vec<_> = oracle.iter().collect();
        prop_assert_eq!(objs, oracle_objs);
    }
}
