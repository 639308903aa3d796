//! Lockstep referee equivalence: random occupy/release/relocate/query
//! sequences are driven through the bitmap [`SpaceMap`] and the seed
//! `BTreeMap` oracle simultaneously, asserting that the full state and
//! every query answer — including every error — are identical at every
//! step. This is the ground-truth argument for the bitmap referee: any
//! divergence, however small, fails here before it can bias a simulation
//! result.

mod oracle;

use proptest::prelude::*;

use pcb_heap::{Addr, Extent, Heap, HeapError, ObjectId, ObjectRecord, Size, SpaceMap};

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
    // referee must answer every call, error and query like the oracle,
    // and the heap's object records (read through the shared slot table)
    // must match the oracle's intervals after every step. Relocations
    // fail both ways — target overlap and exhausted budget — and roll
    // back; a re-placement of a live id must fail and change nothing.
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
            if len % 5 == 1 && !live.is_empty() {
                let again = live[(dest as usize) % live.len()];
                let got = heap.place(again, Addr::new(dest), Size::new(1));
                prop_assert_eq!(got, Err(HeapError::AlreadyLive(again)));
            }
            if relocate && !live.is_empty() {
                let target = live[(start as usize) % live.len()];
                let rec = heap.record(target).expect("live");
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
            assert_same_records(&heap, &oracle, &live)?;
            prop_assert_eq!(heap.live_words(), oracle.occupied_words());
            for probe in [start, dest, start + len] {
                prop_assert_eq!(
                    heap.space().object_at(Addr::new(probe)),
                    oracle.object_at(Addr::new(probe))
                );
            }
        }
    }
}

/// The heap's object view against the oracle: `record(id)` of every live
/// id is the oracle's interval for that owner, the live count is the
/// referee's interval count, and `live_objects` lists exactly the
/// oracle's intervals in strictly ascending address order.
fn assert_same_records(
    heap: &Heap,
    oracle: &ReferenceSpace,
    live: &[ObjectId],
) -> Result<(), TestCaseError> {
    let intervals: Vec<(Extent, ObjectId)> = oracle.iter().collect();
    prop_assert_eq!(heap.live_count(), heap.space().len());
    prop_assert_eq!(heap.live_count(), intervals.len());
    prop_assert_eq!(live.len(), intervals.len());
    for &id in live {
        let want = intervals
            .iter()
            .find(|&&(_, owner)| owner == id)
            .map(|&(e, owner)| ObjectRecord::new(owner, e.start(), e.size()));
        prop_assert!(want.is_some(), "{} is live but the oracle lacks it", id);
        prop_assert_eq!(heap.record(id), want, "record {} diverged", id);
    }
    let objs: Vec<_> = heap.live_objects().map(|r| (r.extent(), r.id())).collect();
    prop_assert!(
        objs.windows(2).all(|w| w[0].0.start() < w[1].0.start()),
        "live_objects is not strictly ascending"
    );
    prop_assert_eq!(objs, intervals);
    Ok(())
}

/// Both relocation failures roll back through the shared slot table: the
/// object keeps its record, the referee its interval, and the slot
/// gauges read what they did before the failed move.
#[test]
fn failed_relocations_roll_back_records_and_slots() {
    let mut heap = Heap::new(2);
    let mut oracle = ReferenceSpace::default();
    let place = |heap: &mut Heap, oracle: &mut ReferenceSpace, start, len| {
        let id = heap.fresh_id();
        let extent = Extent::from_raw(start, len);
        heap.place(id, extent.start(), extent.size()).unwrap();
        oracle.occupy(id, extent).unwrap();
        id
    };
    let a = place(&mut heap, &mut oracle, 0, 4);
    let b = place(&mut heap, &mut oracle, 10, 4);
    let c = place(&mut heap, &mut oracle, 20, 64);
    let live = [a, b, c];
    let check = |heap: &Heap, oracle: &ReferenceSpace| {
        assert_same_state(heap.space(), oracle).unwrap();
        assert_same_records(heap, oracle, &live).unwrap();
    };
    check(&heap, &oracle);
    let slots = |heap: &Heap| {
        let c = heap.space().counters();
        (c.slot_high_water, c.slots_reused)
    };
    let (high_water, reused) = slots(&heap);

    // Target overlap: `a` onto `b`'s footprint. The rollback takes the
    // released slot back off the free list: one reuse, no new slot.
    let err = heap.relocate(a, Addr::new(12)).unwrap_err();
    assert!(matches!(err, HeapError::Space(_)));
    check(&heap, &oracle);
    assert_eq!(slots(&heap), (high_water, reused + 1));

    // Exhausted budget: allowance 72 / 2 = 36 words < 64; no slot moves.
    let err = heap.relocate(c, Addr::new(200)).unwrap_err();
    assert!(matches!(err, HeapError::BudgetExceeded { .. }));
    check(&heap, &oracle);
    assert_eq!(slots(&heap), (high_water, reused + 1));

    // A successful slide still lands where the oracle says.
    heap.relocate(b, Addr::new(4)).unwrap();
    oracle.release(Addr::new(10)).unwrap();
    oracle.occupy(b, Extent::from_raw(4, 4)).unwrap();
    check(&heap, &oracle);
}
