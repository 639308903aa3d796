//! Integration tests for the fragmentation metrics and the heat-map
//! renderer, beyond the doc-tests: `FragmentationSnapshot` invariants
//! under arbitrary place/free sequences, and heat-map rendering checked
//! against hand-built heaps.

use proptest::prelude::*;

use pcb_heap::{heat_map, heat_map_rows, Addr, FragmentationSnapshot, Heap, Size};

/// Builds a heap by applying `(start, len)` placements (skipping ones
/// that would overlap) and then freeing every `keep`-th object.
fn build_heap(extents: &[(u64, u64)], free_stride: usize) -> Heap {
    let mut heap = Heap::non_moving();
    let mut placed = Vec::new();
    for &(start, len) in extents {
        let id = heap.fresh_id();
        if heap.place(id, Addr::new(start), Size::new(len)).is_ok() {
            placed.push(id);
        }
    }
    if free_stride > 0 {
        for id in placed.iter().step_by(free_stride) {
            heap.free(*id).expect("placed objects are live");
        }
    }
    heap
}

#[derive(Debug, Clone)]
struct Extents(Vec<(u64, u64)>);

fn extents_strategy() -> impl Strategy<Value = Extents> {
    proptest::collection::vec((0u64..500, 1u64..32), 0..40).prop_map(Extents)
}

proptest! {
    #[test]
    fn snapshot_invariants_hold_for_arbitrary_heaps(
        extents in extents_strategy(),
        free_stride in 0usize..4,
    ) {
        let heap = build_heap(&extents.0, free_stride);
        let snap = FragmentationSnapshot::capture(&heap);

        // Live and hole words partition (at most) the current span: holes
        // are interior free gaps, so they can never exceed span - live.
        prop_assert!(snap.live_words <= snap.current_span);
        prop_assert!(
            snap.hole_words <= snap.current_span - snap.live_words,
            "holes {} exceed span {} - live {}",
            snap.hole_words, snap.current_span, snap.live_words
        );

        // External fragmentation is a fraction of the span.
        prop_assert!((0.0..=1.0).contains(&snap.external_fragmentation));

        // Hole aggregates are mutually consistent.
        prop_assert!(snap.largest_hole <= snap.hole_words);
        prop_assert_eq!(snap.hole_count == 0, snap.hole_words == 0);
        if snap.hole_count > 0 {
            prop_assert!(snap.largest_hole >= 1);
            prop_assert!(snap.hole_words as usize >= snap.hole_count);
        }

        // Live words in the snapshot match the heap's own accounting.
        prop_assert_eq!(snap.live_words, heap.live_words().get());
    }

    #[test]
    fn heat_map_shape_is_stable_for_arbitrary_heaps(
        extents in extents_strategy(),
        width in 1usize..80,
        rows in 1usize..5,
    ) {
        let heap = build_heap(&extents.0, 2);
        let map = heat_map_rows(&heap, width, rows);
        if heap.space().frontier().get() == 0 {
            prop_assert_eq!(map, "");
        } else {
            let lines: Vec<&str> = map.lines().collect();
            prop_assert_eq!(lines.len(), rows);
            for line in lines {
                prop_assert_eq!(line.chars().count(), width + 2, "cells plus frame");
                prop_assert!(line.starts_with('|') && line.ends_with('|'));
                prop_assert!(
                    line[1..line.len() - 1]
                        .chars()
                        .all(|g| "_.:+#".contains(g)),
                    "unexpected glyph in {line:?}"
                );
            }
        }
    }
}

#[test]
fn snapshot_tracks_span_exactly_on_a_hand_built_heap() {
    // [0,8) live, [8,16) hole, [16,20) live, [20,32) hole, [32,34) live.
    let mut heap = Heap::non_moving();
    for (start, len) in [(0u64, 8u64), (16, 4), (32, 2)] {
        let id = heap.fresh_id();
        heap.place(id, Addr::new(start), Size::new(len)).unwrap();
    }
    let snap = FragmentationSnapshot::capture(&heap);
    assert_eq!(snap.live_words, 14);
    assert_eq!(snap.current_span, 34);
    assert_eq!(snap.hole_count, 2);
    assert_eq!(snap.hole_words, 8 + 12);
    assert_eq!(snap.largest_hole, 12);
    // span - live = 20 = hole_words here: nothing leaks below the lowest
    // live word on this heap.
    assert_eq!(snap.hole_words, snap.current_span - snap.live_words);
    assert!((snap.external_fragmentation - 20.0 / 34.0).abs() < 1e-12);
}

#[test]
fn heat_map_grades_every_occupancy_band() {
    // Frontier at 64 with 4 cells of 16 words each, tuned per band:
    // full, high, low, empty-then-full tail to pin the frontier.
    let mut heap = Heap::non_moving();
    for (start, len) in [
        (0u64, 16u64), // cell 0: 16/16 -> '#'
        (16, 10),      // cell 1: 10/16 -> '+' (>= 0.5, < 1)
        (32, 3),       // cell 2: 3/16  -> '.' (< 0.25, > 0)
        (63, 1),       // cell 3: 1/16  -> '.' and pins the frontier at 64
    ] {
        let id = heap.fresh_id();
        heap.place(id, Addr::new(start), Size::new(len)).unwrap();
    }
    assert_eq!(heat_map(&heap, 4), "|#+..|");
}

#[test]
fn heat_map_multirow_splits_the_same_span() {
    let mut heap = Heap::non_moving();
    for (start, len) in [(0u64, 8u64), (56, 8)] {
        let id = heap.fresh_id();
        heap.place(id, Addr::new(start), Size::new(len)).unwrap();
    }
    let one_row = heat_map(&heap, 8);
    let two_rows = heat_map_rows(&heap, 4, 2);
    assert_eq!(one_row, "|#______#|");
    assert_eq!(two_rows, "|#___|\n|___#|");
    let cells = |map: &str| {
        map.chars()
            .filter(|c| !"|\n".contains(*c))
            .collect::<String>()
    };
    assert_eq!(
        cells(&one_row),
        cells(&two_rows),
        "row split never changes cell contents"
    );
}

#[test]
fn heat_map_shows_holes_opened_by_frees() {
    let mut heap = Heap::non_moving();
    let mut ids = Vec::new();
    for i in 0..8u64 {
        let id = heap.fresh_id();
        heap.place(id, Addr::new(i * 8), Size::new(8)).unwrap();
        ids.push(id);
    }
    assert_eq!(heat_map(&heap, 8), "|########|");
    // Free the interior odd chunks (1, 3, 5). The tail chunk (7) stays
    // live so the frontier is pinned at 64; freeing it would retreat the
    // frontier and rescale every heat-map cell.
    for id in [ids[1], ids[3], ids[5]] {
        heap.free(id).unwrap();
    }
    let snap = FragmentationSnapshot::capture(&heap);
    assert_eq!(snap.hole_count, 3);
    assert_eq!(snap.hole_words, 24);
    assert_eq!(heat_map(&heap, 8), "|#_#_#_##|");
}
