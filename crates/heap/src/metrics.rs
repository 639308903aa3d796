//! Fragmentation and utilization metrics derived from executions.

use crate::heap::Heap;

/// A snapshot of heap-shape statistics at a point in time.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentationSnapshot {
    /// Live words.
    pub live_words: u64,
    /// Words in interior free gaps (holes between live objects).
    pub hole_words: u64,
    /// Number of interior holes.
    pub hole_count: usize,
    /// Largest interior hole in words.
    pub largest_hole: u64,
    /// Extent of the currently used span (lowest to highest live word).
    pub current_span: u64,
    /// `1 - live/span`: fraction of the current span that is wasted.
    pub external_fragmentation: f64,
}

impl pcb_json::ToJson for FragmentationSnapshot {
    fn to_json(&self) -> pcb_json::Json {
        use pcb_json::Json;
        Json::object([
            ("live_words", Json::from(self.live_words)),
            ("hole_words", Json::from(self.hole_words)),
            ("hole_count", Json::from(self.hole_count)),
            ("largest_hole", Json::from(self.largest_hole)),
            ("current_span", Json::from(self.current_span)),
            (
                "external_fragmentation",
                Json::from(self.external_fragmentation),
            ),
        ])
    }
}

impl FragmentationSnapshot {
    /// Computes the snapshot for the heap's current state.
    pub fn capture(heap: &Heap) -> Self {
        let space = heap.space();
        let mut hole_words = 0u64;
        let mut hole_count = 0usize;
        let mut largest = 0u64;
        for gap in space.gaps() {
            hole_words += gap.size().get();
            hole_count += 1;
            largest = largest.max(gap.size().get());
        }
        let span = match space.lowest() {
            Some(lo) => space.frontier().offset_from(lo).get(),
            None => 0,
        };
        let live = heap.live_words().get();
        FragmentationSnapshot {
            live_words: live,
            hole_words,
            hole_count,
            largest_hole: largest,
            current_span: span,
            external_fragmentation: if span == 0 {
                0.0
            } else {
                1.0 - live as f64 / span as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Addr, Size};

    #[test]
    fn snapshot_measures_holes() {
        let mut h = Heap::non_moving();
        let a = h.fresh_id();
        let b = h.fresh_id();
        let c = h.fresh_id();
        h.place(a, Addr::new(0), Size::new(4)).unwrap();
        h.place(b, Addr::new(8), Size::new(4)).unwrap();
        h.place(c, Addr::new(20), Size::new(4)).unwrap();
        let s = FragmentationSnapshot::capture(&h);
        assert_eq!(s.live_words, 12);
        assert_eq!(s.hole_count, 2);
        assert_eq!(s.hole_words, 4 + 8);
        assert_eq!(s.largest_hole, 8);
        assert_eq!(s.current_span, 24);
        assert!((s.external_fragmentation - 0.5).abs() < 1e-12);
    }

    #[test]
    fn snapshot_of_empty_heap() {
        let h = Heap::non_moving();
        let s = FragmentationSnapshot::capture(&h);
        assert_eq!(s.current_span, 0);
        assert_eq!(s.external_fragmentation, 0.0);
    }
}
