//! The seed `BTreeMap` interval map, kept verbatim (apart from renaming)
//! as the oracle for `substrate_equivalence`.
//!
//! Every query is answered from an ordered map of disjoint intervals, the
//! most obviously-correct formulation of the occupancy ground truth. The
//! runtime bitmap [`pcb_heap::SpaceMap`] must agree with this
//! implementation on every query and every error.

use std::collections::BTreeMap;

use pcb_heap::{Addr, Extent, ObjectId, Size, SpaceError};

/// Occupancy interval map keyed by interval start address.
///
/// Invariant: stored intervals are non-empty and pairwise disjoint.
#[derive(Debug, Default, Clone)]
pub struct ReferenceSpace {
    /// start -> (extent, owner)
    intervals: BTreeMap<u64, (Extent, ObjectId)>,
    occupied_words: Size,
    /// Cached `max end` over all intervals; the engine reads the frontier
    /// on every frontier placement, so it must not cost a tree walk.
    frontier: Addr,
}

impl ReferenceSpace {
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    pub fn occupied_words(&self) -> Size {
        self.occupied_words
    }

    pub fn is_free(&self, extent: Extent) -> bool {
        if extent.size().is_zero() {
            return true;
        }
        self.first_overlap(extent).is_none()
    }

    pub fn first_overlap(&self, extent: Extent) -> Option<(Extent, ObjectId)> {
        // A stored interval [s, e) overlaps [x, y) iff s < y and e > x.
        // Candidates: the interval starting at or before `x` (it may stretch
        // over x), plus intervals starting inside [x, y).
        if let Some((_, &(prev, id))) = self.intervals.range(..=extent.start().get()).next_back() {
            if prev.overlaps(extent) {
                return Some((prev, id));
            }
        }
        self.intervals
            .range(extent.start().get()..extent.end().get())
            .next()
            .map(|(_, &(e, id))| (e, id))
            .filter(|(e, _)| e.overlaps(extent))
    }

    pub fn overlapping(&self, extent: Extent) -> impl Iterator<Item = (Extent, ObjectId)> + '_ {
        let prev = self
            .intervals
            .range(..=extent.start().get())
            .next_back()
            .map(|(_, &(e, id))| (e, id))
            .filter(|&(e, _)| e.overlaps(extent));
        // The predecessor may start exactly at `extent.start()`, in which
        // case the in-range scan would report it again.
        let prev_start = prev.map(|(e, _)| e.start());
        let inside = self
            .intervals
            .range(extent.start().get()..extent.end().get())
            .map(|(_, &(e, id))| (e, id))
            .filter(move |&(e, _)| e.overlaps(extent) && Some(e.start()) != prev_start);
        prev.into_iter().chain(inside)
    }

    pub fn occupy(&mut self, owner: ObjectId, extent: Extent) -> Result<(), SpaceError> {
        if extent.size().is_zero() {
            return Err(SpaceError::EmptyExtent { owner });
        }
        if let Some((existing, holder)) = self.first_overlap(extent) {
            return Err(SpaceError::Overlap {
                attempted: extent,
                existing,
                holder,
            });
        }
        self.intervals.insert(extent.start().get(), (extent, owner));
        self.occupied_words += extent.size();
        self.frontier = self.frontier.max(extent.end());
        Ok(())
    }

    pub fn release(&mut self, start: Addr) -> Result<(Extent, ObjectId), SpaceError> {
        match self.intervals.remove(&start.get()) {
            Some((extent, owner)) => {
                self.occupied_words = self.occupied_words - extent.size();
                if extent.end() == self.frontier {
                    // Intervals are disjoint, so the highest start also has
                    // the highest end.
                    self.frontier = self
                        .intervals
                        .iter()
                        .next_back()
                        .map(|(_, &(e, _))| e.end())
                        .unwrap_or(Addr::ZERO);
                }
                Ok((extent, owner))
            }
            None => Err(SpaceError::NotOccupied { addr: start }),
        }
    }

    pub fn object_at(&self, addr: Addr) -> Option<ObjectId> {
        self.intervals
            .range(..=addr.get())
            .next_back()
            .and_then(|(_, &(e, id))| e.contains(addr).then_some(id))
    }

    pub fn frontier(&self) -> Addr {
        self.frontier
    }

    pub fn lowest(&self) -> Option<Addr> {
        self.intervals.iter().next().map(|(_, &(e, _))| e.start())
    }

    pub fn iter(&self) -> impl Iterator<Item = (Extent, ObjectId)> + '_ {
        self.intervals.values().copied()
    }

    pub fn gaps(&self) -> impl Iterator<Item = Extent> + '_ {
        let ends = self.intervals.values().map(|&(e, _)| e.end());
        let starts = self.intervals.values().skip(1).map(|&(e, _)| e.start());
        ends.zip(starts)
            .filter(|&(end, next_start)| end < next_start)
            .map(|(end, next_start)| Extent::new(end, next_start.offset_from(end)))
    }

    pub fn occupied_words_in(&self, window: Extent) -> Size {
        self.overlapping(window)
            .map(|(e, _)| e.overlap_words(window))
            .sum()
    }
}
