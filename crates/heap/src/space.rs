//! Ground-truth occupancy map of the simulated address space.
//!
//! [`SpaceMap`] records which word intervals are occupied by which object.
//! It is the referee of the simulation: managers propose placements and
//! moves, and the map rejects anything that would double-book a word. It is
//! deliberately independent of any manager-side free-list so that a buggy
//! manager cannot corrupt the ground truth it is judged against.
//!
//! Production compacting allocators answer occupancy queries with per-span
//! bitmaps and word-level bit scans rather than ordered maps, and so does
//! this referee. Three parallel structures carry the ground truth:
//!
//! * `occ` — one bit per heap word, set iff the word is occupied;
//! * `starts` — one bit per heap word, set iff an interval *starts* there
//!   (exactly one start bit per stored interval);
//! * `sum` — a fixed-stride summary: bit `w` of `sum[w / 64]` is set iff
//!   `occ[w] != 0`, so one summary word rules over 64 occupancy words
//!   (4096 heap words) and long-range scans skip empty blocks wholesale.
//!
//! Object metadata lives in struct-of-arrays form: parallel vectors
//! `slot_start` / `slot_size` / `slot_owner` indexed by a dense slot id
//! (slots are recycled through a free list), plus a paged addr→slot
//! directory written only at interval start addresses. Directory entries are
//! never cleared on release: an entry is meaningful only while the matching
//! `starts` bit is set, so stale slots are unreachable by construction.
//! The slot table is also the [`Heap`](crate::Heap)'s only per-object
//! record: the heap keeps just an id→slot vector and reaches an object's
//! interval through its slot, with no directory lookup.
//!
//! Correctness leans on three small invariants, each local to one word
//! update in `occupy`/`release`:
//!
//! 1. the first set `occ` bit inside a window belongs to the overlapping
//!    interval with the minimal start (intervals are disjoint);
//! 2. the nearest set `starts` bit at or below an occupied address is the
//!    start of the interval containing it (the backward scan is bounded by
//!    the largest object ever stored);
//! 3. the first set `occ` bit at or after a stored interval's end is itself
//!    an interval start — which makes in-order interval iteration a pure
//!    forward scan.
//!
//! The seed `BTreeMap` interval map survives only as a test oracle
//! (`tests/oracle/mod.rs`); `tests/substrate_equivalence.rs` drives both
//! in lockstep and demands identical answers, errors included.

use std::cell::Cell;

use crate::addr::{Addr, Extent, Size};
use crate::error::SpaceError;
use crate::object::ObjectId;

/// Heap words per directory page.
const DIR_PAGE: usize = 1 << 12;

/// Sentinel for "no slot" in directory pages.
const NO_SLOT: u32 = u32::MAX;

/// Hard cap on mapped addresses (in words). The bitmap backs the whole
/// address range below the frontier with real memory, so a manager placing
/// at astronomically sparse addresses would OOM the simulator.
pub(crate) const MAX_ADDR: u64 = 1 << 32;

/// Occupancy map keyed by interval start address: an occupancy bitmap with
/// a 64-word-stride summary and SoA slot metadata.
///
/// Invariant: stored intervals are non-empty and pairwise disjoint.
///
/// ```
/// use pcb_heap::{Addr, Extent, ObjectId, Size, SpaceMap};
/// let mut map = SpaceMap::new();
/// let id = ObjectId::from_raw(0);
/// map.occupy(id, Extent::from_raw(0, 4))?;
/// assert!(map.is_free(Extent::from_raw(4, 4)));
/// assert!(!map.is_free(Extent::from_raw(3, 2)));
/// assert_eq!(map.object_at(Addr::new(2)), Some(id));
/// # Ok::<(), pcb_heap::SpaceError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct SpaceMap {
    /// Occupancy bits: bit `a % 64` of `occ[a / 64]`.
    occ: Vec<u64>,
    /// Interval-start bits, same geometry as `occ`.
    starts: Vec<u64>,
    /// Summary level: bit `w % 64` of `sum[w / 64]` set iff `occ[w] != 0`.
    /// Invariant: `sum.len() * 64 == occ.len()`.
    sum: Vec<u64>,
    /// addr -> slot directory; valid only where the `starts` bit is set.
    dir: Vec<Option<Box<[u32; DIR_PAGE]>>>,
    /// SoA slot metadata, indexed by dense slot id.
    slot_start: Vec<u64>,
    slot_size: Vec<u64>,
    slot_owner: Vec<ObjectId>,
    /// Recycled slot ids.
    free_slots: Vec<u32>,
    /// Stored interval count.
    live: usize,
    /// Total occupied words.
    occupied: u64,
    /// One past the highest occupied word (0 when empty); cached.
    frontier: u64,
    /// Telemetry: occupancy words examined by scans (queries take `&self`,
    /// hence the `Cell`s).
    words_scanned: Cell<u64>,
    /// Telemetry: 64-word blocks skipped via the summary level.
    summary_skips: Cell<u64>,
    /// Telemetry: slot allocations served from the free list.
    slots_reused: u64,
}

/// Telemetry counters of a [`SpaceMap`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceCounters {
    /// Occupancy words examined by bit scans (overlap checks, gap walks,
    /// windowed popcounts).
    pub words_scanned: u64,
    /// 64-word blocks skipped wholesale thanks to the summary level.
    pub summary_skips: u64,
    /// High-water mark of the SoA slot table (peak simultaneous intervals).
    pub slot_high_water: u64,
    /// Slot allocations served by recycling a freed slot.
    pub slots_reused: u64,
}

impl SpaceMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored intervals.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no interval is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total number of occupied words.
    #[inline]
    pub fn occupied_words(&self) -> Size {
        Size::new(self.occupied)
    }

    /// One past the highest occupied word (0 when empty). O(1): cached
    /// across [`occupy`](Self::occupy)/[`release`](Self::release).
    #[inline]
    pub fn frontier(&self) -> Addr {
        Addr::new(self.frontier)
    }

    /// The lowest occupied word, if any interval is stored.
    pub fn lowest(&self) -> Option<Addr> {
        self.first_set(0, self.frontier).map(Addr::new)
    }

    /// Telemetry counters: words scanned, summary skips, slot reuse.
    pub fn counters(&self) -> SpaceCounters {
        SpaceCounters {
            words_scanned: self.words_scanned.get(),
            summary_skips: self.summary_skips.get(),
            slot_high_water: self.slot_start.len() as u64,
            slots_reused: self.slots_reused,
        }
    }

    #[inline]
    fn note_scan(&self, words: u64, skips: u64) {
        self.words_scanned.set(self.words_scanned.get() + words);
        self.summary_skips.set(self.summary_skips.get() + skips);
    }

    /// Grows the bitmaps (and summary) to cover addresses below `end`.
    fn ensure_capacity(&mut self, end: u64) {
        assert!(
            end <= MAX_ADDR,
            "the space map caps the address space at 2^32 words \
             (placement ends at {end})"
        );
        let words = (end as usize).div_ceil(64);
        if words > self.occ.len() {
            // Power-of-two growth keeps `sum.len() * 64 == occ.len()` exact.
            let new_words = words.next_power_of_two().max(64);
            self.occ.resize(new_words, 0);
            self.starts.resize(new_words, 0);
            self.sum.resize(new_words / 64, 0);
        }
    }

    /// First set occupancy bit in `[lo, hi)`, if any. `hi` is clamped to
    /// the frontier (no bits exist above it).
    fn first_set(&self, lo: u64, hi: u64) -> Option<u64> {
        let hi = hi.min(self.frontier);
        if lo >= hi {
            return None;
        }
        let first_w = (lo / 64) as usize;
        let last_w = ((hi - 1) / 64) as usize;
        let mut scanned = 0u64;
        let mut skips = 0u64;
        let mut w = first_w;
        let found = loop {
            if w > last_w {
                break None;
            }
            // Summary probe: jump to the next word with any bits set.
            let sbits = self.sum[w / 64] & (!0u64 << (w % 64));
            if sbits == 0 {
                skips += 1;
                w = (w / 64 + 1) * 64;
                continue;
            }
            let nz = (w / 64) * 64 + sbits.trailing_zeros() as usize;
            if nz > w {
                skips += 1;
                w = nz;
                if w > last_w {
                    break None;
                }
            }
            let mut word = self.occ[w];
            scanned += 1;
            if w == first_w {
                word &= !0u64 << (lo % 64);
            }
            if w == last_w {
                let top = hi - (w as u64) * 64;
                if top < 64 {
                    word &= (1u64 << top) - 1;
                }
            }
            if word != 0 {
                break Some((w as u64) * 64 + word.trailing_zeros() as u64);
            }
            w += 1;
        };
        self.note_scan(scanned, skips);
        found
    }

    /// Highest set occupancy bit strictly below `hi`, if any.
    fn last_set_below(&self, hi: u64) -> Option<u64> {
        if hi == 0 {
            return None;
        }
        let top_w = ((hi - 1) / 64) as usize;
        let mut scanned = 0u64;
        let mut skips = 0u64;
        let mut w = top_w;
        let found = loop {
            // Downward summary probe: jump to the previous non-zero word.
            let sbits = self.sum[w / 64] & (!0u64 >> (63 - (w % 64) as u32));
            if sbits == 0 {
                let block = w / 64;
                if block == 0 {
                    break None;
                }
                skips += 1;
                w = block * 64 - 1;
                continue;
            }
            let nz = (w / 64) * 64 + (63 - sbits.leading_zeros() as usize);
            if nz < w {
                skips += 1;
            }
            w = nz;
            let mut word = self.occ[w];
            scanned += 1;
            if w == top_w {
                let top = hi - (w as u64) * 64;
                if top < 64 {
                    word &= (1u64 << top) - 1;
                }
            }
            if word != 0 {
                break Some((w as u64) * 64 + 63 - word.leading_zeros() as u64);
            }
            if w == 0 {
                break None;
            }
            w -= 1;
        };
        self.note_scan(scanned, skips);
        found
    }

    /// First *clear* bit at or after `from`, strictly below the frontier.
    fn first_clear_from(&self, from: u64) -> Option<u64> {
        if from >= self.frontier {
            return None;
        }
        let last_w = ((self.frontier - 1) / 64) as usize;
        let mut w = (from / 64) as usize;
        let mut scanned = 0u64;
        let mut free = !self.occ[w] & (!0u64 << (from % 64));
        let found = loop {
            scanned += 1;
            if free != 0 {
                let bit = (w as u64) * 64 + free.trailing_zeros() as u64;
                break (bit < self.frontier).then_some(bit);
            }
            if w == last_w {
                break None;
            }
            w += 1;
            free = !self.occ[w];
        };
        self.note_scan(scanned, 0);
        found
    }

    /// The interval containing the occupied address `bit`: backward scan of
    /// the `starts` bitmap (invariant 2), then a directory lookup.
    fn resolve(&self, bit: u64) -> (Extent, ObjectId) {
        let mut w = (bit / 64) as usize;
        let mut word = self.starts[w] & (!0u64 >> (63 - (bit % 64) as u32));
        let mut scanned = 1u64;
        let start = loop {
            if word != 0 {
                break (w as u64) * 64 + 63 - word.leading_zeros() as u64;
            }
            debug_assert!(w > 0, "occupied address {bit} has no interval start");
            w -= 1;
            word = self.starts[w];
            scanned += 1;
        };
        self.note_scan(scanned, 0);
        self.slot(self.slot_at(start))
    }

    /// Directory lookup; `start` must carry a set `starts` bit.
    #[inline]
    fn slot_at(&self, start: u64) -> u32 {
        let page = self.dir[start as usize / DIR_PAGE]
            .as_deref()
            .expect("interval start has a directory page");
        page[start as usize % DIR_PAGE]
    }

    /// Clears `occ` bits over `[lo, hi)`, maintaining the summary invariant.
    fn clear_range(&mut self, lo: u64, hi: u64) {
        let first_w = (lo / 64) as usize;
        let last_w = ((hi - 1) / 64) as usize;
        let head = !0u64 << (lo % 64);
        let top = hi - (last_w as u64) * 64;
        let tail = if top == 64 { !0 } else { (1u64 << top) - 1 };
        if first_w == last_w {
            self.occ[first_w] &= !(head & tail);
        } else {
            self.occ[first_w] &= !head;
            for w in first_w + 1..last_w {
                self.occ[w] = 0;
            }
            self.occ[last_w] &= !tail;
        }
        for w in first_w..=last_w {
            if self.occ[w] == 0 {
                self.sum[w / 64] &= !(1u64 << (w % 64));
            }
        }
    }

    /// Whether every word of `extent` is free.
    pub fn is_free(&self, extent: Extent) -> bool {
        if extent.size().is_zero() {
            return true;
        }
        self.first_set(extent.start().get(), extent.end().get())
            .is_none()
    }

    /// `Extent::overlaps` treats an empty window `[x, x)` as overlapping
    /// the interval that strictly contains `x` (`start < x < end`) — a
    /// plain bit scan over zero addresses sees nothing. Match it: `x`
    /// overlaps iff its occupancy bit is set and it is not itself an
    /// interval start.
    fn empty_window_container(&self, x: u64) -> Option<(Extent, ObjectId)> {
        if x >= self.frontier {
            return None;
        }
        let (w, mask) = ((x / 64) as usize, 1u64 << (x % 64));
        if self.occ[w] & mask == 0 || self.starts[w] & mask != 0 {
            return None;
        }
        Some(self.resolve(x))
    }

    /// The first stored interval overlapping `extent`, if any.
    pub fn first_overlap(&self, extent: Extent) -> Option<(Extent, ObjectId)> {
        if extent.size().is_zero() {
            return self.empty_window_container(extent.start().get());
        }
        self.first_set(extent.start().get(), extent.end().get())
            .map(|bit| self.resolve(bit))
    }

    /// All stored intervals overlapping `extent`, in address order.
    ///
    /// Lazy: the analysis calls this once per chunk-density probe, so no
    /// intermediate `Vec` is built.
    pub fn overlapping(&self, extent: Extent) -> impl Iterator<Item = (Extent, ObjectId)> + '_ {
        Overlapping {
            space: self,
            pending: if extent.size().is_zero() {
                self.empty_window_container(extent.start().get())
            } else {
                None
            },
            pos: extent.start().get(),
            hi: extent.end().get(),
        }
    }

    /// Iterates over stored intervals in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Extent, ObjectId)> + '_ {
        Overlapping {
            space: self,
            pending: None,
            pos: 0,
            hi: self.frontier,
        }
    }

    /// Iterates over the free gaps strictly between occupied intervals (it
    /// does not report the unbounded free space above the frontier).
    pub fn gaps(&self) -> impl Iterator<Item = Extent> + '_ {
        Gaps {
            space: self,
            pos: self.first_set(0, self.frontier).unwrap_or(u64::MAX),
        }
    }

    /// Marks `extent` as occupied by `owner`.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::Overlap`] if any word of `extent` is already
    /// occupied, and [`SpaceError::EmptyExtent`] for zero-sized extents.
    pub fn occupy(&mut self, owner: ObjectId, extent: Extent) -> Result<(), SpaceError> {
        self.occupy_slot(owner, extent).map(drop)
    }

    /// [`occupy`](Self::occupy), returning the slot that now holds the
    /// interval. Slots are recycled last-in first-out, so occupying right
    /// after [`release_slot`](Self::release_slot) gets the same slot back.
    pub(crate) fn occupy_slot(
        &mut self,
        owner: ObjectId,
        extent: Extent,
    ) -> Result<u32, SpaceError> {
        if extent.size().is_zero() {
            return Err(SpaceError::EmptyExtent { owner });
        }
        let lo = extent.start().get();
        let hi = extent.end().get();
        self.ensure_capacity(hi);
        // Check-then-set in one masked pass over the covered words: the
        // range is at most `n` words, so a direct scan beats `first_set`'s
        // summary probing, and reusing the masks avoids a second
        // mask-computing traversal for the set phase.
        let first_w = (lo / 64) as usize;
        let last_w = ((hi - 1) / 64) as usize;
        let head = !0u64 << (lo % 64);
        let top = hi - (last_w as u64) * 64;
        let tail = if top == 64 { !0 } else { (1u64 << top) - 1 };
        let conflict = if first_w == last_w {
            let bits = self.occ[first_w] & head & tail;
            (bits != 0).then_some((first_w, bits))
        } else {
            let head_bits = self.occ[first_w] & head;
            if head_bits != 0 {
                Some((first_w, head_bits))
            } else {
                (first_w + 1..last_w)
                    .find_map(|w| (self.occ[w] != 0).then(|| (w, self.occ[w])))
                    .or_else(|| {
                        let bits = self.occ[last_w] & tail;
                        (bits != 0).then_some((last_w, bits))
                    })
            }
        };
        self.note_scan((last_w - first_w + 1) as u64, 0);
        if let Some((w, bits)) = conflict {
            let bit = (w as u64) * 64 + bits.trailing_zeros() as u64;
            let (existing, holder) = self.resolve(bit);
            return Err(SpaceError::Overlap {
                attempted: extent,
                existing,
                holder,
            });
        }
        if first_w == last_w {
            self.occ[first_w] |= head & tail;
        } else {
            self.occ[first_w] |= head;
            for w in first_w + 1..last_w {
                self.occ[w] = !0;
            }
            self.occ[last_w] |= tail;
        }
        for w in first_w..=last_w {
            self.sum[w / 64] |= 1u64 << (w % 64);
        }
        self.starts[(lo / 64) as usize] |= 1u64 << (lo % 64);
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slots_reused += 1;
                s as usize
            }
            None => {
                assert!(
                    self.slot_start.len() < NO_SLOT as usize,
                    "slot table overflow"
                );
                self.slot_start.push(0);
                self.slot_size.push(0);
                self.slot_owner.push(owner);
                self.slot_start.len() - 1
            }
        };
        self.slot_start[slot] = lo;
        self.slot_size[slot] = hi - lo;
        self.slot_owner[slot] = owner;
        let page = lo as usize / DIR_PAGE;
        if page >= self.dir.len() {
            self.dir.resize(page + 1, None);
        }
        self.dir[page].get_or_insert_with(|| Box::new([NO_SLOT; DIR_PAGE]))
            [lo as usize % DIR_PAGE] = slot as u32;
        self.live += 1;
        self.occupied += hi - lo;
        if hi > self.frontier {
            self.frontier = hi;
        }
        Ok(slot as u32)
    }

    /// Releases the interval starting exactly at `start`.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::NotOccupied`] if no interval starts at `start`.
    pub fn release(&mut self, start: Addr) -> Result<(Extent, ObjectId), SpaceError> {
        let a = start.get();
        let w = (a / 64) as usize;
        if w >= self.starts.len() || self.starts[w] & (1u64 << (a % 64)) == 0 {
            return Err(SpaceError::NotOccupied { addr: start });
        }
        Ok(self.release_slot(self.slot_at(a)))
    }

    /// Releases the interval held by `slot`, which must be live (returned
    /// by [`occupy_slot`](Self::occupy_slot) and not released since).
    pub(crate) fn release_slot(&mut self, slot: u32) -> (Extent, ObjectId) {
        let (extent, owner) = self.slot(slot);
        let (a, size) = (extent.start().get(), extent.size().get());
        let w = (a / 64) as usize;
        debug_assert!(
            self.starts[w] & (1u64 << (a % 64)) != 0,
            "slot {slot} is not live"
        );
        self.starts[w] &= !(1u64 << (a % 64));
        self.clear_range(a, a + size);
        self.free_slots.push(slot);
        self.live -= 1;
        self.occupied -= size;
        if a + size == self.frontier {
            self.frontier = self.last_set_below(self.frontier).map_or(0, |b| b + 1);
        }
        (extent, owner)
    }

    /// The interval and owner in `slot` (meaningful only while it is live).
    #[inline]
    pub(crate) fn slot(&self, slot: u32) -> (Extent, ObjectId) {
        let s = slot as usize;
        (
            Extent::from_raw(self.slot_start[s], self.slot_size[s]),
            self.slot_owner[s],
        )
    }

    /// The object whose interval contains `addr`, if any.
    pub fn object_at(&self, addr: Addr) -> Option<ObjectId> {
        let a = addr.get();
        if a >= self.frontier {
            return None;
        }
        if self.occ[(a / 64) as usize] & (1u64 << (a % 64)) == 0 {
            return None;
        }
        Some(self.resolve(a).1)
    }

    /// Number of occupied words inside `window`: a masked popcount that
    /// skips empty blocks via the summary — the heatmap and chunk-density
    /// queries hit this per cell per round.
    pub fn occupied_words_in(&self, window: Extent) -> Size {
        let lo = window.start().get();
        let hi = window.end().get().min(self.frontier);
        if lo >= hi {
            return Size::ZERO;
        }
        let first_w = (lo / 64) as usize;
        let last_w = ((hi - 1) / 64) as usize;
        let mut count = 0u64;
        let mut scanned = 0u64;
        let mut skips = 0u64;
        let mut w = first_w;
        while w <= last_w {
            let sbits = self.sum[w / 64] & (!0u64 << (w % 64));
            if sbits == 0 {
                skips += 1;
                w = (w / 64 + 1) * 64;
                continue;
            }
            let nz = (w / 64) * 64 + sbits.trailing_zeros() as usize;
            if nz > w {
                skips += 1;
                w = nz;
                if w > last_w {
                    break;
                }
            }
            let mut word = self.occ[w];
            scanned += 1;
            if w == first_w {
                word &= !0u64 << (lo % 64);
            }
            if w == last_w {
                let top = hi - (w as u64) * 64;
                if top < 64 {
                    word &= (1u64 << top) - 1;
                }
            }
            count += u64::from(word.count_ones());
            w += 1;
        }
        self.note_scan(scanned, skips);
        Size::new(count)
    }
}

/// In-order iterator over stored intervals overlapping a window.
///
/// The first element is resolved with a backward `starts` scan (the
/// container may begin before the window); every later element begins at
/// the first set bit past its predecessor's end, which invariant 3
/// guarantees is itself a start — `resolve` then terminates on its first
/// probe.
struct Overlapping<'a> {
    space: &'a SpaceMap,
    /// The empty-window containment case, yielded before any bit scan.
    pending: Option<(Extent, ObjectId)>,
    pos: u64,
    hi: u64,
}

impl Iterator for Overlapping<'_> {
    type Item = (Extent, ObjectId);

    fn next(&mut self) -> Option<(Extent, ObjectId)> {
        if let Some(item) = self.pending.take() {
            return Some(item);
        }
        let bit = self.space.first_set(self.pos, self.hi)?;
        let (extent, owner) = self.space.resolve(bit);
        self.pos = extent.end().get();
        Some((extent, owner))
    }
}

/// Iterator over interior free gaps (holes strictly between intervals).
struct Gaps<'a> {
    space: &'a SpaceMap,
    /// Next address to examine; `u64::MAX` when the map is empty.
    pos: u64,
}

impl Iterator for Gaps<'_> {
    type Item = Extent;

    fn next(&mut self) -> Option<Extent> {
        let gap_lo = self.space.first_clear_from(self.pos)?;
        // The frontier word is occupied by definition, so a set bit exists.
        let gap_hi = self.space.first_set(gap_lo, self.space.frontier)?;
        self.pos = gap_hi;
        Some(Extent::from_raw(gap_lo, gap_hi - gap_lo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }

    #[test]
    fn occupy_then_release_round_trips() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(10, 5)).unwrap();
        assert_eq!(m.occupied_words(), Size::new(5));
        let (e, o) = m.release(Addr::new(10)).unwrap();
        assert_eq!(e, Extent::from_raw(10, 5));
        assert_eq!(o, id(1));
        assert!(m.is_empty());
        assert_eq!(m.occupied_words(), Size::ZERO);
    }

    #[test]
    fn overlap_is_rejected_in_all_positions() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(10, 10)).unwrap();
        // left overlap, right overlap, containing, contained, exact
        for ext in [
            Extent::from_raw(5, 6),
            Extent::from_raw(19, 5),
            Extent::from_raw(5, 30),
            Extent::from_raw(12, 3),
            Extent::from_raw(10, 10),
        ] {
            assert!(m.occupy(id(2), ext).is_err(), "expected overlap for {ext}");
        }
        // touching neighbours are fine
        m.occupy(id(3), Extent::from_raw(0, 10)).unwrap();
        m.occupy(id(4), Extent::from_raw(20, 10)).unwrap();
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn overlap_error_reports_the_holder() {
        let mut m = SpaceMap::new();
        m.occupy(id(7), Extent::from_raw(100, 30)).unwrap();
        let err = m.occupy(id(8), Extent::from_raw(120, 50)).unwrap_err();
        assert_eq!(
            err,
            SpaceError::Overlap {
                attempted: Extent::from_raw(120, 50),
                existing: Extent::from_raw(100, 30),
                holder: id(7),
            }
        );
    }

    #[test]
    fn empty_extent_is_rejected() {
        let mut m = SpaceMap::new();
        assert!(matches!(
            m.occupy(id(1), Extent::from_raw(0, 0)),
            Err(SpaceError::EmptyExtent { .. })
        ));
    }

    #[test]
    fn release_of_unknown_start_fails() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(10, 5)).unwrap();
        // Address 12 is occupied but is not an interval start.
        assert!(m.release(Addr::new(12)).is_err());
        assert!(m.release(Addr::new(0)).is_err());
        // Far beyond any mapped capacity.
        assert!(m.release(Addr::new(1 << 20)).is_err());
    }

    #[test]
    fn object_at_finds_owner() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(10, 5)).unwrap();
        m.occupy(id(2), Extent::from_raw(20, 1)).unwrap();
        assert_eq!(m.object_at(Addr::new(10)), Some(id(1)));
        assert_eq!(m.object_at(Addr::new(14)), Some(id(1)));
        assert_eq!(m.object_at(Addr::new(15)), None);
        assert_eq!(m.object_at(Addr::new(20)), Some(id(2)));
        assert_eq!(m.object_at(Addr::new(21)), None);
    }

    #[test]
    fn frontier_and_lowest_track_extremes() {
        let mut m = SpaceMap::new();
        assert_eq!(m.frontier(), Addr::ZERO);
        assert_eq!(m.lowest(), None);
        m.occupy(id(1), Extent::from_raw(100, 10)).unwrap();
        m.occupy(id(2), Extent::from_raw(5, 2)).unwrap();
        assert_eq!(m.frontier(), Addr::new(110));
        assert_eq!(m.lowest(), Some(Addr::new(5)));
    }

    #[test]
    fn frontier_recomputes_across_summary_blocks() {
        let mut m = SpaceMap::new();
        // Survivor far below, top object several summary blocks higher.
        m.occupy(id(1), Extent::from_raw(3, 1)).unwrap();
        m.occupy(id(2), Extent::from_raw(40_000, 16)).unwrap();
        assert_eq!(m.frontier(), Addr::new(40_016));
        m.release(Addr::new(40_000)).unwrap();
        assert_eq!(m.frontier(), Addr::new(4));
        m.release(Addr::new(3)).unwrap();
        assert_eq!(m.frontier(), Addr::ZERO);
    }

    #[test]
    fn gaps_reports_interior_holes_only() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(0, 4)).unwrap();
        m.occupy(id(2), Extent::from_raw(8, 2)).unwrap();
        m.occupy(id(3), Extent::from_raw(10, 6)).unwrap();
        let gaps: Vec<_> = m.gaps().collect();
        assert_eq!(gaps, vec![Extent::from_raw(4, 4)]);
    }

    #[test]
    fn gaps_cross_word_and_block_boundaries() {
        let mut m = SpaceMap::new();
        // Hole [60, 70) straddles a word boundary; hole [100, 4200)
        // spans a full summary block.
        m.occupy(id(1), Extent::from_raw(50, 10)).unwrap();
        m.occupy(id(2), Extent::from_raw(70, 30)).unwrap();
        m.occupy(id(3), Extent::from_raw(4200, 8)).unwrap();
        let gaps: Vec<_> = m.gaps().collect();
        assert_eq!(
            gaps,
            vec![Extent::from_raw(60, 10), Extent::from_raw(100, 4100)]
        );
    }

    #[test]
    fn occupied_words_in_window() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(0, 4)).unwrap();
        m.occupy(id(2), Extent::from_raw(6, 4)).unwrap();
        // window [2, 8) sees words 2,3 of o1 and 6,7 of o2
        assert_eq!(m.occupied_words_in(Extent::from_raw(2, 6)), Size::new(4));
        assert_eq!(m.occupied_words_in(Extent::from_raw(4, 2)), Size::ZERO);
        assert_eq!(m.occupied_words_in(Extent::from_raw(0, 10)), Size::new(8));
    }

    #[test]
    fn occupied_words_in_unaligned_windows_over_large_spans() {
        let mut m = SpaceMap::new();
        // One object per summary block, windows cut mid-object.
        for i in 0..4u64 {
            m.occupy(id(i), Extent::from_raw(i * 5000, 100)).unwrap();
        }
        assert_eq!(
            m.occupied_words_in(Extent::from_raw(0, 20_000)),
            Size::new(400)
        );
        // [50, 5050): the top 50 words of the first object and the
        // bottom 50 of the second.
        assert_eq!(
            m.occupied_words_in(Extent::from_raw(50, 5000)),
            Size::new(100)
        );
        assert_eq!(m.occupied_words_in(Extent::from_raw(4999, 2)), Size::new(1));
    }

    #[test]
    fn overlapping_lists_in_address_order() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(0, 4)).unwrap();
        m.occupy(id(2), Extent::from_raw(6, 4)).unwrap();
        m.occupy(id(3), Extent::from_raw(12, 4)).unwrap();
        let hits: Vec<_> = m.overlapping(Extent::from_raw(2, 12)).collect();
        assert_eq!(
            hits.iter().map(|&(_, o)| o).collect::<Vec<_>>(),
            vec![id(1), id(2), id(3)]
        );
    }

    #[test]
    fn overlapping_handles_containers_and_exact_starts() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(0, 100)).unwrap();
        // Window strictly inside the single container.
        let hits: Vec<_> = m.overlapping(Extent::from_raw(40, 10)).collect();
        assert_eq!(hits, vec![(Extent::from_raw(0, 100), id(1))]);
        // Window starting exactly at an interval start is not doubled.
        let hits: Vec<_> = m.overlapping(Extent::from_raw(0, 100)).collect();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn iter_is_in_address_order() {
        let mut m = SpaceMap::new();
        m.occupy(id(2), Extent::from_raw(64, 64)).unwrap();
        m.occupy(id(1), Extent::from_raw(0, 32)).unwrap();
        m.occupy(id(3), Extent::from_raw(10_000, 1)).unwrap();
        let order: Vec<_> = m.iter().map(|(_, o)| o).collect();
        assert_eq!(order, vec![id(1), id(2), id(3)]);
    }

    #[test]
    fn counters_move() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(0, 70)).unwrap();
        m.release(Addr::new(0)).unwrap();
        m.occupy(id(2), Extent::from_raw(128, 1)).unwrap();
        let c = m.counters();
        assert!(c.slot_high_water >= 1);
        assert_eq!(c.slots_reused, 1, "second occupy recycles the slot");
    }

    #[test]
    fn clone_is_independent() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(0, 8)).unwrap();
        let mut copy = m.clone();
        copy.release(Addr::new(0)).unwrap();
        copy.occupy(id(2), Extent::from_raw(4, 8)).unwrap();
        assert_eq!(m.object_at(Addr::new(4)), Some(id(1)));
        assert_eq!(copy.object_at(Addr::new(4)), Some(id(2)));
    }
}
