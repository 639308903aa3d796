//! The simulated heap: object table + occupancy ground truth + c-partial
//! budget + heap-size accounting.
//!
//! The heap does not model memory contents, only placement: that is all the
//! paper's framework needs. The *heap size* `HS` is measured exactly as the
//! paper defines it — "the smallest consecutive space that the memory
//! manager may use to satisfy all allocation requests" — i.e. the peak span
//! between the lowest and highest word ever occupied during the execution.

use crate::addr::{Addr, Extent, Size};
use crate::budget::CompactionBudget;
use crate::error::HeapError;
use crate::object::{ObjectId, ObjectIdGen, ObjectRecord};
use crate::space::SpaceMap;

/// Sentinel for "not live" in [`ObjectTable::pages`].
const NO_SLOT: u32 = u32::MAX;

/// Object ids index the dense table and must stay below this.
pub(crate) const ID_LIMIT: u64 = NO_SLOT as u64;

/// Ids per page of the id → slot table, as a power of two.
const ID_PAGE_BITS: u32 = 16;

/// Ids per page of the id → slot table.
const ID_PAGE: usize = 1 << ID_PAGE_BITS;

/// Dense object table: object ids are allocation sequence numbers, so an
/// id → slot array replaces a hash map on the place/free/relocate hot
/// path. The slot indexes the [`SpaceMap`]'s slot table, which holds the
/// object's interval and owner: the referee's record is the heap's only
/// per-object record.
///
/// The array is paged like the referee's addr → slot directory: page `p`
/// maps ids `[p·ID_PAGE, (p+1)·ID_PAGE)`. A page is allocated when an id
/// in it is first inserted and grows only as far as the highest id
/// inserted in it, so a heap whose ids fit the first page costs what one
/// flat vector does, and a sparse id costs one page (plus a 24-byte
/// directory entry per page number up to its own), not a slot for every
/// id below it.
#[derive(Debug, Default, Clone)]
struct ObjectTable {
    /// id → space-map slot; `NO_SLOT` while not live.
    pages: Vec<Vec<u32>>,
}

impl ObjectTable {
    /// The page and offset of an id.
    #[inline]
    fn locate(id: ObjectId) -> (usize, usize) {
        let raw = id.get();
        (
            (raw >> ID_PAGE_BITS) as usize,
            (raw as usize) & (ID_PAGE - 1),
        )
    }

    #[inline]
    fn slot_of(&self, id: ObjectId) -> Option<u32> {
        let (page, offset) = Self::locate(id);
        match self.pages.get(page)?.get(offset) {
            Some(&s) if s != NO_SLOT => Some(s),
            _ => None,
        }
    }

    /// Points `id` at `slot`.
    fn set(&mut self, id: ObjectId, slot: u32) {
        assert!(
            id.get() < ID_LIMIT,
            "object ids index the dense table and must stay below 2^32 - 1"
        );
        let (page, offset) = Self::locate(id);
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, Vec::new);
        }
        let page = &mut self.pages[page];
        if offset >= page.len() {
            if offset >= page.capacity() {
                // Grow geometrically, but never past one page.
                let want = (2 * page.capacity()).clamp(offset + 1, ID_PAGE);
                page.reserve_exact(want - page.len());
            }
            page.resize(offset + 1, NO_SLOT);
        }
        page[offset] = slot;
    }

    fn remove(&mut self, id: ObjectId) -> Option<u32> {
        let slot = self.slot_of(id)?;
        let (page, offset) = Self::locate(id);
        self.pages[page][offset] = NO_SLOT;
        Some(slot)
    }

    /// Allocated pages and their total capacity, in ids.
    #[cfg(test)]
    fn footprint(&self) -> (usize, usize) {
        let allocated = self.pages.iter().filter(|p| p.capacity() > 0);
        (
            allocated.clone().count(),
            allocated.map(Vec::capacity).sum(),
        )
    }
}

/// Aggregate operation counts for an execution.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HeapStats {
    /// Objects placed (allocations served).
    pub objects_placed: u64,
    /// Objects freed by the program.
    pub objects_freed: u64,
    /// Relocations performed by the manager.
    pub objects_moved: u64,
    /// Cumulative words allocated.
    pub words_placed: u64,
    /// Cumulative words freed.
    pub words_freed: u64,
    /// Cumulative words moved (compaction work).
    pub words_moved: u64,
}

/// The simulated heap.
///
/// ```
/// use pcb_heap::{Addr, Heap, Size};
/// let mut heap = Heap::new(10); // serves a 10-partial manager
/// let id = heap.fresh_id();
/// heap.place(id, Addr::new(0), Size::new(64))?;
/// assert_eq!(heap.live_words(), Size::new(64));
/// assert_eq!(heap.heap_size(), Size::new(64));
/// heap.free(id)?;
/// assert_eq!(heap.live_words(), Size::ZERO);
/// // Heap size is a *peak* measure; freeing does not shrink it.
/// assert_eq!(heap.heap_size(), Size::new(64));
/// # Ok::<(), pcb_heap::HeapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Heap {
    objects: ObjectTable,
    space: SpaceMap,
    budget: CompactionBudget,
    id_gen: ObjectIdGen,
    max_object: Option<Size>,
    live_words: Size,
    peak_live: Size,
    /// Lowest word ever occupied (None until the first placement).
    min_used: Option<Addr>,
    /// Highest `end()` ever occupied.
    max_used_end: Addr,
    /// Live words at the moment the span last grew: the complement of
    /// the holes baked into `HS` (external fragmentation).
    live_at_peak_span: Size,
    /// Total words of objects freed immediately upon being moved (the
    /// ghost objects of the paper's `P_F` discipline).
    ghost_words: Size,
    round: u32,
    stats: HeapStats,
}

impl Heap {
    /// Creates a heap serving a `c`-partial manager.
    ///
    /// # Panics
    ///
    /// Panics unless `c > 1` (see [`CompactionBudget::new`]).
    pub fn new(c: u64) -> Self {
        Self::with_budget(CompactionBudget::new(c))
    }

    /// Creates a heap for a non-moving manager (no compaction ever allowed).
    pub fn non_moving() -> Self {
        Self::with_budget(CompactionBudget::non_moving())
    }

    /// Creates a heap with unlimited compaction (the full-compaction
    /// baseline the paper contrasts c-partial managers with).
    pub fn unlimited_compaction() -> Self {
        Self::with_budget(CompactionBudget::unlimited())
    }

    /// Creates a heap from a compaction bound in the encoding traces and
    /// [`CompactionBudget::c`] use: `0` is unlimited compaction,
    /// `u64::MAX` a non-moving heap, anything else a c-partial heap.
    ///
    /// # Panics
    ///
    /// Panics for `c == 1` (see [`CompactionBudget::new`]).
    pub fn with_c(c: u64) -> Self {
        match c {
            0 => Self::unlimited_compaction(),
            u64::MAX => Self::non_moving(),
            c => Self::new(c),
        }
    }

    /// Creates a heap with an explicit budget ledger.
    pub fn with_budget(budget: CompactionBudget) -> Self {
        Heap {
            objects: ObjectTable::default(),
            space: SpaceMap::new(),
            budget,
            id_gen: ObjectIdGen::new(),
            max_object: None,
            live_words: Size::ZERO,
            peak_live: Size::ZERO,
            min_used: None,
            max_used_end: Addr::ZERO,
            live_at_peak_span: Size::ZERO,
            ghost_words: Size::ZERO,
            round: 0,
            stats: HeapStats::default(),
        }
    }

    /// Restricts object sizes to at most `n` words (the paper's parameter
    /// `n`); violations are reported as [`HeapError::InvalidSize`].
    pub fn set_max_object(&mut self, n: Size) {
        self.max_object = Some(n);
    }

    /// Returns a fresh object id (allocation sequence number).
    pub fn fresh_id(&mut self) -> ObjectId {
        self.id_gen.fresh()
    }

    /// Moves the id generator past `id`, so no later [`fresh_id`](Self::fresh_id)
    /// returns it (for ids chosen outside the heap, as in a replayed trace).
    pub fn skip_id(&mut self, id: ObjectId) {
        self.id_gen.skip(id);
    }

    /// Advances the round (step) counter.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// The current round counter.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Places object `id` of `size` words at `addr`.
    ///
    /// This both claims the space and charges the allocation to the
    /// compaction-budget ledger (allocations *recharge* the allowance).
    ///
    /// # Errors
    ///
    /// Fails if `id` is already live, the extent is not free or the size
    /// is invalid; the heap is unchanged on error.
    pub fn place(&mut self, id: ObjectId, addr: Addr, size: Size) -> Result<(), HeapError> {
        if size.is_zero() || self.max_object.is_some_and(|n| size > n) {
            return Err(HeapError::InvalidSize {
                size,
                max: self.max_object,
            });
        }
        if self.is_live(id) {
            return Err(HeapError::AlreadyLive(id));
        }
        let extent = Extent::new(addr, size);
        let slot = self.space.occupy_slot(id, extent)?;
        self.objects.set(id, slot);
        self.budget.on_allocated(size);
        self.live_words += size;
        self.peak_live = self.peak_live.max(self.live_words);
        self.note_used(extent);
        self.stats.objects_placed += 1;
        self.stats.words_placed += size.get();
        Ok(())
    }

    /// Frees object `id`, releasing its footprint.
    ///
    /// # Errors
    ///
    /// Fails if `id` is not live.
    pub fn free(&mut self, id: ObjectId) -> Result<(Addr, Size), HeapError> {
        let slot = self
            .objects
            .remove(id)
            .ok_or(HeapError::UnknownObject(id))?;
        let (extent, _) = self.space.release_slot(slot);
        self.live_words = self.live_words - extent.size();
        self.stats.objects_freed += 1;
        self.stats.words_freed += extent.size().get();
        Ok((extent.start(), extent.size()))
    }

    /// Relocates object `id` to `new_addr`, spending compaction budget equal
    /// to the object's size. The object may move to a range overlapping its
    /// old footprint (sliding compaction).
    ///
    /// # Errors
    ///
    /// Fails if `id` is not live, the destination is not free, or the move
    /// would exceed the c-partial allowance; the heap is unchanged on error.
    pub fn relocate(&mut self, id: ObjectId, new_addr: Addr) -> Result<Addr, HeapError> {
        let slot = self
            .objects
            .slot_of(id)
            .ok_or(HeapError::UnknownObject(id))?;
        let (old, _) = self.space.slot(slot);
        let (old_addr, size) = (old.start(), old.size());
        if new_addr == old_addr {
            // Moving zero distance moves no data: a no-op, free of budget.
            return Ok(old_addr);
        }
        if !self.budget.can_move(size) {
            return Err(HeapError::BudgetExceeded {
                id,
                size,
                remaining: self.budget.allowance(),
            });
        }
        // Release-then-occupy so sliding moves that overlap the old
        // footprint succeed; roll back on failure. Either way the LIFO
        // slot free list hands the released slot straight back.
        self.space.release_slot(slot);
        let new_extent = Extent::new(new_addr, size);
        match self.space.occupy_slot(id, new_extent) {
            Ok(slot) => self.objects.set(id, slot),
            Err(e) => {
                let slot = self
                    .space
                    .occupy_slot(id, old)
                    .expect("rollback to the original placement cannot collide");
                self.objects.set(id, slot);
                return Err(e.into());
            }
        }
        self.budget
            .on_moved(size)
            .expect("can_move was checked above");
        self.note_used(new_extent);
        self.stats.objects_moved += 1;
        self.stats.words_moved += size.get();
        Ok(old_addr)
    }

    fn note_used(&mut self, extent: Extent) {
        let span_before = self.heap_size();
        self.min_used = Some(match self.min_used {
            Some(lo) => lo.min(extent.start()),
            None => extent.start(),
        });
        self.max_used_end = self.max_used_end.max(extent.end());
        // The span never shrinks, so any growth is a new peak: snapshot
        // the live words so `external_waste` can report the holes that
        // were baked into HS at the moment it was reached.
        if self.heap_size() > span_before {
            self.live_at_peak_span = self.live_words;
        }
    }

    /// Charges `words` of ghost-object churn: an object that was freed
    /// the moment the manager moved it (see
    /// [`MoveResponse::FreeImmediately`](crate::MoveResponse)). Called by
    /// the engine, not by managers.
    pub(crate) fn note_ghost(&mut self, words: Size) {
        self.ghost_words += words;
    }

    /// The record of a live object.
    pub fn record(&self, id: ObjectId) -> Option<ObjectRecord> {
        let (extent, _) = self.space.slot(self.objects.slot_of(id)?);
        Some(ObjectRecord::new(id, extent.start(), extent.size()))
    }

    /// Whether `id` is live.
    pub fn is_live(&self, id: ObjectId) -> bool {
        self.objects.slot_of(id).is_some()
    }

    /// Iterates over live objects in ascending address order (the
    /// referee's interval order), so callers need not sort.
    pub fn live_objects(&self) -> impl Iterator<Item = ObjectRecord> + '_ {
        self.space
            .iter()
            .map(|(extent, owner)| ObjectRecord::new(owner, extent.start(), extent.size()))
    }

    /// Number of live objects.
    pub fn live_count(&self) -> usize {
        self.space.len()
    }

    /// Total live words.
    pub fn live_words(&self) -> Size {
        self.live_words
    }

    /// Peak of total live words over the execution.
    pub fn peak_live(&self) -> Size {
        self.peak_live
    }

    /// The heap size `HS`: peak span of used address space over the whole
    /// execution (the paper's Section 4 measure).
    pub fn heap_size(&self) -> Size {
        match self.min_used {
            Some(lo) => self.max_used_end.offset_from(lo),
            None => Size::ZERO,
        }
    }

    /// External fragmentation realized in `HS`: the hole words that were
    /// inside the used span at the moment it last grew
    /// (`heap_size() - live-words-at-that-moment`). These are the words
    /// the manager could not fill and the span had to grow past.
    pub fn external_waste(&self) -> Size {
        Size::new(
            self.heap_size()
                .get()
                .saturating_sub(self.live_at_peak_span.get()),
        )
    }

    /// Total words of moved-then-immediately-freed objects — the ghost
    /// objects with which a `P_F` program converts compaction work into
    /// pure waste (Section 5 of the paper).
    pub fn ghost_words(&self) -> Size {
        self.ghost_words
    }

    /// The compaction-budget ledger.
    pub fn budget(&self) -> &CompactionBudget {
        &self.budget
    }

    /// Tightens the compaction bound mid-run (a chaos "budget cut");
    /// see [`CompactionBudget::tighten`]. Returns whether the bound
    /// changed.
    pub fn tighten_budget(&mut self, new_c: u64) -> bool {
        self.budget.tighten(new_c)
    }

    /// The ground-truth occupancy map (read-only).
    pub fn space(&self) -> &SpaceMap {
        &self.space
    }

    /// Aggregate operation counts.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_free_place_reuses_space() {
        let mut h = Heap::new(10);
        let a = h.fresh_id();
        h.place(a, Addr::new(0), Size::new(8)).unwrap();
        h.free(a).unwrap();
        let b = h.fresh_id();
        h.place(b, Addr::new(0), Size::new(8)).unwrap();
        assert_eq!(h.heap_size(), Size::new(8));
        assert_eq!(h.live_words(), Size::new(8));
        assert_eq!(h.stats().objects_placed, 2);
    }

    #[test]
    fn heap_size_is_peak_span() {
        let mut h = Heap::new(10);
        let a = h.fresh_id();
        h.place(a, Addr::new(100), Size::new(4)).unwrap();
        assert_eq!(h.heap_size(), Size::new(4), "span starts at first use");
        let b = h.fresh_id();
        h.place(b, Addr::new(0), Size::new(1)).unwrap();
        assert_eq!(h.heap_size(), Size::new(104));
        h.free(a).unwrap();
        h.free(b).unwrap();
        assert_eq!(h.heap_size(), Size::new(104), "HS never shrinks");
    }

    #[test]
    fn double_free_and_unknown_ids_fail() {
        let mut h = Heap::new(10);
        let a = h.fresh_id();
        h.place(a, Addr::new(0), Size::new(2)).unwrap();
        h.free(a).unwrap();
        assert!(matches!(h.free(a), Err(HeapError::UnknownObject(_))));
        assert!(matches!(
            h.relocate(a, Addr::new(10)),
            Err(HeapError::UnknownObject(_))
        ));
    }

    #[test]
    fn relocate_respects_budget() {
        let mut h = Heap::new(2);
        let a = h.fresh_id();
        h.place(a, Addr::new(0), Size::new(10)).unwrap();
        // allocated=10, c=2 => allowance 5 < 10
        let err = h.relocate(a, Addr::new(100)).unwrap_err();
        assert!(matches!(err, HeapError::BudgetExceeded { remaining, .. }
            if remaining == Size::new(5)));
        // A second allocation recharges enough.
        let b = h.fresh_id();
        h.place(b, Addr::new(10), Size::new(10)).unwrap();
        let old = h.relocate(a, Addr::new(100)).unwrap();
        assert_eq!(old, Addr::new(0));
        assert_eq!(h.record(a).unwrap().addr(), Addr::new(100));
    }

    #[test]
    fn sliding_relocation_over_own_footprint_works() {
        let mut h = Heap::new(2);
        let a = h.fresh_id();
        let b = h.fresh_id();
        h.place(a, Addr::new(0), Size::new(4)).unwrap();
        h.place(b, Addr::new(4), Size::new(4)).unwrap();
        h.free(a).unwrap();
        // allocated = 8, c = 2 => allowance 4, enough to move b (size 4).
        // Slide b left by 2; new extent [2,6) overlaps old [4,8).
        h.relocate(b, Addr::new(2)).unwrap();
        assert_eq!(h.record(b).unwrap().addr(), Addr::new(2));
        assert!(h.space().is_free(Extent::from_raw(6, 100)));
        assert!(h.space().is_free(Extent::from_raw(0, 2)));
    }

    #[test]
    fn relocate_to_occupied_target_rolls_back() {
        let mut h = Heap::new(2);
        let a = h.fresh_id();
        let b = h.fresh_id();
        h.place(a, Addr::new(0), Size::new(2)).unwrap();
        h.place(b, Addr::new(10), Size::new(2)).unwrap();
        // Plenty of budget after two allocations? allocated=4, c=2, allowance=2.
        let err = h.relocate(a, Addr::new(9)).unwrap_err();
        assert!(matches!(err, HeapError::Space(_)));
        // a is still where it was and still live.
        assert_eq!(h.record(a).unwrap().addr(), Addr::new(0));
        assert_eq!(h.live_words(), Size::new(4));
    }

    #[test]
    fn max_object_enforced() {
        let mut h = Heap::new(10);
        h.set_max_object(Size::new(16));
        let a = h.fresh_id();
        assert!(matches!(
            h.place(a, Addr::new(0), Size::new(17)),
            Err(HeapError::InvalidSize { .. })
        ));
        assert!(matches!(
            h.place(a, Addr::new(0), Size::ZERO),
            Err(HeapError::InvalidSize { .. })
        ));
        h.place(a, Addr::new(0), Size::new(16)).unwrap();
    }

    #[test]
    fn peak_live_tracks_high_water() {
        let mut h = Heap::new(10);
        let a = h.fresh_id();
        let b = h.fresh_id();
        h.place(a, Addr::new(0), Size::new(6)).unwrap();
        h.place(b, Addr::new(6), Size::new(6)).unwrap();
        h.free(a).unwrap();
        assert_eq!(h.peak_live(), Size::new(12));
        assert_eq!(h.live_words(), Size::new(6));
    }

    #[test]
    fn object_table_recycles_slots() {
        let mut h = Heap::new(10);
        let ids: Vec<_> = (0..8).map(|_| h.fresh_id()).collect();
        for (i, &id) in ids.iter().enumerate() {
            h.place(id, Addr::new(i as u64 * 4), Size::new(2)).unwrap();
        }
        for &id in &ids[..4] {
            h.free(id).unwrap();
        }
        let more: Vec<_> = (0..4).map(|_| h.fresh_id()).collect();
        for (i, &id) in more.iter().enumerate() {
            h.place(id, Addr::new(i as u64 * 4), Size::new(1)).unwrap();
        }
        assert_eq!(h.live_count(), 8);
        for &id in ids[4..].iter().chain(&more) {
            assert!(h.is_live(id));
        }
        for &id in &ids[..4] {
            assert!(!h.is_live(id));
        }
        let mut seen: Vec<_> = h.live_objects().map(|r| r.id()).collect();
        seen.sort();
        let mut want: Vec<_> = ids[4..].iter().chain(&more).copied().collect();
        want.sort();
        assert_eq!(seen, want);
    }

    #[test]
    fn a_sparse_id_costs_one_page() {
        let mut h = Heap::new(10);
        let sparse = ObjectId::from_raw(ID_LIMIT - 1);
        h.place(sparse, Addr::new(0), Size::new(2)).unwrap();
        let (pages, ids) = h.objects.footprint();
        assert_eq!(pages, 1);
        assert!(ids <= ID_PAGE, "{ids} id slots for one page");
        assert!(h.is_live(sparse));
        assert!(!h.is_live(ObjectId::from_raw(ID_LIMIT - 2)));
        assert!(!h.is_live(ObjectId::from_raw(7)));
        h.free(sparse).unwrap();
        assert!(!h.is_live(sparse));
        // Dense ids fill the first page as a flat vector would, then
        // spill into the next one.
        let mut dense = Heap::new(10);
        for i in 0..=ID_PAGE as u64 {
            let id = dense.fresh_id();
            dense.place(id, Addr::new(i), Size::WORD).unwrap();
        }
        let (pages, ids) = dense.objects.footprint();
        assert_eq!(pages, 2);
        assert!(ids < 2 * ID_PAGE, "{ids} id slots for {} ids", ID_PAGE + 1);
        assert_eq!(dense.live_count(), ID_PAGE + 1);
    }

    #[test]
    fn live_objects_come_in_address_order() {
        let mut h = Heap::new(10);
        for addr in [40, 0, 100, 8] {
            let id = h.fresh_id();
            h.place(id, Addr::new(addr), Size::new(4)).unwrap();
        }
        let addrs: Vec<_> = h.live_objects().map(|r| r.addr().get()).collect();
        assert_eq!(addrs, vec![0, 8, 40, 100]);
    }

    #[test]
    fn placing_a_live_id_again_fails_and_changes_nothing() {
        let mut h = Heap::new(10);
        let a = h.fresh_id();
        h.place(a, Addr::new(0), Size::new(4)).unwrap();
        let err = h.place(a, Addr::new(8), Size::new(4)).unwrap_err();
        assert_eq!(err, HeapError::AlreadyLive(a));
        assert_eq!(err.to_string(), "object o0 is already live");
        assert_eq!(
            h.record(a),
            Some(ObjectRecord::new(a, Addr::ZERO, Size::new(4)))
        );
        assert_eq!(h.live_count(), 1);
        assert_eq!(h.space().len(), 1);
        assert!(h.space().is_free(Extent::from_raw(4, 100)));
        assert_eq!(h.stats().objects_placed, 1);
        assert_eq!(h.heap_size(), Size::new(4));
        // Freeing releases the one interval; the id can then be reused.
        h.free(a).unwrap();
        assert!(h.space().is_empty());
        h.place(a, Addr::new(8), Size::new(4)).unwrap();
        assert_eq!(h.record(a).unwrap().addr(), Addr::new(8));
    }

    #[test]
    fn zero_distance_relocate_is_free() {
        let mut h = Heap::new(2);
        let a = h.fresh_id();
        h.place(a, Addr::new(0), Size::new(4)).unwrap();
        h.relocate(a, Addr::new(0)).unwrap();
        assert_eq!(h.budget().moved_total(), 0);
        assert_eq!(h.stats().objects_moved, 0);
    }
}
