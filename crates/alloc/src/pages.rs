//! A Theorem-2-style c-partial manager: size-class pages with
//! density-triggered evacuation.
//!
//! Theorem 2 of the paper improves on both Robson's non-moving bound and
//! the `(c+1)·M` arena bound by spending the small compaction budget where
//! it pays most: reclaiming *sparse* regions whose residual occupancy is
//! cheap to move. This manager realizes that idea operationally (the
//! paper's own construction lives only in the unpublished full version;
//! see DESIGN.md §4):
//!
//! * the heap is carved into *pages*; a page belongs to one power-of-two
//!   size class `2^k` and holds [`SLOTS_PER_PAGE`] objects of that class;
//! * allocation bump-fills partially-used pages of the class;
//! * when a class needs a page, the manager first tries to *evacuate*
//!   sparse pages (at most one live slot out of four — the factor-4
//!   geometry mirrors the paper's Section 4 chunk analysis) whose
//!   survivors fit in other pages of their class and whose move cost fits
//!   the remaining c-partial budget — freed pages return to a global pool
//!   usable by every class;
//! * only when no page can be reclaimed does the heap grow.
//!
//! The `1/c` constraint itself is enforced by the budget ledger at every
//! move; the density threshold only decides when evacuation is
//! *worthwhile* space-wise.
//!
//! Per-class bookkeeping is a dense page table. Class `k` keeps one
//! occupancy bit per slot (indexed by `addr >> k`), one presence bit per
//! installed page (indexed by page number `base >> (k + log2 slots)`), and
//! the `open`/`sparse` candidate sets as exact hierarchical bitmaps over
//! page numbers, so "lowest open page" is one successor query. A page's
//! live count is a masked popcount of its slot bits. Occupant ids are not
//! stored: evacuation reads them from the heap's referee, which already
//! maps every live slot address to its object. The page pool is a
//! [`FreeSpace`].

use core::fmt;
use std::ops::Range;

use pcb_heap::{
    Addr, AllocRequest, HeapOps, MemoryManager, MirrorCheck, MoveOutcome, ObjectId, PlacementError,
    Size, SpaceMap,
};
use pcb_metrics::Histogram;

use crate::freelist::FreeSpace;
use crate::indexed::StartBits;
use crate::{publish_count, publish_samples};

/// Objects per page: each class-`k` page spans `4 * 2^k` words, mirroring
/// the factor-4 chunk geometry of the paper's Section 4 analysis.
pub const SLOTS_PER_PAGE: u64 = 4;

/// Page shape shared by every class.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    /// `log2` of the slots per page.
    log_slots: u32,
    /// Pages with at most this many live slots are evacuation candidates
    /// (`slots / 4`, i.e. density ≤ 1/4).
    sparse_live: usize,
}

impl Geometry {
    fn slots(self) -> usize {
        1 << self.log_slots
    }

    fn page_of(self, slot: u64) -> u64 {
        slot >> self.log_slots
    }

    /// The occupancy words page `page` spans, and the mask of its bits in
    /// each: part of one word below 64 slots per page, whole words from
    /// 64 on.
    fn span(self, page: u64) -> (Range<usize>, u64) {
        let first = page << self.log_slots;
        let word = (first / 64) as usize;
        if self.log_slots < 6 {
            let mask = ((1u64 << self.slots()) - 1) << (first % 64);
            (word..word + 1, mask)
        } else {
            (word..word + (1 << (self.log_slots - 6)), !0)
        }
    }
}

fn bit(bits: &[u64], i: u64) -> bool {
    bits.get((i / 64) as usize)
        .is_some_and(|w| w >> (i % 64) & 1 == 1)
}

/// One size class's page table (see the module docs).
#[derive(Debug, Clone, Default)]
struct ClassState {
    /// One bit per slot: set iff the slot is occupied.
    occ: Vec<u64>,
    /// One bit per page number: set iff the page is installed.
    present: Vec<u64>,
    /// Installed pages with at least one free slot.
    open: StartBits,
    /// Installed pages with at most `sparse_live` live slots.
    sparse: StartBits,
    /// Total free slots across all installed pages of the class.
    free_slots: usize,
}

impl ClassState {
    fn is_present(&self, page: u64) -> bool {
        bit(&self.present, page)
    }

    /// Live slots of the installed page `page`.
    fn live(&self, page: u64, geom: Geometry) -> usize {
        let (words, mask) = geom.span(page);
        self.occ[words]
            .iter()
            .map(|w| (w & mask).count_ones() as usize)
            .sum()
    }

    /// Lowest free slot of the installed page `page`, if any.
    fn first_free_slot(&self, page: u64, geom: Geometry) -> Option<u64> {
        let (words, mask) = geom.span(page);
        let first = words.start;
        self.occ[words].iter().enumerate().find_map(|(i, &w)| {
            let free = !w & mask;
            (free != 0).then(|| (first + i) as u64 * 64 + u64::from(free.trailing_zeros()))
        })
    }

    /// Installs an empty page, which is both open and sparse.
    fn install(&mut self, page: u64, geom: Geometry) {
        let (words, _) = geom.span(page);
        if self.occ.len() < words.end {
            self.occ.resize(words.end, 0);
        }
        let w = (page / 64) as usize;
        if self.present.len() <= w {
            self.present.resize(w + 1, 0);
        }
        self.present[w] |= 1 << (page % 64);
        self.open.set(page);
        self.sparse.set(page);
        self.free_slots += geom.slots();
    }

    /// Drops the installed page `page` from the table, leaving its slot
    /// bits to the caller.
    fn uninstall(&mut self, page: u64, geom: Geometry) {
        self.free_slots -= geom.slots() - self.live(page, geom);
        self.present[(page / 64) as usize] &= !(1 << (page % 64));
        self.open.clear(page);
        self.sparse.clear(page);
    }

    /// Occupies the free slot `slot` of an installed page; candidate
    /// memberships can only end.
    fn fill(&mut self, slot: u64, geom: Geometry) {
        self.occ[(slot / 64) as usize] |= 1 << (slot % 64);
        self.free_slots -= 1;
        let page = geom.page_of(slot);
        let live = self.live(page, geom);
        if live == geom.slots() {
            self.open.clear(page);
        }
        if live == geom.sparse_live + 1 {
            self.sparse.clear(page);
        }
    }

    /// Frees the occupied slot `slot` of an installed page and returns the
    /// page's live count; memberships can only begin, and only at the
    /// exact threshold crossing.
    fn vacate(&mut self, slot: u64, geom: Geometry) -> usize {
        self.occ[(slot / 64) as usize] &= !(1 << (slot % 64));
        self.free_slots += 1;
        let page = geom.page_of(slot);
        let live = self.live(page, geom);
        if live + 1 == geom.slots() {
            self.open.set(page);
        }
        if live == geom.sparse_live {
            self.sparse.set(page);
        }
        live
    }

    /// Installed page numbers, ascending.
    #[cfg(test)]
    fn pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.present.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64)
                .filter(move |b| bits >> b & 1 == 1)
                .map(move |b| w as u64 * 64 + b)
        })
    }
}

/// Invalid [`PageManager`] construction parameters (the typed form of
/// the constructor panics, for harness paths that must exit cleanly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageGeometryError {
    /// The compaction bound was below 2.
    BoundTooSmall {
        /// The offending bound.
        c: u64,
    },
    /// The maximum size-class order was 46 or more.
    OrderTooLarge {
        /// The offending order.
        max_order: u32,
    },
    /// The slots-per-page count was not a power of two at least 4.
    BadSlots {
        /// The offending slot count.
        slots: usize,
    },
}

impl fmt::Display for PageGeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageGeometryError::BoundTooSmall { c } => {
                write!(f, "compaction bound must be at least 2 (got {c})")
            }
            PageGeometryError::OrderTooLarge { max_order } => {
                write!(f, "max_order {max_order} is unreasonably large")
            }
            PageGeometryError::BadSlots { slots } => {
                write!(
                    f,
                    "slots per page must be a power of two >= 4 (got {slots})"
                )
            }
        }
    }
}

impl std::error::Error for PageGeometryError {}

/// Size-class page manager with density-triggered evacuation.
///
/// ```
/// use pcb_alloc::PageManager;
/// let m = PageManager::new(100, 20);
/// assert_eq!(m.evictions(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct PageManager {
    classes: Vec<ClassState>,
    pool: FreeSpace,
    max_order: u32,
    /// Objects per page (the factor-`slots` geometry; 4 by default) and
    /// the evacuation threshold.
    geom: Geometry,
    /// Pages evacuated (`pages.evictions`), requests served by an open
    /// page (`pages.open_serves`) and by a fresh one (`pages.new_pages`).
    evictions: u64,
    open_serves: u64,
    new_pages: u64,
    /// Request sizes (`alloc.size`), sampled only while the metrics
    /// registry is on.
    sizes: Histogram,
}

impl PageManager {
    /// Creates a manager for compaction bound `c` serving classes
    /// `2^0 ..= 2^max_order`.
    ///
    /// `c` does not parameterize the manager's structure — the c-partial
    /// constraint is enforced move-by-move through the heap's budget
    /// ledger — but it is kept in the signature so every manager in the
    /// registry builds uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `c < 2` or `max_order >= 46`; [`try_new`](Self::try_new)
    /// reports the same conditions as a typed error instead.
    pub fn new(c: u64, max_order: u32) -> Self {
        Self::with_geometry(c, max_order, SLOTS_PER_PAGE as usize)
    }

    /// Like [`new`](Self::new), but reports invalid parameters as a
    /// [`PageGeometryError`] instead of panicking — the harness-facing
    /// constructor, where a user's parameter mistake must become a clean
    /// exit message rather than a backtrace.
    ///
    /// # Errors
    ///
    /// Returns [`PageGeometryError`] if `c < 2` or `max_order >= 46`.
    pub fn try_new(c: u64, max_order: u32) -> Result<Self, PageGeometryError> {
        Self::try_with_geometry(c, max_order, SLOTS_PER_PAGE as usize)
    }

    /// Creates a manager with `slots` objects per page instead of the
    /// default [`SLOTS_PER_PAGE`] — the geometry ablation of the paper's
    /// factor-4 chunk structure. `slots` must be a power of two ≥ 4.
    ///
    /// # Panics
    ///
    /// Panics if `c < 2`, `max_order >= 46`, or `slots` is not a power of
    /// two at least 4.
    pub fn with_geometry(c: u64, max_order: u32, slots: usize) -> Self {
        match Self::try_with_geometry(c, max_order, slots) {
            Ok(manager) => manager,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`with_geometry`](Self::with_geometry), but reports invalid
    /// parameters as a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`PageGeometryError`] describing the first violated
    /// constraint.
    pub fn try_with_geometry(
        c: u64,
        max_order: u32,
        slots: usize,
    ) -> Result<Self, PageGeometryError> {
        if c < 2 {
            return Err(PageGeometryError::BoundTooSmall { c });
        }
        if max_order >= 46 {
            return Err(PageGeometryError::OrderTooLarge { max_order });
        }
        if slots < 4 || !slots.is_power_of_two() {
            return Err(PageGeometryError::BadSlots { slots });
        }
        Ok(PageManager {
            classes: (0..=max_order).map(|_| ClassState::default()).collect(),
            pool: FreeSpace::new(),
            max_order,
            geom: Geometry {
                log_slots: slots.trailing_zeros(),
                sparse_live: slots / 4,
            },
            evictions: 0,
            open_serves: 0,
            new_pages: 0,
            sizes: Histogram::new(),
        })
    }

    /// How many pages have been evacuated so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn class_for(size: Size) -> u32 {
        size.next_power_of_two().log2()
    }

    fn page_words(&self, k: u32) -> u64 {
        (self.geom.slots() as u64) << k
    }

    /// Places into the lowest open page of class `k`, if any.
    fn place_in_open(&mut self, k: u32) -> Option<Addr> {
        let geom = self.geom;
        let class = &mut self.classes[k as usize];
        let page = class.open.succ(0)?;
        let slot = class
            .first_free_slot(page, geom)
            .expect("page in open set has a slot");
        class.fill(slot, geom);
        Some(Addr::new(slot << k))
    }

    /// Tries to evacuate one sparse page, returning whether a page was
    /// freed into the pool.
    ///
    /// Every sparse page holds at most `sparse_live` live slot(s) (empty
    /// pages are released eagerly), so a class is viable iff it has a
    /// sparse page, enough free slots elsewhere (the survivors fit), and
    /// the budget covers the move — an O(classes) scan. Larger classes are
    /// tried first: they return the most space per eviction.
    fn evict_one(&mut self, ops: &mut HeapOps<'_, '_>) -> Result<bool, PlacementError> {
        let geom = self.geom;
        let mut pick: Option<(u32, u64)> = None;
        for (k, class) in self.classes.iter().enumerate().rev() {
            let Some(page) = class.sparse.succ(0) else {
                continue;
            };
            let live = class.live(page, geom);
            let spare_elsewhere = class.free_slots - (geom.slots() - live);
            if spare_elsewhere < live {
                continue;
            }
            if !ops.can_move(Size::new(live as u64 * (1u64 << k))) {
                continue;
            }
            pick = Some((k as u32, page));
            break;
        }
        let Some((k, page)) = pick else {
            return Ok(false);
        };
        self.evacuate(k, page, ops)?;
        Ok(true)
    }

    /// Whether the pool surely has room for a `k`-class page (a gap of
    /// `2·page − 1` words always contains an aligned page; the frontier
    /// always works but growing there is what eviction tries to avoid).
    fn pool_has_room(&self, k: u32) -> bool {
        self.pool.largest_gap().get() >= 2 * self.page_words(k) - 1
    }

    /// Moves every survivor of page `page` of class `k` into other pages
    /// of the class, in slot order, then returns the page to the pool.
    fn evacuate(
        &mut self,
        k: u32,
        page: u64,
        ops: &mut HeapOps<'_, '_>,
    ) -> Result<(), PlacementError> {
        let geom = self.geom;
        self.classes[k as usize].uninstall(page, geom);
        let (words, mask) = geom.span(page);
        for w in words {
            let word = &mut self.classes[k as usize].occ[w];
            let mut bits = *word & mask;
            *word &= !mask;
            while bits != 0 {
                let slot = w as u64 * 64 + u64::from(bits.trailing_zeros());
                bits &= bits - 1;
                // Only the object being moved can die during a move, so
                // every other set bit still names a live referee object.
                // A bit the referee holds free is a corrupted table (the
                // chaos phantom): fail rather than let evacuation erase it.
                let at = Addr::new(slot << k);
                let Some(id) = ops.heap().space().object_at(at) else {
                    return Err(PlacementError::new(format!(
                        "page table marks class-{k} slot at {} occupied, but the space map holds it free",
                        at.get()
                    )));
                };
                let dest = match self.place_in_open(k) {
                    Some(dest) => dest,
                    None => {
                        // Spare capacity was checked before evacuating, but
                        // races with program frees are possible; grow via pool.
                        let fresh = self.acquire_page(k);
                        self.install_page(k, fresh);
                        self.place_in_open(k).expect("fresh page has free slots")
                    }
                };
                match ops.relocate(id, dest).map_err(PlacementError::from)? {
                    MoveOutcome::Moved => {}
                    MoveOutcome::Discarded => {
                        // The program freed the object at its destination
                        // (the P_F ghost discipline); note_free has not
                        // run, so clear the slot ourselves.
                        self.clear_slot(dest, Size::new(1 << k));
                    }
                }
            }
        }
        self.pool.release(
            Addr::new(page << (k + geom.log_slots)),
            Size::new(self.page_words(k)),
        );
        self.evictions += 1;
        Ok(())
    }

    /// Acquires a page-aligned page for class `k` from the pool.
    fn acquire_page(&mut self, k: u32) -> u64 {
        let words = self.page_words(k);
        self.pool.take_aligned(Size::new(words), words).get()
    }

    fn install_page(&mut self, k: u32, base: u64) {
        let geom = self.geom;
        self.classes[k as usize].install(base >> (k + geom.log_slots), geom);
    }

    fn clear_slot(&mut self, addr: Addr, size: Size) {
        let k = Self::class_for(size);
        let geom = self.geom;
        let slot = addr.get() >> k;
        let page = geom.page_of(slot);
        let class = &mut self.classes[k as usize];
        if !class.is_present(page) {
            // The slot's page was already evacuated/released.
            return;
        }
        if class.vacate(slot, geom) == 0 {
            class.uninstall(page, geom);
            self.pool.release(
                Addr::new(page << (k + geom.log_slots)),
                Size::new(self.page_words(k)),
            );
        }
    }

    /// Debug helper for tests: verifies `free_slots`, the slot bits
    /// outside installed pages and the `open`/`sparse` sets against the
    /// page contents.
    #[cfg(test)]
    fn check_consistency(&self) {
        let geom = self.geom;
        for (k, class) in self.classes.iter().enumerate() {
            let mut free = 0;
            let mut live_total = 0;
            for page in class.pages() {
                let live = class.live(page, geom);
                free += geom.slots() - live;
                live_total += live;
                assert_eq!(
                    class.open.contains(page),
                    live < geom.slots(),
                    "class {k} page {page} open"
                );
                assert_eq!(
                    class.sparse.contains(page),
                    live <= geom.sparse_live,
                    "class {k} page {page} sparse"
                );
            }
            assert_eq!(class.free_slots, free, "class {k}");
            let set: usize = class.occ.iter().map(|w| w.count_ones() as usize).sum();
            assert_eq!(set, live_total, "class {k}: slot bits outside pages");
            for set in [&class.open, &class.sparse] {
                let mut at = set.succ(0);
                while let Some(page) = at {
                    assert!(class.is_present(page), "class {k}: stale page {page}");
                    at = set.succ(page + 1);
                }
            }
        }
    }
}

impl MemoryManager for PageManager {
    fn name(&self) -> &str {
        "pages-thm2"
    }

    /// Free slots trapped inside open pages: a class-`k` slot holds
    /// `2^k` words that no other size class can use — the page
    /// geometry's internal fragmentation.
    fn internal_waste(&self) -> u64 {
        self.classes
            .iter()
            .enumerate()
            .map(|(k, class)| (class.free_slots as u64) << k)
            .sum()
    }

    fn publish_metrics(&self) {
        publish_count("pages.placements", self.open_serves + self.new_pages);
        publish_count("pages.open_serves", self.open_serves);
        publish_count("pages.new_pages", self.new_pages);
        publish_count("pages.evictions", self.evictions);
        publish_samples("alloc.size", &self.sizes);
        self.pool.publish_metrics();
    }

    fn place(
        &mut self,
        req: AllocRequest,
        ops: &mut HeapOps<'_, '_>,
    ) -> Result<Addr, PlacementError> {
        let k = Self::class_for(req.size);
        if k > self.max_order {
            return Err(PlacementError::new(format!(
                "request {} exceeds the largest class 2^{}",
                req.size, self.max_order
            )));
        }
        if pcb_metrics::enabled() {
            self.sizes.record(req.size.get());
        }
        if let Some(addr) = self.place_in_open(k) {
            self.open_serves += 1;
            return Ok(addr);
        }
        // No open page: evacuate sparse pages until the pool can host the
        // needed page (or nothing more can be evacuated), then grow from
        // the (possibly replenished) pool.
        loop {
            if self.classes[k as usize].open.succ(0).is_some() || self.pool_has_room(k) {
                break;
            }
            if !self.evict_one(ops)? {
                break;
            }
        }
        if let Some(addr) = self.place_in_open(k) {
            self.open_serves += 1;
            return Ok(addr);
        }
        let base = self.acquire_page(k);
        self.install_page(k, base);
        self.new_pages += 1;
        Ok(self.place_in_open(k).expect("fresh page has free slots"))
    }

    fn note_free(&mut self, _id: ObjectId, addr: Addr, size: Size) {
        self.clear_slot(addr, size);
    }

    /// The page table must account for exactly the referee's objects:
    /// each one's slot bit is set in an installed page of its class, no
    /// other slot bit is set, and the pool hands out nothing the referee
    /// holds.
    fn mirror_check(&self, space: &SpaceMap) -> MirrorCheck {
        let geom = self.geom;
        for (extent, id) in space.iter() {
            let k = Self::class_for(extent.size());
            let start = extent.start().get();
            let slot = start >> k;
            let tracked = k <= self.max_order && start % (1 << k) == 0 && {
                let class = &self.classes[k as usize];
                class.is_present(geom.page_of(slot)) && bit(&class.occ, slot)
            };
            if !tracked {
                return MirrorCheck::Divergent(format!(
                    "object {id} at [{}, {}) has no occupied class-{k} slot",
                    start,
                    extent.end().get()
                ));
            }
        }
        let set: usize = self
            .classes
            .iter()
            .flat_map(|class| &class.occ)
            .map(|w| w.count_ones() as usize)
            .sum();
        if set != space.len() {
            return MirrorCheck::Divergent(format!(
                "{set} occupied slots for {} live objects",
                space.len()
            ));
        }
        if let Err(detail) = self.pool.check_invariants() {
            return MirrorCheck::Divergent(format!("page pool invariants broken: {detail}"));
        }
        for gap in self.pool.gaps() {
            if !space.is_free(gap) {
                return MirrorCheck::Divergent(format!(
                    "page-pool gap [{}, {}) is occupied in the space map",
                    gap.start().get(),
                    gap.end().get()
                ));
            }
        }
        if self.pool.frontier() < space.frontier() {
            return MirrorCheck::Divergent(format!(
                "page-pool frontier {} is below the space-map frontier {}",
                self.pool.frontier().get(),
                space.frontier().get()
            ));
        }
        MirrorCheck::Clean
    }

    /// Plants a phantom occupant: the first free slot of the page of the
    /// `roll`-th referee object (in address order, moving on to later
    /// objects while their pages are full) is marked occupied.
    /// A phantom only withholds space, so it can never cause an
    /// overlapping placement; `mirror_check` sees one slot too many.
    fn inject_mirror_fault(&mut self, roll: u64, space: &SpaceMap) -> bool {
        let count = space.len();
        if count == 0 {
            return false;
        }
        let skip = (roll % count as u64) as usize;
        let geom = self.geom;
        for (extent, _) in space.iter().skip(skip).chain(space.iter().take(skip)) {
            let k = Self::class_for(extent.size());
            let Some(class) = self.classes.get_mut(k as usize) else {
                continue;
            };
            let page = geom.page_of(extent.start().get() >> k);
            if !class.is_present(page) {
                continue;
            }
            if let Some(slot) = class.first_free_slot(page, geom) {
                class.fill(slot, geom);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_heap::{Execution, Heap, ScriptedProgram};

    #[test]
    fn pages_fill_before_growing() {
        let program = ScriptedProgram::new(Size::new(1024)).round([], [8, 8, 8, 8, 8]);
        let mut exec = Execution::new(Heap::new(10), program, PageManager::new(10, 10));
        let report = exec.run_summary().unwrap();
        // First four share one 32-word page; the fifth starts a second
        // page at 32 (HS counts used words, so the span ends at 32+8).
        assert_eq!(report.heap_size, 40);
        let (_, _, manager) = exec.into_parts();
        manager.check_consistency();
    }

    #[test]
    fn slot_geometry_is_aligned() {
        let program = ScriptedProgram::new(Size::new(1024)).round([], [8, 8, 4, 4, 1]);
        let mut exec = Execution::new(Heap::new(10), program, PageManager::new(10, 10));
        exec.run_summary().unwrap();
        for rec in exec.heap().live_objects() {
            let class = rec.size().next_power_of_two().get();
            assert!(rec.addr().is_aligned_to(class));
        }
    }

    #[test]
    fn empty_pages_return_to_the_pool_for_other_classes() {
        let program = ScriptedProgram::new(Size::new(1024))
            .round([], [8, 8, 8, 8]) // one 32-word page, full
            .round([0, 1, 2, 3], [2, 2]); // page empties; class 1 reuses it
        let mut exec = Execution::new(Heap::new(10), program, PageManager::new(10, 10));
        let report = exec.run_summary().unwrap();
        assert_eq!(
            report.heap_size, 32,
            "the emptied class-3 page houses the class-1 page"
        );
        let (_, _, manager) = exec.into_parts();
        manager.check_consistency();
    }

    #[test]
    fn sparse_pages_are_evacuated_when_budget_allows() {
        // Two class-4 objects first (so no alignment hole is left in the
        // pool), then two full class-0 pages; free six of the eight ones
        // to leave two sparse pages, then demand class-2 pages. With the
        // pool empty, eviction must fire.
        let program = ScriptedProgram::new(Size::new(1024))
            .round([], [16, 16, 1, 1, 1, 1, 1, 1, 1, 1])
            .round([3, 4, 5, 6, 7, 8], [4, 4, 4, 4, 4]);
        let mut exec = Execution::new(Heap::new(10), program, PageManager::new(10, 10));
        let report = exec.run_summary().unwrap();
        let (_, _, manager) = exec.into_parts();
        manager.check_consistency();
        assert!(manager.evictions() >= 1, "eviction should have triggered");
        assert!(report.objects_moved >= 1);
        assert!(report.moved_fraction <= 0.1 + 1e-12);
    }

    #[test]
    fn respects_budget_under_churn() {
        let mut program = ScriptedProgram::new(Size::new(64));
        let mut base = 0usize;
        for _ in 0..30 {
            program = program
                .round([], vec![1u64; 32])
                .round((base..base + 32).filter(|i| i % 4 != 0), vec![4u64; 4]);
            let frees: Vec<usize> = (base..base + 32)
                .filter(|i| i % 4 == 0)
                .chain(base + 32..base + 36)
                .collect();
            program = program.round(frees, []);
            base += 36;
        }
        let mut exec = Execution::new(Heap::new(20), program, PageManager::new(20, 8));
        let report = exec.run_summary().expect("budget never violated");
        assert!(report.moved_fraction <= 0.05 + 1e-12);
        let (_, _, manager) = exec.into_parts();
        manager.check_consistency();
    }

    #[test]
    fn oversized_is_rejected() {
        let program = ScriptedProgram::new(Size::new(1 << 13)).round([], [1 << 12]);
        let mut exec = Execution::new(Heap::new(10), program, PageManager::new(10, 8));
        assert!(exec.run_summary().is_err());
    }

    #[test]
    fn alternative_geometries_work_and_differ() {
        let script = || {
            ScriptedProgram::new(Size::new(1024))
                .round([], vec![1u64; 64])
                .round((0..64).filter(|i| i % 4 != 0), vec![8u64; 8])
        };
        let mut sizes = Vec::new();
        for slots in [4usize, 8, 16, 128] {
            let mut exec = Execution::new(
                Heap::new(5),
                script(),
                PageManager::with_geometry(5, 10, slots),
            );
            let report = exec
                .run_summary()
                .unwrap_or_else(|e| panic!("slots={slots}: {e}"));
            let (_, _, manager) = exec.into_parts();
            manager.check_consistency();
            sizes.push(report.heap_size);
        }
        sizes.dedup();
        assert!(sizes.len() > 1, "geometry should matter: {sizes:?}");
    }

    #[test]
    #[should_panic(expected = "power of two >= 4")]
    fn bad_geometry_is_rejected() {
        let _ = PageManager::with_geometry(10, 8, 3);
    }

    #[test]
    fn injected_phantom_is_caught_by_mirror_check() {
        for slots in [4usize, 128] {
            let program = ScriptedProgram::new(Size::new(1024))
                .round([], [8, 8, 8, 3, 1, 1, 2])
                .round([1, 4], [4]);
            let mut exec = Execution::new(
                Heap::new(10),
                program,
                PageManager::with_geometry(10, 8, slots),
            );
            exec.run_summary().expect("clean run");
            let (heap, _, mut manager) = exec.into_parts();
            assert_eq!(manager.mirror_check(heap.space()), MirrorCheck::Clean);
            assert!(manager.inject_mirror_fault(0xDEAD_BEEF, heap.space()));
            manager.check_consistency();
            assert!(
                matches!(
                    manager.mirror_check(heap.space()),
                    MirrorCheck::Divergent(_)
                ),
                "slots={slots} missed the phantom"
            );
        }
    }

    #[test]
    fn evacuating_a_phantom_fails_instead_of_healing_it() {
        // Two 8-slot class-0 pages: page 0 thinned to object 0, page 1
        // to six objects. A phantom next to object 0 keeps page 0 sparse
        // (2 live ≤ 2); a class-3 request with no pool room then
        // evacuates it and meets the phantom.
        let program = ScriptedProgram::new(Size::new(64))
            .round([], vec![1u64; 16])
            .round((1..10).collect::<Vec<_>>(), []);
        let mut exec = Execution::new(Heap::new(2), program, PageManager::with_geometry(2, 8, 8));
        exec.run_summary().expect("clean run");
        let (heap, _, mut manager) = exec.into_parts();
        assert!(manager.inject_mirror_fault(0, heap.space()));
        let demand = ScriptedProgram::new(Size::new(64)).round([], [8]);
        let err = Execution::new(heap, demand, manager)
            .run_summary()
            .expect_err("the phantom surfaces");
        assert!(err.to_string().contains("holds it free"), "{err}");
    }

    #[test]
    fn full_pages_decline_injection() {
        let program = ScriptedProgram::new(Size::new(1024)).round([], [8, 8, 8, 8]);
        let mut exec = Execution::new(Heap::new(10), program, PageManager::new(10, 10));
        exec.run_summary().unwrap();
        let (heap, _, mut manager) = exec.into_parts();
        assert!(!manager.inject_mirror_fault(7, heap.space()));
        assert_eq!(manager.mirror_check(heap.space()), MirrorCheck::Clean);
    }

    #[test]
    fn eviction_compacts_fragmented_classes() {
        // Eight pages of class 0, each reduced to one survivor, then
        // demand from class 3: evictions consolidate the survivors and
        // recycle the freed pages.
        let mut program = ScriptedProgram::new(Size::new(1024)).round([], vec![1u64; 32]);
        // Free 3 of every 4 (leaving one survivor per page).
        program = program.round((0..32).filter(|i| i % 4 != 0), vec![8u64; 4]);
        let mut exec = Execution::new(Heap::new(5), program, PageManager::new(5, 10));
        let report = exec.run_summary().unwrap();
        let (_, _, manager) = exec.into_parts();
        manager.check_consistency();
        assert!(manager.evictions() >= 1);
        assert!(report.moved_fraction <= 0.2 + 1e-12);
    }
}
