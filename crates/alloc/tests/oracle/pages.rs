//! The seed page manager, kept verbatim (apart from renaming) as the
//! oracle for `pages_equivalence`: per-page `Vec<Option<ObjectId>>` slot
//! arrays in a `BTreeMap` keyed by base, the `open`/`sparse` candidate
//! sets as `BTreeSet`s recomputed from the page on every slot change, and
//! the page pool on the seed free space ([`super::ReferenceFreeSpace`]). The runtime
//! [`pcb_alloc::PageManager`] must make exactly the same placements.

use std::collections::{BTreeMap, BTreeSet};

use pcb_heap::{
    Addr, AllocRequest, HeapOps, MemoryManager, MoveOutcome, ObjectId, PlacementError, Size,
};

use super::ReferenceFreeSpace;

#[derive(Debug, Clone)]
struct Page {
    /// Slot -> occupant.
    slots: Vec<Option<ObjectId>>,
}

impl Page {
    fn new(slots: usize) -> Self {
        Page {
            slots: vec![None; slots],
        }
    }

    fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    fn first_free_slot(&self) -> Option<usize> {
        self.slots.iter().position(|s| s.is_none())
    }
}

/// One size class: its pages and candidate sets plus the free-slot tally.
#[derive(Debug, Clone, Default)]
struct ClassState {
    /// base -> page.
    pages: BTreeMap<u64, Page>,
    /// Bases of pages with at least one free slot.
    open: BTreeSet<u64>,
    /// Bases of evacuation candidates (live ≤ `sparse_live`).
    sparse: BTreeSet<u64>,
    /// Total free slots across all pages of the class.
    free_slots: usize,
}

impl ClassState {
    /// Installs a fresh (empty) page at `base`.
    fn insert_page(&mut self, base: u64, page: Page) {
        self.pages.insert(base, page);
        self.open.insert(base);
        self.sparse.insert(base);
    }

    /// Removes the page at `base`, dropping its candidate memberships.
    fn remove_page(&mut self, base: u64) -> Option<Page> {
        self.open.remove(&base);
        self.sparse.remove(&base);
        self.pages.remove(&base)
    }

    /// The seed membership recomputation.
    fn reindex(&mut self, base: u64, slots: usize, sparse_live: usize) {
        let Some(page) = self.pages.get(&base) else {
            self.open.remove(&base);
            self.sparse.remove(&base);
            return;
        };
        let live = page.live();
        if live < slots {
            self.open.insert(base);
        } else {
            self.open.remove(&base);
        }
        if live <= sparse_live {
            self.sparse.insert(base);
        } else {
            self.sparse.remove(&base);
        }
    }
}

/// The seed size-class page manager with density-triggered evacuation.
#[derive(Debug, Clone)]
pub struct SeedPageManager {
    classes: Vec<ClassState>,
    pool: ReferenceFreeSpace,
    max_order: u32,
    /// Objects per page.
    slots: usize,
    /// Pages with at most this many live slots are evacuation candidates.
    sparse_live: usize,
    evictions: u64,
}

impl SeedPageManager {
    /// Mirrors `PageManager::with_geometry(c, max_order, slots)`.
    pub fn with_geometry(c: u64, max_order: u32, slots: usize) -> Self {
        assert!(c >= 2 && max_order < 46 && slots >= 4 && slots.is_power_of_two());
        SeedPageManager {
            classes: vec![ClassState::default(); max_order as usize + 1],
            pool: ReferenceFreeSpace::new(),
            max_order,
            slots,
            sparse_live: slots / 4,
            evictions: 0,
        }
    }

    /// How many pages have been evacuated so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn class_for(size: Size) -> u32 {
        size.next_power_of_two().log2()
    }

    fn page_words(&self, k: u32) -> u64 {
        (self.slots as u64) << k
    }

    fn slot_addr(base: u64, k: u32, slot: usize) -> Addr {
        Addr::new(base + (slot as u64) * (1u64 << k))
    }

    /// Places into an open page of class `k`, if any.
    fn place_in_open(&mut self, k: u32, id: ObjectId) -> Option<Addr> {
        let slots = self.slots;
        let sparse_live = self.sparse_live;
        let class = &mut self.classes[k as usize];
        let base = class.open.first().copied()?;
        let page = class.pages.get_mut(&base).expect("open page exists");
        let slot = page.first_free_slot().expect("page in open set has a slot");
        page.slots[slot] = Some(id);
        class.free_slots -= 1;
        class.reindex(base, slots, sparse_live);
        Some(Self::slot_addr(base, k, slot))
    }

    /// Tries to evacuate one sparse page, returning whether a page was
    /// freed into the pool.
    fn evict_one(&mut self, ops: &mut HeapOps<'_, '_>) -> Result<bool, PlacementError> {
        let slots = self.slots;
        let mut pick: Option<(u32, u64)> = None;
        for k in (0..self.classes.len()).rev() {
            let class = &self.classes[k];
            let Some(&base) = class.sparse.first() else {
                continue;
            };
            let live = class.pages[&base].live();
            let spare_elsewhere = class.free_slots - (slots - live);
            if spare_elsewhere < live {
                continue;
            }
            if !ops.can_move(Size::new(live as u64 * (1u64 << k))) {
                continue;
            }
            pick = Some((k as u32, base));
            break;
        }
        let Some((k, base)) = pick else {
            return Ok(false);
        };
        self.evacuate(k, base, ops)?;
        Ok(true)
    }

    fn pool_has_room(&self, k: u32) -> bool {
        self.pool.largest_gap().get() >= 2 * self.page_words(k) - 1
    }

    /// Moves every survivor of page `(k, base)` into other pages of the
    /// class, then returns the page to the pool.
    fn evacuate(
        &mut self,
        k: u32,
        base: u64,
        ops: &mut HeapOps<'_, '_>,
    ) -> Result<(), PlacementError> {
        let class = &mut self.classes[k as usize];
        let page = class.remove_page(base).expect("victim page exists");
        class.free_slots -= self.slots - page.live();
        for occupant in page.slots.iter() {
            let Some(id) = *occupant else { continue };
            if !ops.heap().is_live(id) {
                continue;
            }
            let dest = match self.place_in_open(k, id) {
                Some(dest) => dest,
                None => {
                    let fresh = self.acquire_page(k);
                    self.install_page(k, fresh);
                    self.place_in_open(k, id)
                        .expect("fresh page has free slots")
                }
            };
            match ops.relocate(id, dest).map_err(PlacementError::from)? {
                MoveOutcome::Moved => {}
                MoveOutcome::Discarded => {
                    self.clear_slot(dest, Size::new(1 << k));
                }
            }
        }
        self.pool
            .release(Addr::new(base), Size::new(self.page_words(k)));
        self.evictions += 1;
        Ok(())
    }

    fn acquire_page(&mut self, k: u32) -> u64 {
        let words = self.page_words(k);
        self.pool.take_aligned(Size::new(words), words).get()
    }

    fn install_page(&mut self, k: u32, base: u64) {
        let slots = self.slots;
        let class = &mut self.classes[k as usize];
        class.insert_page(base, Page::new(slots));
        class.free_slots += slots;
    }

    fn clear_slot(&mut self, addr: Addr, size: Size) {
        let k = Self::class_for(size);
        let words = self.page_words(k);
        let slots = self.slots;
        let sparse_live = self.sparse_live;
        let base = addr.align_down(words).get();
        let class = &mut self.classes[k as usize];
        let Some(page) = class.pages.get_mut(&base) else {
            return;
        };
        let slot = ((addr.get() - base) >> k) as usize;
        page.slots[slot] = None;
        let live = page.live();
        class.free_slots += 1;
        if live == 0 {
            class.remove_page(base);
            class.free_slots -= slots;
            self.pool.release(Addr::new(base), Size::new(words));
        } else {
            class.reindex(base, slots, sparse_live);
        }
    }
}

impl MemoryManager for SeedPageManager {
    fn name(&self) -> &str {
        "pages-thm2"
    }

    fn internal_waste(&self) -> u64 {
        self.classes
            .iter()
            .enumerate()
            .map(|(k, class)| (class.free_slots as u64) << k)
            .sum()
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
        if let Some(addr) = self.place_in_open(k, req.id) {
            return Ok(addr);
        }
        loop {
            if !self.classes[k as usize].open.is_empty() || self.pool_has_room(k) {
                break;
            }
            if !self.evict_one(ops)? {
                break;
            }
        }
        if let Some(addr) = self.place_in_open(k, req.id) {
            return Ok(addr);
        }
        let base = self.acquire_page(k);
        self.install_page(k, base);
        Ok(self
            .place_in_open(k, req.id)
            .expect("fresh page has free slots"))
    }

    fn note_free(&mut self, _id: ObjectId, addr: Addr, size: Size) {
        self.clear_slot(addr, size);
    }
}
