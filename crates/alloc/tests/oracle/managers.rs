//! The seed buddy, segregated and TLSF managers, kept verbatim (apart from
//! renaming) as oracles for `manager_equivalence`: each is the runtime
//! manager with its seed `BTreeSet` index, and TLSF keeps its coalescing
//! mirror on the seed [`ReferenceFreeSpace`]. The runtime managers must
//! make exactly the same placements.

use std::collections::BTreeSet;

use pcb_alloc::BuddySelect;
use pcb_heap::{Addr, AllocRequest, HeapOps, MemoryManager, ObjectId, PlacementError, Size};

use super::ReferenceFreeSpace;

/// The seed binary buddy allocator: `free[k]` = start addresses of free
/// `2^k` blocks.
#[derive(Debug, Clone)]
pub struct SeedBuddyAllocator {
    free: Vec<BTreeSet<u64>>,
    max_order: u32,
    frontier: u64,
    select: BuddySelect,
    name: &'static str,
}

impl SeedBuddyAllocator {
    /// Mirrors `BuddyAllocator::new(max_order, select)`.
    pub fn new(max_order: u32, select: BuddySelect) -> Self {
        assert!(
            max_order < 48,
            "max_order {max_order} is unreasonably large"
        );
        SeedBuddyAllocator {
            free: vec![BTreeSet::new(); max_order as usize + 1],
            max_order,
            frontier: 0,
            select,
            name: match select {
                BuddySelect::SmallestOrder => "buddy",
                BuddySelect::LowestAddr => "buddy-lowest",
            },
        }
    }

    pub fn max_block(&self) -> Size {
        Size::new(1 << self.max_order)
    }

    /// Number of free blocks of each order.
    pub fn free_blocks(&self) -> Vec<usize> {
        self.free.iter().map(BTreeSet::len).collect()
    }

    fn order_for(size: Size) -> u32 {
        size.next_power_of_two().log2()
    }

    fn select_block(&mut self, k: u32) -> Option<(u32, u64)> {
        let free = &self.free;
        match self.select {
            BuddySelect::SmallestOrder => (k..=self.max_order)
                .find_map(|j| free[j as usize].first().copied().map(|addr| (j, addr))),
            BuddySelect::LowestAddr => (k..=self.max_order)
                .filter_map(|j| free[j as usize].first().copied().map(|addr| (j, addr)))
                .min_by_key(|&(_, addr)| addr),
        }
    }

    fn split_down(&mut self, mut order: u32, addr: u64, k: u32) -> u64 {
        while order > k {
            order -= 1;
            self.free[order as usize].insert(addr + (1 << order));
        }
        addr
    }

    fn grow(&mut self) {
        self.free[self.max_order as usize].insert(self.frontier);
        self.frontier += 1 << self.max_order;
    }

    fn release_block(&mut self, mut addr: u64, mut order: u32) {
        while order < self.max_order {
            let buddy = addr ^ (1 << order);
            if !self.free[order as usize].remove(&buddy) {
                break;
            }
            addr = addr.min(buddy);
            order += 1;
        }
        self.free[order as usize].insert(addr);
    }
}

impl MemoryManager for SeedBuddyAllocator {
    fn name(&self) -> &str {
        self.name
    }

    fn place(
        &mut self,
        req: AllocRequest,
        _ops: &mut HeapOps<'_, '_>,
    ) -> Result<Addr, PlacementError> {
        let k = Self::order_for(req.size);
        if k > self.max_order {
            return Err(PlacementError::new(format!(
                "request {} exceeds max block {}",
                req.size,
                self.max_block()
            )));
        }
        let (order, addr) = match self.select_block(k) {
            Some(found) => found,
            None => {
                self.grow();
                self.select_block(k)
                    .expect("fresh top-level block serves any order")
            }
        };
        let removed = self.free[order as usize].remove(&addr);
        debug_assert!(removed, "block being popped is free");
        Ok(Addr::new(self.split_down(order, addr, k)))
    }

    fn note_free(&mut self, _id: ObjectId, addr: Addr, size: Size) {
        self.release_block(addr.get(), Self::order_for(size));
    }
}

/// The seed segregated-storage manager: one `BTreeSet` of free slots per
/// power-of-two class.
#[derive(Debug, Clone)]
pub struct SeedSegregatedManager {
    free: Vec<BTreeSet<u64>>,
    max_order: u32,
    frontier: u64,
}

impl SeedSegregatedManager {
    /// Mirrors `SegregatedManager::new(max_order)`.
    pub fn new(max_order: u32) -> Self {
        assert!(
            max_order < 48,
            "max_order {max_order} is unreasonably large"
        );
        SeedSegregatedManager {
            free: vec![BTreeSet::new(); max_order as usize + 1],
            max_order,
            frontier: 0,
        }
    }

    /// Free slots per class.
    pub fn free_slots(&self) -> Vec<usize> {
        self.free.iter().map(BTreeSet::len).collect()
    }

    fn class_for(size: Size) -> u32 {
        size.next_power_of_two().log2()
    }
}

impl MemoryManager for SeedSegregatedManager {
    fn name(&self) -> &str {
        "segregated"
    }

    fn place(
        &mut self,
        req: AllocRequest,
        _ops: &mut HeapOps<'_, '_>,
    ) -> Result<Addr, PlacementError> {
        let k = Self::class_for(req.size);
        if k > self.max_order {
            return Err(PlacementError::new(format!(
                "request {} exceeds the largest class 2^{}",
                req.size, self.max_order
            )));
        }
        if let Some(slot) = self.free[k as usize].first().copied() {
            self.free[k as usize].remove(&slot);
            return Ok(Addr::new(slot));
        }
        let addr = self.frontier;
        self.frontier += 1 << k;
        Ok(Addr::new(addr))
    }

    fn note_free(&mut self, _id: ObjectId, addr: Addr, size: Size) {
        let k = Self::class_for(size);
        self.free[k as usize].insert(addr.get());
    }
}

const SL_BITS: u32 = 3;
const SL_COUNT: u32 = 1 << SL_BITS;
const FL_SHIFT: u32 = SL_BITS;
const FL_MAX: u32 = 40;
const BUCKETS: usize = (FL_MAX * SL_COUNT) as usize;

/// The seed TLSF manager: address-ordered `BTreeSet` buckets with a linear
/// nonempty scan, coalescing through the seed free space.
#[derive(Debug, Clone)]
pub struct SeedTlsfManager {
    buckets: Vec<BTreeSet<(u64, u64)>>,
    nonempty: Vec<bool>,
    mirror: ReferenceFreeSpace,
}

impl Default for SeedTlsfManager {
    fn default() -> Self {
        SeedTlsfManager {
            buckets: vec![BTreeSet::new(); BUCKETS],
            nonempty: vec![false; BUCKETS],
            mirror: ReferenceFreeSpace::new(),
        }
    }
}

impl SeedTlsfManager {
    fn mapping(size: u64) -> (u32, u32) {
        debug_assert!(size > 0);
        if size < (1 << FL_SHIFT) {
            (0, size as u32 - 1)
        } else {
            let fl = 63 - size.leading_zeros();
            let sl = ((size >> (fl - SL_BITS)) - (1 << SL_BITS)) as u32;
            (fl - FL_SHIFT + 1, sl)
        }
    }

    fn bucket_index(fl: u32, sl: u32) -> usize {
        (fl * SL_COUNT + sl) as usize
    }

    fn search_mapping(size: u64) -> (u32, u32) {
        if size < (1 << FL_SHIFT) {
            return (0, size as u32 - 1);
        }
        let fl = 63 - size.leading_zeros();
        let rounded = size + (1 << (fl - SL_BITS)) - 1;
        Self::mapping(rounded)
    }

    fn insert_block(&mut self, start: u64, len: u64) {
        let (fl, sl) = Self::mapping(len);
        let idx = Self::bucket_index(fl, sl);
        self.buckets[idx].insert((start, len));
        self.nonempty[idx] = true;
    }

    fn remove_block(&mut self, start: u64, len: u64) {
        let (fl, sl) = Self::mapping(len);
        let idx = Self::bucket_index(fl, sl);
        let removed = self.buckets[idx].remove(&(start, len));
        debug_assert!(removed, "block ({start},{len}) indexed");
        if self.buckets[idx].is_empty() {
            self.nonempty[idx] = false;
        }
    }

    fn find_block(&mut self, size: u64) -> Option<(u64, u64)> {
        let (fl, sl) = Self::search_mapping(size);
        let from = Self::bucket_index(fl, sl);
        self.nonempty[from..]
            .iter()
            .position(|&ne| ne)
            .and_then(|off| self.buckets[from + off].first().copied())
            .filter(|&(_, len)| len >= size)
    }

    /// Total free words indexed.
    pub fn indexed_free_words(&self) -> u64 {
        self.buckets
            .iter()
            .flat_map(|b| b.iter())
            .map(|&(_, len)| len)
            .sum()
    }
}

impl MemoryManager for SeedTlsfManager {
    fn name(&self) -> &str {
        "tlsf"
    }

    fn place(
        &mut self,
        req: AllocRequest,
        _ops: &mut HeapOps<'_, '_>,
    ) -> Result<Addr, PlacementError> {
        let size = req.size.get();
        match self.find_block(size) {
            Some((start, len)) => {
                self.remove_block(start, len);
                let taken = self.mirror.take_exact(Addr::new(start), req.size);
                debug_assert!(taken, "mirror agrees with the index");
                if len > size {
                    self.insert_block(start + size, len - size);
                }
                Ok(Addr::new(start))
            }
            None => {
                let frontier = self.mirror.frontier();
                let taken = self.mirror.take_exact(frontier, req.size);
                debug_assert!(taken, "frontier space is always free");
                Ok(frontier)
            }
        }
    }

    fn note_free(&mut self, _id: ObjectId, addr: Addr, size: Size) {
        if let Some(g) = self.mirror.gap_ending_at(addr) {
            self.remove_block(g.start().get(), g.size().get());
        }
        if let Some(g) = self.mirror.gap_starting_at(addr + size) {
            self.remove_block(g.start().get(), g.size().get());
        }
        self.mirror.release(addr, size);
        if let Some(g) = self.mirror.gap_containing(addr) {
            self.insert_block(g.start().get(), g.size().get());
        }
    }
}
