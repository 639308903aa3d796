//! Binary buddy allocation.
//!
//! The buddy allocator serves every request from a power-of-two block at a
//! block-aligned address, so all placements satisfy the *aligned
//! allocation* discipline the paper's Section 3 overview reasons about
//! (an object of size `2^i` lands on an address divisible by `2^i`).
//!
//! The free-block index keeps one open-addressed `addr -> order` map
//! (free-block starts are unique across orders), per-order lazily-cleaned
//! min-heaps, and a nonempty-order bitmask, making buddy-merge probes and
//! block selection O(1). The seed per-order `BTreeSet<u64>` index survives
//! only as a test oracle (`tests/oracle/`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pcb_heap::{Addr, AllocRequest, HeapOps, MemoryManager, ObjectId, PlacementError, Size};

use crate::indexed::AddrMap;

/// How the buddy allocator picks among free blocks large enough to serve a
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BuddySelect {
    /// Classic: split the smallest sufficient order (lowest address within
    /// the order).
    #[default]
    SmallestOrder,
    /// Address-ordered: take the lowest-address sufficient block, whatever
    /// its order. This makes the allocator behave like "place each `2^k`
    /// object at the lowest free `2^k`-aligned address", the discipline of
    /// Robson's bounded-fragmentation allocator `A_o`.
    LowestAddr,
}

/// Per-order free-block index: one `addr -> order` map (free-block starts
/// are unique across orders), per-order lazily-cleaned min-heaps, and a
/// nonempty-order bitmask.
#[derive(Debug, Clone)]
struct FreeIndex {
    map: AddrMap,
    heaps: Vec<BinaryHeap<Reverse<u64>>>,
    counts: Vec<u32>,
    mask: u64,
}

impl FreeIndex {
    fn new(orders: usize) -> Self {
        FreeIndex {
            map: AddrMap::default(),
            heaps: (0..orders).map(|_| BinaryHeap::new()).collect(),
            counts: vec![0; orders],
            mask: 0,
        }
    }

    fn insert(&mut self, order: u32, addr: u64) {
        self.map.insert(addr, u64::from(order));
        self.heaps[order as usize].push(Reverse(addr));
        self.counts[order as usize] += 1;
        self.mask |= 1 << order;
    }

    /// Removes `(order, addr)` if it is a free block; returns whether it
    /// was (the buddy-merge probe).
    fn remove_if_free(&mut self, order: u32, addr: u64) -> bool {
        if self.map.get(addr) != Some(u64::from(order)) {
            return false;
        }
        self.map.remove(addr);
        self.counts[order as usize] -= 1;
        if self.counts[order as usize] == 0 {
            self.mask &= !(1 << order);
        }
        true
    }

    /// Removes a block known to be free.
    fn pop(&mut self, order: u32, addr: u64) {
        let removed = self.remove_if_free(order, addr);
        debug_assert!(removed, "block being popped is free");
    }

    /// Lowest free address of exactly `order`, if any.
    fn min_at(&mut self, order: u32) -> Option<u64> {
        let heap = &mut self.heaps[order as usize];
        while let Some(&Reverse(addr)) = heap.peek() {
            if self.map.get(addr) == Some(u64::from(order)) {
                return Some(addr);
            }
            heap.pop();
        }
        None
    }

    fn count(&self, order: u32) -> usize {
        self.counts[order as usize] as usize
    }
}

/// A non-moving binary buddy allocator.
///
/// ```
/// use pcb_alloc::{BuddyAllocator, BuddySelect};
/// let b = BuddyAllocator::new(10, BuddySelect::SmallestOrder);
/// assert_eq!(b.max_block(), pcb_heap::Size::new(1024));
/// ```
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    /// Free blocks per order.
    free: FreeIndex,
    max_order: u32,
    frontier: u64,
    select: BuddySelect,
    name: &'static str,
}

impl BuddyAllocator {
    /// Creates a buddy allocator with top-level blocks of `2^max_order`
    /// words; requests larger than that are rejected.
    ///
    /// # Panics
    ///
    /// Panics if `max_order >= 48` (absurd block sizes would overflow the
    /// simulated address arithmetic long before then).
    pub fn new(max_order: u32, select: BuddySelect) -> Self {
        assert!(
            max_order < 48,
            "max_order {max_order} is unreasonably large"
        );
        BuddyAllocator {
            free: FreeIndex::new(max_order as usize + 1),
            max_order,
            frontier: 0,
            select,
            name: match select {
                BuddySelect::SmallestOrder => "buddy",
                BuddySelect::LowestAddr => "buddy-lowest",
            },
        }
    }

    /// The largest servable request.
    pub fn max_block(&self) -> Size {
        Size::new(1 << self.max_order)
    }

    /// Number of free blocks of each order (diagnostics).
    pub fn free_blocks(&self) -> Vec<usize> {
        (0..=self.max_order).map(|k| self.free.count(k)).collect()
    }

    fn order_for(size: Size) -> u32 {
        size.next_power_of_two().log2()
    }

    /// Finds a free block per the selection strategy; `None` if no block of
    /// order `>= k` is free.
    fn select_block(&mut self, k: u32) -> Option<(u32, u64)> {
        // Only nonempty orders need their heap consulted.
        let mut candidates =
            self.free.mask & (!0u64 << k) & ((1u128 << (self.max_order + 1)) - 1) as u64;
        match self.select {
            BuddySelect::SmallestOrder => {
                if candidates == 0 {
                    return None;
                }
                let order = candidates.trailing_zeros();
                let addr = self.free.min_at(order).expect("nonempty order");
                Some((order, addr))
            }
            BuddySelect::LowestAddr => {
                let mut best: Option<(u32, u64)> = None;
                while candidates != 0 {
                    let order = candidates.trailing_zeros();
                    candidates &= candidates - 1;
                    let addr = self.free.min_at(order).expect("nonempty order");
                    best = match best {
                        Some((_, b)) if b <= addr => best,
                        _ => Some((order, addr)),
                    };
                }
                best
            }
        }
    }

    /// Splits `(order, addr)` down to `k`, freeing the upper halves.
    fn split_down(&mut self, mut order: u32, addr: u64, k: u32) -> u64 {
        while order > k {
            order -= 1;
            self.free.insert(order, addr + (1 << order));
        }
        addr
    }

    fn grow(&mut self) {
        self.free.insert(self.max_order, self.frontier);
        self.frontier += 1 << self.max_order;
    }

    fn release_block(&mut self, mut addr: u64, mut order: u32) {
        while order < self.max_order {
            let buddy = addr ^ (1 << order);
            if !self.free.remove_if_free(order, buddy) {
                break;
            }
            addr = addr.min(buddy);
            order += 1;
        }
        self.free.insert(order, addr);
    }
}

impl MemoryManager for BuddyAllocator {
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
        self.free.pop(order, addr);
        Ok(Addr::new(self.split_down(order, addr, k)))
    }

    fn note_free(&mut self, _id: ObjectId, addr: Addr, size: Size) {
        self.release_block(addr.get(), Self::order_for(size));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_heap::{Execution, Heap, ScriptedProgram};

    fn run(
        select: BuddySelect,
        program: ScriptedProgram,
    ) -> (pcb_heap::HeapSummary, BuddyAllocator) {
        let mut exec = Execution::new(Heap::non_moving(), program, BuddyAllocator::new(6, select));
        let report = exec.run_summary().expect("buddy serves script");
        let (_, _, manager) = exec.into_parts();
        (report, manager)
    }

    #[test]
    fn placements_are_block_aligned() {
        let program = ScriptedProgram::new(Size::new(4096)).round([], [1, 2, 4, 8, 16, 32, 3, 5]);
        let mut exec = Execution::new(
            Heap::non_moving(),
            program,
            BuddyAllocator::new(6, BuddySelect::SmallestOrder),
        );
        exec.run_summary().unwrap();
        for rec in exec.heap().live_objects() {
            let block = rec.size().next_power_of_two();
            assert!(
                rec.addr().is_aligned_to(block.get()),
                "{} at {} not aligned to {block}",
                rec.size(),
                rec.addr()
            );
        }
    }

    #[test]
    fn split_and_merge_round_trip() {
        // Allocate one word (splits a 64-block down to 1), then free it:
        // everything must merge back into a single top-level block.
        let program = ScriptedProgram::new(Size::new(4096))
            .round([], [1])
            .round([0], []);
        let (report, buddy) = run(BuddySelect::SmallestOrder, program);
        assert_eq!(report.heap_size, 1);
        let blocks = buddy.free_blocks();
        assert_eq!(blocks[6], 1, "one merged top block: {blocks:?}");
        assert!(blocks[..6].iter().all(|&n| n == 0), "{blocks:?}");
    }

    #[test]
    fn buddies_merge_across_frees() {
        let program = ScriptedProgram::new(Size::new(4096))
            .round([], [16, 16, 16, 16])
            .round([0, 1, 2, 3], [64]);
        let (report, _) = run(BuddySelect::SmallestOrder, program);
        // All four 16-blocks merge back to a 64-block which serves the
        // 64-word request in place.
        assert_eq!(report.heap_size, 64);
    }

    #[test]
    fn non_power_sizes_round_up() {
        let program = ScriptedProgram::new(Size::new(4096)).round([], [3, 3]);
        let mut exec = Execution::new(
            Heap::non_moving(),
            program,
            BuddyAllocator::new(6, BuddySelect::SmallestOrder),
        );
        exec.run_summary().unwrap();
        let mut addrs: Vec<u64> = exec.heap().live_objects().map(|r| r.addr().get()).collect();
        addrs.sort_unstable();
        assert_eq!(addrs, vec![0, 4], "3-word objects occupy 4-word blocks");
    }

    #[test]
    fn oversized_request_is_rejected() {
        let program = ScriptedProgram::new(Size::new(4096)).round([], [65]);
        let mut exec = Execution::new(
            Heap::non_moving(),
            program,
            BuddyAllocator::new(6, BuddySelect::SmallestOrder),
        );
        assert!(exec.run_summary().is_err());
    }

    #[test]
    fn lowest_addr_select_prefers_low_addresses() {
        // Free a 32-block at 0 and another at 96, then request 8 words: the
        // lowest-addr strategy must carve it from address 0.
        let program = ScriptedProgram::new(Size::new(4096))
            .round([], [32, 32, 32, 32]) // blocks at 0,32,64,96
            .round([0, 3], [8]);
        let mut exec = Execution::new(
            Heap::non_moving(),
            program,
            BuddyAllocator::new(6, BuddySelect::LowestAddr),
        );
        exec.run_summary().unwrap();
        let eight = exec
            .heap()
            .live_objects()
            .find(|r| r.size() == Size::new(8))
            .unwrap();
        assert_eq!(eight.addr(), Addr::new(0));
    }

    #[test]
    fn interleaved_stress_preserves_ground_truth() {
        // The engine checks every placement against the SpaceMap, so a
        // clean run is the assertion.
        let mut sizes: Vec<u64> = Vec::new();
        for i in 0..64u64 {
            sizes.push(1 + (i % 6));
        }
        let program = ScriptedProgram::new(Size::new(1 << 20))
            .round([], sizes.clone())
            .round(
                (0..64).step_by(2),
                sizes.iter().map(|s| s * 2).collect::<Vec<_>>(),
            )
            .round((64..128).step_by(3), sizes);
        for select in [BuddySelect::SmallestOrder, BuddySelect::LowestAddr] {
            let mut exec = Execution::new(
                Heap::non_moving(),
                program.clone(),
                BuddyAllocator::new(8, select),
            );
            exec.run_summary().unwrap();
        }
    }
}
